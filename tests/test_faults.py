"""Deterministic fault injection + recovery across every layer.

The headline invariant (``docs/faults.md``): under **any** seeded fault
plan, recovered results are bit-identical — rows *and* final answers — to
the fault-free run.  The fault-sweep parity suite asserts it at workers
1/2/4 on every placement (``parallel``, ``distributed`` at one node and
at four nodes over four shards — one scheduler, ``PLACEMENTS``) for the
seed in ``FAULT_SEED`` (CI runs a 3-seed matrix).

Beyond the sweep: FaultPlan determinism and validation, scheduler crash
recovery and retry-budget exhaustion, replicated-table failover /
logical-clock resync, serving deadlines / batch retries / refresh
re-arming, the Db-level retry policy, and the no-silent-failures
counters (``PredictServer.stats()``, ``NeurDB.warnings()``).
"""

from __future__ import annotations

import os
from itertools import product

import numpy as np
import pytest

import repro
from repro.common.errors import (
    DeadlineExceeded,
    ExecutionError,
    ReplicaUnavailable,
    TransientError,
    WorkerCrash,
    is_retryable,
)
from repro.common.faults import KINDS, FaultPlan, FaultSpec
from repro.common.simtime import BudgetExceeded, SimClock
from repro.exec.distributed import DistributedScheduler
from repro.exec.executor import Executor
from repro.serve import PredictServer
from repro.serve.server import REFRESH_RETRY
from repro.sql import parse
from repro.storage import (
    BACKUP,
    PRIMARY,
    Column,
    DataType,
    ReplicatedTable,
    TableSchema,
)

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


# -- FaultPlan: the deterministic substrate ----------------------------------


class TestFaultPlan:
    def test_rolls_are_pure_functions_of_seed_kind_site(self):
        a, b = FaultPlan(seed=7), FaultPlan(seed=7)
        sites = [f"sched#1:0:{i}:0" for i in range(50)]
        assert ([a.roll("task_error", s) for s in sites]
                == [b.roll("task_error", s) for s in sites])
        # different seed or kind => different roll sequence
        c = FaultPlan(seed=8)
        assert ([a.roll("task_error", s) for s in sites]
                != [c.roll("task_error", s) for s in sites])
        assert ([a.roll("task_error", s) for s in sites]
                != [a.roll("worker_crash", s) for s in sites])

    def test_decide_rate_is_deterministic_and_logged(self):
        plan = FaultPlan(seed=3).arm("task_error", rate=0.5)
        fired = [bool(plan.decide("task_error", f"s:{i}", index=i))
                 for i in range(100)]
        again = FaultPlan(seed=3).arm("task_error", rate=0.5)
        assert fired == [bool(again.decide("task_error", f"s:{i}", index=i))
                         for i in range(100)]
        assert 10 < sum(fired) < 90  # a rate, not a constant
        assert plan.count("task_error") == sum(fired)
        assert plan.counts() == {"task_error": sum(fired)}

    def test_scheduled_times_fire_on_first_attempt_only(self):
        plan = FaultPlan(seed=0).arm("worker_crash", times=(3,))
        assert plan.decide("worker_crash", "x:3:0", index=3) is not None
        # retried unit of work: the scheduled fault must not re-fire
        assert plan.decide("worker_crash", "x:3:1", index=3,
                           attempt=1) is None
        assert plan.decide("worker_crash", "x:2:0", index=2) is None

    def test_target_filter(self):
        plan = FaultPlan(seed=0).arm("replica_down", times=(1,),
                                     target="orders")
        assert plan.decide("replica_down", "s", index=1,
                           target="orders") is not None
        assert plan.decide("replica_down", "s", index=1,
                           target="users") is None
        assert plan.decide("replica_down", "s", index=1) is None

    def test_maybe_raise_maps_kinds_to_exceptions(self):
        plan = FaultPlan(seed=0)
        for kind in KINDS:
            plan.arm(kind, rate=1.0)
        with pytest.raises(TransientError):
            plan.maybe_raise("task_error", "s")
        with pytest.raises(WorkerCrash):
            plan.maybe_raise("worker_crash", "s")
        with pytest.raises(ReplicaUnavailable):
            plan.maybe_raise("replica_down", "s")
        with pytest.raises(TransientError):
            plan.maybe_raise("serve_error", "s")
        with pytest.raises(TransientError):
            plan.maybe_raise("refresh_fail", "s")

    def test_scope_tokens_are_monotone_and_fresh(self):
        plan = FaultPlan(seed=0)
        assert plan.scope("sched") == "sched#1"
        assert plan.scope("sched") == "sched#2"
        assert plan.scope("serve") == "serve#3"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(ValueError):
            FaultPlan(0).arm("task_error", rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(0).arm("slow_worker", latency=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(0).arm("replica_down", duration=-1)

    def test_chaos_and_no_faults(self):
        plan = FaultPlan.chaos(seed=1, rate=0.2)
        assert plan.arms("task_error") and plan.arms("worker_crash")
        assert plan.arms("slow_worker")
        assert not plan.arms("replica_down")
        empty = FaultPlan(seed=0)
        assert empty.decide("task_error", "anything", index=0) is None
        empty.maybe_raise("worker_crash", "anything")  # no-op

    def test_retryable_classifier(self):
        assert is_retryable(TransientError("x"))
        assert is_retryable(WorkerCrash("x"))
        assert is_retryable(ReplicaUnavailable("x"))  # a TransientError
        assert not is_retryable(DeadlineExceeded("x"))
        assert not is_retryable(ExecutionError("x"))
        assert not is_retryable(KeyboardInterrupt())


# -- fault-sweep parity: the headline invariant ------------------------------


def _chaos_db(rows: int = 300, **connect):
    db = repro.connect(**connect)
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT)")
    heap = db.catalog.table("t")
    for i in range(rows):
        heap.insert((i, f"g{i % 9}", float(i) * 0.25))
    db.execute("ANALYZE")
    return db


SWEEP_QUERIES = [
    "SELECT * FROM t",
    "SELECT grp, count(*), sum(v), avg(v) FROM t GROUP BY grp",
    "SELECT id, v FROM t WHERE v > 20.0 ORDER BY v DESC",
    # a cross join with a filter over the pair: the cross runs in the
    # left side's scan tasks
    "SELECT a.id, b.id FROM t a, t b WHERE a.v > b.v AND b.grp = 'g3'",
]

TASK_KINDS = ("task_error", "worker_crash", "slow_worker", "slow_node")


def _compute(stats):
    """Charged seconds per category, injected latency aside — a pure
    function of the charge sequence (``charged_by_category``)."""
    return {category: seconds
            for category, seconds in stats["charged_by_category"].items()
            if category != "fault-slow"}


class TestFaultSweepParity:
    """Chaos at workers 1/2/4 never changes a single bit of the answer.
    The subclasses below re-run every test on the other spelling of the
    one placed scheduler."""

    #: engine, executor knobs, connect options
    engine, knobs, connect = "parallel", {}, {}

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("sql", SWEEP_QUERIES)
    def test_recovered_results_bit_identical(self, sql, workers):
        engine, knobs = self.engine, self.knobs
        db = _chaos_db(**self.connect)
        plan_node = db.planner.plan_select(parse(sql))

        def run(faults=None):
            return Executor(db.catalog, db.clock, engine=engine,
                            workers=workers, morsel_rows=32, faults=faults,
                            retry_limit=6, **knobs).run(plan_node)

        expected = run()
        # every task kind at once: rows survive, every injected failure
        # is a counted recovery
        chaos = FaultPlan.chaos(FAULT_SEED, rate=0.08, latency=1e-4,
                                kinds=TASK_KINDS)
        result = run(chaos)
        assert _typed(result.rows) == _typed(expected.rows)
        stats = result.extra[engine]
        injected = chaos.counts()
        assert stats["task_retries"] == injected.get("task_error", 0)
        assert stats["crashes_recovered"] == injected.get("worker_crash", 0)
        assert stats["tasks"] == expected.extra[engine]["tasks"]
        # without crashes (whose lost attempts keep their charges) the
        # compute charges are the fault-free run's, bit for bit: a task
        # error strikes before the work, latency lands in its own category
        mild = FaultPlan.chaos(
            FAULT_SEED, rate=0.2, latency=1e-4,
            kinds=("task_error", "slow_worker", "slow_node"))
        result = run(mild)
        assert mild.count() > 0, "chaos plan never fired; raise the rate"
        assert _typed(result.rows) == _typed(expected.rows)
        assert _compute(result.extra[engine]) \
            == _compute(expected.extra[engine])

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_scheduled_fault_fires_and_is_recovered(self, kind):
        """Every task fault kind acts on both spellings: armed on morsel
        1 of each phase, it fires, rows stay the fault-free run's and —
        a crash's re-run aside — so do the compute charges."""
        engine, knobs = self.engine, self.knobs
        db = _chaos_db(**self.connect)
        plan_node = db.planner.plan_select(parse(SWEEP_QUERIES[1]))

        def run(faults=None):
            return Executor(db.catalog, db.clock, engine=engine, workers=2,
                            morsel_rows=32, faults=faults, retry_limit=2,
                            **knobs).run(plan_node)

        clean = run()
        plan = FaultPlan(FAULT_SEED).arm(kind, times=(1,), latency=1e-3)
        faulty = run(plan)
        assert plan.count(kind) >= 1
        assert _typed(faulty.rows) == _typed(clean.rows)
        stats, base = faulty.extra[engine], clean.extra[engine]
        assert stats["task_retries"] == plan.count("task_error")
        assert stats["crashes_recovered"] == plan.count("worker_crash")
        slow = stats["charged_by_category"].get("fault-slow", 0.0)
        if kind.startswith("slow"):
            assert slow == pytest.approx(1e-3 * plan.count(kind))
            assert stats["virtual_makespan"] > base["virtual_makespan"]
        else:
            assert slow == 0.0
        if kind == "worker_crash":
            assert stats["virtual_charged"] > base["virtual_charged"]
        else:
            assert _compute(stats) == _compute(base)

    def test_retry_limit_is_honoured(self):
        engine, knobs = self.engine, self.knobs
        db = _chaos_db(**self.connect)
        plan_node = db.planner.plan_select(parse(SWEEP_QUERIES[0]))
        always = FaultPlan(FAULT_SEED).arm("task_error", rate=1.0)
        executor = Executor(db.catalog, db.clock, engine=engine,
                            faults=always, retry_limit=2, **knobs)
        with pytest.raises(TransientError):
            executor.run(plan_node)
        assert always.count("task_error") == 3   # 1 attempt + 2 retries

    def test_injected_multiset_independent_of_worker_count(self):
        """The same seed injects the same faults at workers 1, 2, and 4 —
        the worker count cannot perturb the chaos."""
        engine, knobs = self.engine, self.knobs
        counts = []
        for workers in (1, 2, 4):
            db = _chaos_db(**self.connect)
            plan_node = db.planner.plan_select(parse(SWEEP_QUERIES[1]))
            chaos = FaultPlan.chaos(FAULT_SEED, rate=0.15, latency=1e-4)
            Executor(db.catalog, db.clock, engine=engine,
                     workers=workers, morsel_rows=32, faults=chaos,
                     retry_limit=8, **knobs).run(plan_node)
            counts.append(chaos.counts())
        assert counts[0] == counts[1] == counts[2]

    def test_recovery_cost_is_charged(self):
        """Crashed attempts keep their charges: a chaotic run charges
        strictly more virtual time than the fault-free run, and the
        makespan models the shrunken worker pool."""
        engine, knobs = self.engine, self.knobs
        db = _chaos_db(**self.connect)
        plan_node = db.planner.plan_select(parse(SWEEP_QUERIES[0]))
        clean = Executor(db.catalog, db.clock, engine=engine,
                         workers=4, **knobs).run(plan_node)
        chaos = FaultPlan(seed=FAULT_SEED).arm("worker_crash", times=(0,))
        faulty = Executor(db.catalog, db.clock, engine=engine,
                          workers=4, faults=chaos,
                          retry_limit=4, **knobs).run(plan_node)
        assert chaos.count("worker_crash") >= 1
        assert faulty.virtual_seconds > clean.virtual_seconds
        assert (faulty.extra[engine]["virtual_makespan"]
                >= clean.extra[engine]["virtual_makespan"])


class TestFaultSweepParityDistributedOneNode(TestFaultSweepParity):
    engine, knobs, connect = "distributed", {"nodes": 1}, {}


class TestFaultSweepParityDistributedSharded(TestFaultSweepParity):
    """Four nodes over four shards: real exchanges under the recovery."""
    engine, knobs, connect = "distributed", {"nodes": 4}, {"shards": 4}


# -- scheduler recovery mechanics --------------------------------------------


def _scheduler(clock=None, nodes=1, **knobs):
    return DistributedScheduler(clock if clock is not None else SimClock(),
                                nodes=nodes, **knobs)


def _map(sched, items, fn):
    """One phase over ``items``, spread round-robin over the nodes."""
    units = [(i % sched.nodes, item) for i, item in enumerate(items)]
    return [result for _, result in sched.dispatch(units, fn)]


class TestSchedulerRecovery:
    def test_scheduled_crash_is_recovered(self):
        plan = FaultPlan(seed=0).arm("worker_crash", times=(2,))
        sched = _scheduler(workers=3, faults=plan)
        out = _map(sched, list(range(8)), lambda item, shard: item * 10)
        assert out == [i * 10 for i in range(8)]
        assert sched.crashes_recovered == 1
        assert sched.finish()["crashes_recovered"] == 1

    def test_slow_worker_charges_latency(self):
        plan = FaultPlan(seed=0).arm("slow_worker", times=(1,),
                                     latency=0.5)
        clock = SimClock()
        sched = _scheduler(clock, workers=2, faults=plan)
        _map(sched, [0, 1, 2], lambda item, shard: item)
        sched.finish()
        assert clock.breakdown().get("fault-slow") == pytest.approx(0.5)

    def test_crash_removes_a_lane_from_its_node_only(self):
        """Four 1s tasks on 2 nodes x 2 workers; morsel 0 (node 0)
        crashes once: node 0 runs its three attempts on the one
        surviving lane (3s), node 1 its two on two lanes (1s)."""
        plan = FaultPlan(seed=0).arm("worker_crash", times=(0,))
        sched = _scheduler(nodes=2, workers=2, faults=plan)
        _map(sched, list(range(4)),
             lambda item, tclock: tclock.advance(1.0, "work"))
        stats = sched.finish()
        assert stats["virtual_charged"] == pytest.approx(5.0)
        assert stats["virtual_makespan"] == pytest.approx(3.0)
        busy = [node["busy_seconds"] for node in stats["per_node"]]
        assert busy == [pytest.approx(3.0), pytest.approx(1.0)]

    def test_retry_budget_exhaustion_raises_transient(self):
        plan = FaultPlan(seed=0).arm("task_error", rate=1.0)
        sched = _scheduler(workers=2, faults=plan, retry_limit=3)
        with pytest.raises(TransientError):
            _map(sched, [0, 1], lambda item, shard: item)
        # the budget was spent before giving up
        assert sched.task_retries == 3

    def test_zero_retry_limit_escalates_immediately(self):
        plan = FaultPlan(seed=0).arm("task_error", times=(0,))
        sched = _scheduler(workers=2, faults=plan, retry_limit=0)
        with pytest.raises(TransientError):
            _map(sched, [0, 1], lambda item, shard: item)
        assert sched.task_retries == 0

    def test_non_retryable_errors_are_not_retried(self):
        sched = _scheduler(workers=2, retry_limit=5)

        def boom(item, shard):
            raise ExecutionError("real bug, not chaos")

        with pytest.raises(ExecutionError):
            _map(sched, [0, 1, 2], boom)
        assert sched.task_retries == 0

    def test_failing_morsel_stops_the_phase_at_any_worker_count(self):
        """A non-retryable error in morsel ``k`` surfaces as itself with
        morsels ``0..k`` run and charged, none past ``k`` started and the
        phase closed over them — the same clock reading at every
        ``workers``, on one node and on four."""
        readings = []
        for nodes, workers in product((1, 4), (1, 2, 4, 8)):
            clock = SimClock()
            sched = _scheduler(clock, nodes=nodes, workers=workers,
                               retry_limit=5)
            ran = []

            def task(item, shard):
                ran.append(item)
                shard.advance(0.001 * (item + 1), "scan")
                if item == 5:
                    raise ExecutionError(f"morsel {item} is broken")
                return item

            try:
                with pytest.raises(ExecutionError, match="morsel 5"):
                    _map(sched, list(range(12)), task)
            finally:
                stats = sched.finish()
            assert ran == [0, 1, 2, 3, 4, 5]
            assert stats["task_retries"] == 0
            # the phase was closed: its tasks are on the modeled timeline
            assert stats["phases"] == 1
            assert sum(node["compute_seconds"]
                       for node in stats["per_node"]) == pytest.approx(0.021)
            assert 0.006 <= stats["virtual_makespan"] <= 0.021 + 1e-12
            if nodes == workers == 1:
                assert stats["virtual_makespan"] == pytest.approx(0.021)
            readings.append((clock.now, clock.breakdown()))
        assert readings[0][0] == pytest.approx(0.021)
        assert all(reading == readings[0] for reading in readings)

    def test_keyboard_interrupt_propagates_immediately(self):
        """The dispatch loop must re-raise KeyboardInterrupt/SystemExit as
        themselves — never swallowed into task-failure handling, never
        retried."""
        sched = _scheduler(workers=2, retry_limit=5)

        def interrupted(item, shard):
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            _map(sched, list(range(4)), interrupted)
        assert sched.task_retries == 0

    def test_budget_exhaustion_not_swallowed_by_fault_retries(self):
        """BudgetExceeded is not retryable: a fault-armed run under a
        too-small budget must still stop at the phase boundary."""
        db = _chaos_db(rows=2000)
        sql = "SELECT id, v FROM t ORDER BY v DESC"
        plan_node = db.planner.plan_select(parse(sql))
        full = Executor(db.catalog, db.clock, engine="parallel",
                        workers=4).run(plan_node)
        start = db.clock.now
        db.clock.set_limit(start + full.virtual_seconds * 0.3)
        try:
            with pytest.raises(BudgetExceeded):
                Executor(db.catalog, db.clock, engine="parallel",
                         workers=4,
                         faults=FaultPlan.chaos(FAULT_SEED, rate=0.1),
                         retry_limit=4).run(plan_node)
        finally:
            db.clock.set_limit(None)


# -- replicated storage -------------------------------------------------------


def _replicated(clock=None, faults=None):
    schema = TableSchema("orders", [Column("id", DataType.INT),
                                    Column("qty", DataType.INT)])
    return ReplicatedTable(schema, clock=clock, faults=faults)


class TestReplicatedTable:
    def test_copies_stay_bit_identical(self):
        table = _replicated()
        rids = [table.insert((i, i * 2)) for i in range(50)]
        table.update(rids[3], (3, 99))
        table.delete(rids[7])
        assert (_typed([r for _, r in table.primary.scan()])
                == _typed([r for _, r in table.backup.scan()]))
        # record ids are identical across copies by construction
        assert ([rid for rid, _ in table.primary.scan()]
                == [rid for rid, _ in table.backup.scan()])
        assert table.lsn == 52  # 50 inserts + update + delete

    def test_failover_scan_is_bit_identical(self):
        table = _replicated()
        rids = [table.insert((i, i)) for i in range(20)]
        before = _typed([r for _, r in table.scan()])
        table.mark_down(PRIMARY, ops=1000)
        assert table.active_node() == BACKUP
        assert _typed([r for _, r in table.scan()]) == before
        # rids stay valid across the failover
        assert table.read(rids[5]) == (5, 5)

    def test_missed_writes_resync_in_lsn_order(self):
        table = _replicated()
        for i in range(5):
            table.insert((i, i))
        table.mark_down(PRIMARY, ops=1000)
        for i in range(5, 10):
            table.insert((i, i))           # applied to backup only
        assert table.status()["missed"][PRIMARY] == 5
        table.recover(PRIMARY)
        assert table.status()["missed"][PRIMARY] == 0
        assert table.resynced_writes == 5
        assert (_typed([r for _, r in table.primary.scan()])
                == _typed([r for _, r in table.backup.scan()]))

    def test_outage_elapses_then_resyncs(self):
        table = _replicated()
        table.insert((0, 0))
        table.mark_down(PRIMARY, ops=2)
        table.insert((1, 1))
        table.insert((2, 2))
        assert table.status()["down"] == [PRIMARY]
        table.insert((3, 3))   # outage elapsed: resync happened first
        assert table.status()["down"] == []
        assert table.resyncs == 1
        assert (_typed([r for _, r in table.primary.scan()])
                == _typed([r for _, r in table.backup.scan()]))

    def test_both_down_raises_retryable(self):
        table = _replicated()
        table.insert((0, 0))
        table.mark_down(PRIMARY, ops=1000)
        table.mark_down(BACKUP, ops=1000)
        with pytest.raises(ReplicaUnavailable) as exc_info:
            table.read(None)
        assert is_retryable(exc_info.value)
        assert table.status()["active"] == "none"

    def test_failover_and_resync_charge_the_clock(self):
        clock = SimClock()
        table = _replicated(clock=clock)
        table.insert((0, 0))
        table.mark_down(PRIMARY, ops=1)
        table.insert((1, 1))
        table.insert((2, 2))   # outage elapsed -> resync
        breakdown = clock.breakdown()
        assert breakdown.get("replicate", 0) > 0
        assert breakdown.get("failover", 0) > 0
        assert breakdown.get("resync", 0) > 0

    def test_fault_driven_outages_are_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed).arm("replica_down", rate=0.05,
                                       duration=2)
            table = _replicated(faults=plan)
            for i in range(100):
                table.insert((i, i))
            rows = _typed([r for _, r in table.scan()])
            return rows, table.status()["failovers"], plan.counts()

        rows_a, fails_a, counts_a = run(11)
        rows_b, fails_b, counts_b = run(11)
        assert (rows_a, fails_a, counts_a) == (rows_b, fails_b, counts_b)
        # and the rows equal a fault-free table's rows
        clean = _replicated()
        for i in range(100):
            clean.insert((i, i))
        assert rows_a == _typed([r for _, r in clean.scan()])

    def test_mark_down_validation(self):
        table = _replicated()
        with pytest.raises(ValueError):
            table.mark_down(PRIMARY, ops=0)
        with pytest.raises(ValueError):
            table.mark_down("coordinator")
        with pytest.raises(ValueError):
            table.recover("quorum")

    @staticmethod
    def _typed_replicated(faults=None):
        schema = TableSchema("events", [
            Column("id", DataType.INT),
            Column("tag", DataType.TEXT),      # dictionary-coded at rest
            Column("flag", DataType.BOOL),
            Column("v", DataType.FLOAT),       # NULLs + NaN payloads
        ])
        return ReplicatedTable(schema, faults=faults)

    @classmethod
    def _typed_churn(cls, table, seed):
        """A deterministic insert/update/delete stream over every typed
        column kind: int64, dictionary strings, bools, floats with NULL
        and NaN holes."""
        rng = np.random.default_rng(seed)
        rids = []
        for i in range(160):
            v = [1.5, float("nan"), None, float(i)][i % 4]
            rids.append(table.insert(
                (i, f"tag-{i % 6}", bool(i % 3 == 0), v)))
            roll = rng.random()
            if roll < 0.12 and rids:
                table.delete(rids.pop(int(rng.integers(len(rids)))))
            elif roll < 0.24 and rids:
                rid = rids[int(rng.integers(len(rids)))]
                table.update(rid, (i + 1000, None, False, -v if v else v))

    def test_typed_chaos_resyncs_bit_identical(self):
        """Seeded replica_down chaos over a table exercising every typed
        column layout: after recovery, the typed page state — data
        arrays, validity bitmaps, dictionaries, record ids — is
        bit-identical across copies (``copies_identical``), and the
        surviving rows equal a fault-free twin's."""
        plan = FaultPlan(FAULT_SEED).arm("replica_down", rate=0.06,
                                         duration=3)
        table = self._typed_replicated(faults=plan)
        self._typed_churn(table, seed=FAULT_SEED + 17)
        assert plan.counts().get("replica_down", 0) > 0, \
            "chaos plan never fired; raise the rate"
        table.recover(PRIMARY)
        table.recover(BACKUP)
        assert table.status()["missed"] == {PRIMARY: 0, BACKUP: 0}
        assert table.copies_identical()

        clean = self._typed_replicated()
        self._typed_churn(clean, seed=FAULT_SEED + 17)
        assert clean.copies_identical()
        want = [tuple(repr(v) for v in r) for _, r in clean.scan()]
        assert [tuple(repr(v) for v in r)
                for _, r in table.scan()] == want

    def test_copies_identical_detects_divergence(self):
        table = self._typed_replicated()
        for i in range(30):
            table.insert((i, f"t{i % 4}", bool(i % 2), i / 3.0))
        assert table.copies_identical()
        # write past replication (simulated divergence): detected
        table.backup.insert((999, "rogue", True, 0.0))
        assert not table.copies_identical()

    def test_typed_scan_identical_through_worker_crash_chaos(self):
        """worker_crash chaos over a replicated typed table: the morsel
        scheduler's retries return rows bit-identical to a fault-free
        run, and the table's copies stay bit-identical underneath."""
        db = repro.connect(replication=True)
        db.execute("CREATE TABLE events (id INT, tag TEXT, flag BOOL, "
                   "v FLOAT)")
        heap = db.catalog.table("events")
        for i in range(120):
            heap.insert((i, f"tag-{i % 6}", bool(i % 3 == 0),
                         None if i % 7 == 0 else i / 11.0))
        db.execute("ANALYZE")
        sql = ("SELECT tag, count(*), sum(v) FROM events "
               "WHERE flag = TRUE OR v > 2 GROUP BY tag")
        plan_free = db.planner.plan_select(parse(sql))
        expected = Executor(db.catalog, db.clock, engine="parallel",
                            workers=4, morsel_rows=16).run(plan_free)
        chaos = FaultPlan(FAULT_SEED).arm("worker_crash", rate=0.1)
        for workers in (1, 2, 4):
            got = Executor(db.catalog, db.clock, engine="parallel",
                           workers=workers, morsel_rows=16,
                           faults=chaos, retry_limit=50).run(plan_free)
            assert _typed(got.rows) == _typed(expected.rows)
        assert heap.copies_identical()


class TestReplicatedDb:
    def test_query_parity_under_replication_and_outages(self):
        def fill(db):
            db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT)")
            heap = db.catalog.table("t")
            for i in range(200):
                heap.insert((i, f"g{i % 5}", float(i)))
            db.execute("ANALYZE")

        sql = "SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY grp"
        plain = repro.connect()
        fill(plain)
        expected = _typed(plain.execute(sql).rows)

        replicated = repro.connect(replication=True)
        fill(replicated)
        assert replicated.catalog.table("t").replicated
        assert _typed(replicated.execute(sql).rows) == expected

        plan = FaultPlan(FAULT_SEED).arm("replica_down", rate=0.02,
                                         duration=3)
        chaotic = repro.connect(replication=True, faults=plan,
                                retry_policy=2)
        fill(chaotic)
        assert _typed(chaotic.execute(sql).rows) == expected

    def test_shards_and_replication_compose(self):
        """``connect(shards=4, replication=True)`` honours both knobs:
        four shards, each a primary/backup pair, reads failing over."""
        db = repro.connect(shards=4, replication=True)
        db.execute("CREATE TABLE t (id INT UNIQUE, v FLOAT)")
        db.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i * 0.5})" for i in range(40)))
        table = db.catalog.table("t")
        assert table.shard_count == 4 and table.replicated
        assert all(isinstance(shard, ReplicatedTable)
                   for shard in table.shard_tables)
        expected = [(i, i * 0.5) for i in range(40)]
        table.shard_tables[1].mark_down(PRIMARY, ops=1000)
        assert table.shard_tables[1].active_node() == BACKUP
        assert db.execute("SELECT * FROM t ORDER BY id").rows == expected
        db.execute("INSERT INTO t VALUES (40, 20.0)")     # written once...
        table.recover(PRIMARY)                            # ...replayed here
        assert table.copies_identical()
        assert db.execute("SELECT * FROM t ORDER BY id").rows == \
            expected + [(40, 20.0)]

    def test_drop_table_evicts_backup_pages(self):
        db = repro.connect(replication=True)
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        table = db.catalog.table("t")
        backup = table.backup.name
        list(table.backup.scan())   # make the backup's page resident
        assert db.buffer_pool.resident_pages > 0
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")
        # nothing of the backup was left behind for a later evict to find
        assert db.buffer_pool.evict_table(backup) == 0


# -- serving robustness -------------------------------------------------------


REVIEW_SQL = ("PREDICT VALUE OF score FROM review "
              "WHERE brand_name = 'special goods' "
              "TRAIN ON f1, f2 WITH brand_name <> 'special goods'")


def _review_db(**connect_kwargs):
    db = repro.connect(**connect_kwargs)
    db.execute("CREATE TABLE review (rid INT UNIQUE, brand_name TEXT, "
               "f1 FLOAT, f2 FLOAT, score FLOAT)")
    rng = np.random.default_rng(0)
    for i in range(120):
        brand = "special goods" if i % 5 == 0 else "acme"
        f1, f2 = float(rng.random()), float(rng.random())
        score = "NULL" if i % 5 == 0 else f"{3 * f1 - 2 * f2 + 1:.4f}"
        db.execute(f"INSERT INTO review VALUES ({i}, '{brand}', "
                   f"{f1:.4f}, {f2:.4f}, {score})")
    db.execute("ANALYZE")
    return db


class TestServingRobustness:
    def test_serve_error_retried_bit_identical(self):
        baseline = _review_db()
        server0 = PredictServer(baseline)
        clean = server0.submit(REVIEW_SQL)
        server0.drain()

        plan = FaultPlan(seed=3).arm("serve_error", times=(0,))
        db = _review_db()
        server = PredictServer(db, faults=plan)
        request = server.submit(REVIEW_SQL)
        server.drain()
        assert request.error is None
        assert request.retries == 1
        assert _typed(request.result.rows) == _typed(clean.result.rows)
        # the retry cost shows up in modeled latency (backoff + re-run)
        assert request.latency > clean.latency
        stats = server.stats()
        assert stats["batch_retries"] == 1
        assert stats["faults_injected"] == {"serve_error": 1}

    def test_batch_retry_budget_exhaustion(self):
        """``1 + max_retries`` attempts, whatever the database's statement
        policy: a batch calls the predict pipeline directly, so the two
        budgets do not nest."""
        plan = FaultPlan(seed=3).arm("serve_error", rate=1.0)
        db = _review_db(retry_policy=5)
        server = PredictServer(db, faults=plan,
                               retry_policy=repro.RetryPolicy(max_retries=2))
        request = server.submit(REVIEW_SQL)
        server.drain()
        assert request.error is not None
        assert "serve_error" in request.error
        assert request.retries == 2
        assert plan.count("serve_error") == 1 + 2
        assert db.query_retries == 0
        assert server.stats()["batch_retries"] == 2
        assert server.stats()["failed"] == 1

    def test_deadline_missed_mid_batch(self):
        db = _review_db()
        server = PredictServer(db)
        ok = server.submit(REVIEW_SQL, at=0.0)
        doomed = server.submit(REVIEW_SQL, at=0.0, deadline=1e-9)
        server.drain()
        assert ok.error is None
        assert doomed.error is not None
        assert "DeadlineExceeded" in doomed.error
        assert doomed.result is None
        assert server.stats()["deadline_misses"] == 1

    def test_deadline_expired_before_service(self):
        db = _review_db()
        server = PredictServer(db)
        first = server.submit(REVIEW_SQL, at=0.0)
        # arrives during the first batch's service, expires before the
        # lane frees: failed at zero cost, never executed
        late = server.submit(REVIEW_SQL, at=1e-6, deadline=1e-6)
        server.drain()
        assert first.error is None
        assert late.error is not None and "before service" in late.error
        assert server.stats()["deadline_misses"] == 1
        # zero-cost completion: no charges for the expired request
        assert late.started_at == late.completed_at

    def test_no_deadline_means_no_misses(self):
        db = _review_db()
        server = PredictServer(db)
        for _ in range(3):
            server.submit(REVIEW_SQL)
        served = server.drain()
        assert all(r.error is None for r in served)
        assert server.stats()["deadline_misses"] == 0

    def test_refresh_failure_rearms_with_backoff(self):
        plan = FaultPlan(seed=1).arm("refresh_fail", times=(1,))
        db = _review_db()
        server = PredictServer(db, faults=plan)
        request = server.submit(REVIEW_SQL)
        server.drain()
        assert request.error is None
        server.refresh_now("review", "score")
        server.drain()
        statuses = [(t.attempt, t.status) for t in server.refreshes]
        assert statuses == [(0, "failed"), (1, "done")]
        failed, retried = server.refreshes
        # the retry waits out the backoff on the refresh lane
        assert retried.enqueued_at > failed.completed_at
        assert retried.started_at >= retried.enqueued_at
        stats = server.stats()
        assert stats["refresh_failed"] == 1
        assert stats["refresh_retries"] == 1

    def test_refresh_retry_budget_exhaustion_keeps_serving(self):
        plan = FaultPlan(seed=1).arm("refresh_fail", rate=1.0)
        db = _review_db(retry_policy=5)   # never nests with a refresh
        server = PredictServer(db, faults=plan)
        request = server.submit(REVIEW_SQL)
        server.drain()
        pinned = server.serving_version(request.model_name)
        server.refresh_now("review", "score")
        server.drain()
        # the original + REFRESH_RETRY's retries, all failed; no infinite
        # loop
        budget = REFRESH_RETRY.max_retries
        assert [t.status for t in server.refreshes] == ["failed"] * (1 + budget)
        assert plan.count("refresh_fail") == 1 + budget
        assert server.stats()["refresh_retries"] == budget
        assert db.query_retries == 0
        # serving is still alive on the pinned version
        again = server.submit(REVIEW_SQL)
        server.drain()
        assert again.error is None
        assert server.serving_version(request.model_name) == pinned

    def test_failed_refresh_then_recovery_swaps_eventually(self):
        """Mid-refresh fault: the retry succeeds, and the swap still
        happens at a later batch boundary — the drift loop stays alive."""
        plan = FaultPlan(seed=1).arm("refresh_fail", times=(1,))
        db = _review_db()
        server = PredictServer(db, faults=plan)
        first = server.submit(REVIEW_SQL)
        server.drain()
        v0 = server.serving_version(first.model_name)
        server.refresh_now("review", "score")
        server.drain()
        done = [t for t in server.refreshes if t.status == "done"]
        assert len(done) == 1 and done[0].attempt == 1
        # push the serving timeline past the refresh completion
        last = None
        for at in range(1, 60):
            last = server.submit(REVIEW_SQL,
                                 at=float(at) * max(first.latency, 1e-3))
            server.drain()
            if last.model_version != v0:
                break
        assert last.model_version == done[0].version_after
        assert server.stats()["refreshes_swapped"] == 1

    def test_stats_surface_trigger_errors(self):
        """A drift trigger that raises must not take the metric pipeline
        down — but it must not vanish either: it lands in
        ``Monitor.trigger_errors``, ``PredictServer.stats()``, and
        ``NeurDB.warnings()``."""
        db = _review_db()
        server = PredictServer(db)
        server.submit(REVIEW_SQL)
        server.drain()

        def bad_trigger(event):
            raise RuntimeError("observer bug")

        db.monitor.register("test:metric", window=2)
        db.monitor.on_drift("test:metric", bad_trigger)
        for value in (1.0, 1.0, 1.0, 1.0, 100.0):
            db.monitor.observe("test:metric", value)
        assert db.monitor.trigger_errors
        assert server.stats()["trigger_errors"] == \
            len(db.monitor.trigger_errors)
        assert any("observer bug" in w for w in db.warnings())

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PredictServer(repro.connect(), default_deadline=0.0)


# -- Db-level retry policy ----------------------------------------------------


# a statement with fault sites: a scan the parallel engine runs as morsel
# tasks (PREDICT's feed is a plain streaming scan with none)
BRAND_SQL = ("SELECT brand_name, count(*), sum(f1) FROM review "
             "GROUP BY brand_name")


class TestDbRetryPolicy:
    def test_policy_shorthand(self):
        assert repro.RetryPolicy(max_retries=3).max_retries == 3
        db = repro.connect(retry_policy=4)
        assert db.retry_policy == repro.RetryPolicy(max_retries=4)

    def test_transient_query_failures_are_retried(self):
        """Seed 12 makes the first scheduler scope fail under a 0.5
        task_error rate with no scheduler-level retries, so the failure
        escalates to the Db retry loop — which re-runs the statement
        (fresh fault scope) until it succeeds, bit-identical to the
        fault-free answer."""
        plan = FaultPlan(seed=12).arm("task_error", rate=0.5)
        db = _review_db(faults=plan, engine="parallel",
                        retry_policy=repro.RetryPolicy(max_retries=20,
                                                       backoff=1e-4))
        db.executor.retry_limit = 0
        result = db.execute(BRAND_SQL)
        assert db.query_retries >= 1
        assert "retry-backoff" in db.clock.breakdown()
        assert any("TransientError" in w for w in db.warnings())

        clean = _review_db(engine="parallel").execute(BRAND_SQL)
        assert _typed(result.rows) == _typed(clean.rows)

    def test_retry_budget_exhaustion_raises(self):
        # a scheduled fault re-fires for every fresh scheduler scope, so
        # with no scheduler retries the statement can never succeed
        plan = FaultPlan(seed=0).arm("task_error", times=(0,))
        db = _review_db(faults=plan, engine="parallel", retry_policy=2)
        db.executor.retry_limit = 0
        with pytest.raises(TransientError):
            db.execute(BRAND_SQL)
        assert db.query_retries == 2
        assert len(db.warnings()) == 2

    def test_no_policy_preserves_fail_fast(self):
        plan = FaultPlan(seed=0).arm("task_error", times=(0,))
        db = _review_db(faults=plan, engine="parallel")
        db.executor.retry_limit = 0
        with pytest.raises(TransientError):
            db.execute(BRAND_SQL)
        assert db.query_retries == 0
        assert db.warnings() == []

    def test_predict_is_retried_whole(self):
        """PREDICT's feed has no fault sites of its own; a storage outage
        under it fails the statement, and the policy re-runs all of it."""
        db = _review_db(replication=True, retry_policy=3)
        table = db.catalog.table("review")
        table.mark_down(PRIMARY, ops=1)
        table.mark_down(BACKUP, ops=1)
        result = db.execute(REVIEW_SQL)
        assert db.query_retries == 1
        assert any("ReplicaUnavailable" in w for w in db.warnings())
        clean = _review_db(replication=True).execute(REVIEW_SQL)
        assert _typed(result.rows) == _typed(clean.rows)

    def test_non_retryable_errors_never_retried(self):
        db = repro.connect(retry_policy=5)
        with pytest.raises(Exception):
            db.execute("SELECT * FROM missing_table")
        assert db.query_retries == 0


# -- one RetryPolicy: bad knobs, the nested bound, the seed matrix -----------


@pytest.mark.parametrize("build, error", [
    (lambda: repro.RetryPolicy(max_retries=-1), ValueError),
    (lambda: repro.RetryPolicy(max_retries=2.5), ValueError),
    (lambda: repro.RetryPolicy(max_retries=True), ValueError),
    (lambda: repro.RetryPolicy(backoff=-1.0), ValueError),
    (lambda: repro.RetryPolicy(backoff=float("nan")), ValueError),
    (lambda: repro.RetryPolicy(backoff=float("inf")), ValueError),
    (lambda: repro.connect(retry_policy=-1), ValueError),
    (lambda: repro.connect(retry_policy=True), ValueError),
    (lambda: repro.connect(retry_policy=2.0), TypeError),
    (lambda: repro.connect(retry_policy="2"), TypeError),
    (lambda: PredictServer(repro.connect(), retry_policy=2), TypeError),
    (lambda: _scheduler(workers=2, retry_limit=-1), ValueError),
    (lambda: _scheduler(workers=2, retry_limit=1.5), ValueError),
], ids=["budget-negative", "budget-float", "budget-bool",
        "backoff-negative", "backoff-nan", "backoff-inf",
        "connect-negative", "connect-bool", "connect-float", "connect-str",
        "server-int", "scheduler-negative", "scheduler-float"])
def test_bad_retry_knobs_rejected_at_construction(build, error):
    """Every retry knob is checked where it is built — never at the
    first failure, where a wrong type would hide the failure itself."""
    with pytest.raises(error):
        build()


class TestRetryBudgets:
    """The worst case of the nested loops (docs/faults.md, "Retry
    budgets"): a statement retry re-runs placed tasks whose own budget is
    spent, so a morsel runs at most ``(1 + m) * (1 + r)`` attempts per
    statement.  Serving batches and refreshes do not nest
    (``TestServingRobustness``'s budget-exhaustion tests pin them)."""

    @pytest.mark.parametrize("m, r", [(0, 0), (0, 2), (2, 0), (2, 3),
                                      (1, 5)])
    def test_statement_times_task_budget(self, m, r):
        plan = FaultPlan(FAULT_SEED)
        db = _chaos_db(rows=64, faults=plan, engine="parallel",
                       retry_policy=repro.RetryPolicy(m, backoff=1e-4))
        db.executor.retry_limit = r
        plan.arm("task_error", rate=1.0)
        with pytest.raises(TransientError):
            db.execute(SWEEP_QUERIES[1])
        assert plan.counts()["task_error"] == (1 + m) * (1 + r)
        assert db.query_retries == m

    def test_serving_recovery_reconciles_under_the_seed(self):
        """Seeded ``serve_error`` / ``refresh_fail`` rates (re-rolled by
        the CI ``FAULT_SEED`` matrix): every injected serve error is a
        batch retry or a batch that failed for good, every injected
        refresh failure a failed refresh task, and every answered request
        is bit-identical to the fault-free run's."""
        def run(faults):
            db = _review_db()
            server = PredictServer(db, faults=faults, refresh="manual",
                                   refresh_epochs=1)
            requests = [server.submit(REVIEW_SQL, at=float(i))
                        for i in range(10)]
            server.drain()
            for _ in range(3):
                server.refresh_now("review", "score")
                server.drain()
            return server, requests

        _, clean = run(None)
        plan = (FaultPlan(FAULT_SEED).arm("serve_error", rate=0.3)
                .arm("refresh_fail", rate=0.5))
        server, requests = run(plan)
        stats = server.stats()
        failed_batches = {r.batch_id for r in requests if r.error}
        assert plan.count("serve_error") == \
            stats["batch_retries"] + len(failed_batches)
        assert plan.count("refresh_fail") == stats["refresh_failed"]
        answered = [(r, c) for r, c in zip(requests, clean)
                    if r.error is None]
        assert answered, "every batch failed; lower the rate"
        for request, expected in answered:
            assert _typed(request.result.rows) == _typed(expected.result.rows)
