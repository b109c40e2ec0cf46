"""Sharded distributed execution: exchanges over the modeled network.

The headline invariant (``docs/distributed.md``): at **every** node and
worker count, distributed execution returns bit-identical rows and
bit-identical per-category charged *compute* totals to single-node
execution — scale-out shows up only in the modeled makespan and in the
network categories (``shuffle`` / ``broadcast`` / ``gather`` /
``exchange-msg``), which are exactly zero at one node.

Covered here: NetworkModel unit behavior (pair batching, NIC queueing,
local-transfer elision), the parity sweep across nodes x workers over
hash- and range-partitioned tables (including NaN/NULL shuffle keys),
exchange presence per plan shape, EXPLAIN ANALYZE exchange rendering
with an empty ``(other)`` bucket, per-node metrics gauges, and
``slow_node`` fault injection (targeted skew + seed determinism).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.common import categories as cat
from repro.common.faults import FaultPlan
from repro.common.simtime import CostModel, NetworkModel, SimClock
from repro.exec.distributed import DistributedScheduler, block_bytes
from repro.exec.executor import Executor
from repro.obs.metrics import MetricsRegistry
from repro.plan import logical
from repro.sql import parse
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, DataType, TableSchema
from partial_oracle import payload_bytes, payload_units

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

#: the categories that may (and must only) differ across node counts
NET_CATEGORIES = {cat.SHUFFLE, cat.BROADCAST, cat.GATHER, cat.EXCHANGE_MSG}

DIST_QUERIES = [
    "SELECT count(*) FROM orders",
    "SELECT city, count(*), sum(age) FROM users GROUP BY city ORDER BY city",
    "SELECT item, sum(amount), avg(amount) FROM orders "
    "GROUP BY item ORDER BY item",
    "SELECT name, amount FROM users JOIN orders ON id = uid "
    "WHERE amount > 100 ORDER BY amount DESC, name",
    "SELECT DISTINCT city FROM users ORDER BY city",
    "SELECT name, age FROM users ORDER BY age DESC, name LIMIT 5",
    "SELECT age, count(*) FROM users WHERE age > 25 GROUP BY age ORDER BY age",
    # a cross join with a filter over the pair: the right side broadcast,
    # the left side's shard fragments crossing it
    "SELECT name, oid FROM users, orders WHERE age * 5 > amount "
    "AND item = 'it3'",
]


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


def _reprd(rows):
    """NaN-safe comparison form."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _build_db(shards):
    db = repro.connect(shards=shards)
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, uid INT, amount FLOAT, "
               "item TEXT)")
    for i in range(60):
        db.execute(f"INSERT INTO users VALUES ({i}, 'u{i}', {20 + i % 30}, "
                   f"'c{i % 7}')")
    for i in range(200):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 60}, "
                   f"{round(1.5 * i, 2)}, 'it{i % 11}')")
    return db


@pytest.fixture(scope="module", params=[1, 4], ids=["shards1", "shards4"])
def dist_db(request):
    return _build_db(request.param)


def _run(db, sql, engine, **kw):
    plan = db.planner.plan_select(parse(sql))
    return Executor(db.catalog, db.clock, engine=engine, **kw).run(plan)


def _compute(stats):
    return {k: v for k, v in stats["charged_by_category"].items()
            if k not in NET_CATEGORIES}


class TestNetworkModel:
    def test_local_and_empty_transfers_ship_nothing(self):
        clock = SimClock()
        stats = NetworkModel(4).exchange(
            cat.SHUFFLE, [(0, 0, 500, 10), (2, 2, 80, 4), (1, 3, 0, 0)],
            clock)
        assert stats["messages"] == 0
        assert stats["rows"] == 0
        assert stats["makespan"] == 0.0
        assert clock.now == 0.0

    def test_pair_batching_and_charges(self):
        clock = SimClock()
        stats = NetworkModel(4).exchange(
            cat.SHUFFLE,
            [(1, 0, 100, 10), (1, 0, 50, 5), (2, 0, 30, 3)], clock)
        # two distinct (src, dst) pairs => two round-trip messages
        assert stats["messages"] == 2
        assert stats["rows"] == 18
        assert stats["bytes"] == 180
        per_byte = CostModel.SERIALIZE_PER_BYTE + CostModel.NET_PER_BYTE
        assert stats["seconds"][cat.EXCHANGE_MSG] == pytest.approx(
            2 * CostModel.NET_ROUND_TRIP)
        assert stats["seconds"][cat.SHUFFLE] == pytest.approx(180 * per_byte)
        breakdown = clock.breakdown()
        assert breakdown[cat.EXCHANGE_MSG] == pytest.approx(
            2 * CostModel.NET_ROUND_TRIP)
        assert breakdown[cat.SHUFFLE] == pytest.approx(180 * per_byte)

    def test_nic_contention_queues_and_extends_makespan(self):
        clock = SimClock()
        # both senders target node 0: the second transfer waits on 0's NIC
        stats = NetworkModel(4).exchange(
            cat.GATHER, [(1, 0, 1000, 10), (2, 0, 1000, 10)], clock)
        per_byte = CostModel.SERIALIZE_PER_BYTE + CostModel.NET_PER_BYTE
        one = CostModel.NET_ROUND_TRIP + 1000 * per_byte
        assert stats["makespan"] == pytest.approx(2 * one)
        per_node = stats["per_node"]
        assert per_node[0]["nic_queued"] == 1
        assert per_node[2]["nic_queued"] == 1
        assert per_node[1]["nic_queued"] == 0
        assert per_node[0]["rows_received"] == 20
        assert per_node[1]["rows_sent"] == 10

    def test_disjoint_pairs_overlap(self):
        clock = SimClock()
        stats = NetworkModel(4).exchange(
            cat.SHUFFLE, [(0, 1, 1000, 10), (2, 3, 1000, 10)], clock)
        per_byte = CostModel.SERIALIZE_PER_BYTE + CostModel.NET_PER_BYTE
        one = CostModel.NET_ROUND_TRIP + 1000 * per_byte
        # different NICs: the two messages ride in parallel
        assert stats["makespan"] == pytest.approx(one)


class TestPayloadSizing:
    def test_block_bytes_by_kind(self):
        """16 bytes per value whatever the column's type (typed widths
        would be a modeled-byte change), 8 per row of a zero-width
        block."""
        from repro.exec.batch import RowBlock
        from repro.exec.expr import RowLayout
        from repro.storage.types import DataType
        layout = RowLayout([("t", c) for c in "abcd"], list(DataType))
        block = RowBlock.from_rows(layout, [(1, 1.5, "x", True),
                                            (2, None, "y", False)])
        assert block_bytes(block) == 128
        assert block_bytes(RowBlock.from_rows(layout, [])) == 0
        assert block_bytes(RowBlock.from_rows(RowLayout([], []),
                                              [(), (), ()])) == 24

    def test_payload_units_nested(self):
        assert payload_units(7) == 1
        assert payload_units([1, 2, 3]) == 3
        assert payload_units({"k": (1, 2)}) == 3  # key + two values
        assert payload_bytes([1, 2]) == 16


class TestDistributedParity:
    @pytest.mark.parametrize("sql", DIST_QUERIES)
    def test_rows_and_compute_identical_across_topologies(self, dist_db, sql):
        base = _run(dist_db, sql, "batch")
        ref_compute = None
        for nodes in (1, 2, 4):
            for workers in (1, 2, 4):
                got = _run(dist_db, sql, "distributed", nodes=nodes,
                           workers=workers)
                assert got.columns == base.columns, sql
                assert _typed(got.rows) == _typed(base.rows), \
                    f"{sql} nodes={nodes} workers={workers}"
                stats = got.extra.get("distributed")
                if stats is None:
                    # a LIMIT plan ran the streaming driver: nothing was
                    # dispatched or shipped
                    assert got.virtual_seconds == pytest.approx(
                        base.virtual_seconds, rel=1e-6, abs=1e-9), sql
                    continue
                compute = _compute(stats)
                if ref_compute is None:
                    ref_compute = compute
                else:
                    # bit-identical, not approx: the canonical fold order
                    # makes per-category compute independent of topology
                    assert compute == ref_compute, \
                        f"{sql} nodes={nodes} workers={workers}"
                # network charges live on the session clock (they are
                # scale-out overhead, not compute): zero at one node,
                # and total charged = batch total + network overhead
                if nodes == 1:
                    assert stats["exchange_seconds"] == 0.0, sql
                    assert stats["bytes_on_wire"] == 0, sql
                assert got.virtual_seconds - stats["exchange_seconds"] \
                    == pytest.approx(base.virtual_seconds,
                                     rel=1e-6, abs=1e-9), sql

    def test_exchange_presence_by_shape(self):
        db = _build_db(4)
        stats = _run(db, "SELECT item, count(*) FROM orders GROUP BY item",
                     "distributed", nodes=4).extra["distributed"]
        kinds = {e["kind"] for e in stats["exchanges"]}
        assert cat.SHUFFLE in kinds or cat.GATHER in kinds
        stats = _run(db, "SELECT name, amount FROM users JOIN orders "
                         "ON id = uid", "distributed",
                     nodes=4).extra["distributed"]
        kinds = {e["kind"] for e in stats["exchanges"]}
        assert cat.BROADCAST in kinds  # build side ships to every peer
        assert cat.GATHER in kinds

    @pytest.mark.parametrize("engine, kwargs", [
        ("parallel", {"workers": 2}), ("distributed", {"nodes": 3})])
    def test_cross_join_right_side_folds_after_left(self, monkeypatch,
                                                    engine, kwargs):
        """A cross join's right side runs first (the left side's tasks
        read it), yet its task clocks fold after the left side's: each
        table's scan charges fold in the plan's left-to-right leaf order,
        the order each category summed them in when the join ran on the
        serial lane — nested crosses included."""
        db = repro.connect(shards=3 if engine == "distributed" else None)
        sizes = {"a": 40, "b": 20, "c": 30}
        for name, rows in sizes.items():
            db.execute(f"CREATE TABLE {name} (v INT)")
            table = db.catalog.table(name)
            for i in range(rows):
                table.insert((i,))
        db.execute("ANALYZE")
        folded = []
        fold = DistributedScheduler._fold

        def recording(self, shard, by_category):
            folded.append(shard.breakdown())
            return fold(self, shard, by_category)

        monkeypatch.setattr(DistributedScheduler, "_fold", recording)
        for sql in ("SELECT count(*) FROM a, b",
                    "SELECT count(*) FROM a, b, c"):
            plan = db.planner.plan_select(parse(sql))
            leaves = [sizes[node.table] for node in plan.walk()
                      if isinstance(node, logical.SeqScan)]
            folded.clear()
            got = Executor(db.catalog, db.clock, engine=engine,
                           morsel_rows=8, **kwargs).run(plan)
            assert got.rows == [(int(np.prod(leaves)),)]
            scanned = [round(charges["scan"] / CostModel.TUPLE_CPU)
                       for charges in folded if "scan" in charges]
            # consecutive morsels add up to one leaf's table, leaf by leaf
            sides, run = [], 0
            for rows in scanned:
                run += rows
                if len(sides) < len(leaves) and run == leaves[len(sides)]:
                    sides.append(run)
                    run = 0
            assert sides == leaves and run == 0, sql

    def test_unsharded_table_runs_as_one_pseudo_shard(self):
        db = _build_db(1)
        got = _run(db, "SELECT city, count(*) FROM users GROUP BY city "
                       "ORDER BY city", "distributed", nodes=4)
        base = _run(db, "SELECT city, count(*) FROM users GROUP BY city "
                        "ORDER BY city", "batch")
        assert _typed(got.rows) == _typed(base.rows)
        stats = got.extra["distributed"]
        # one shard lands on node 0; no scan fan-out, so no shuffle
        assert stats["rows_shuffled"] == 0

    def test_range_partition_parity(self):
        db = repro.connect()
        schema = TableSchema("events", [Column("ts", DataType.INT),
                                        Column("val", DataType.FLOAT)])
        table = db.catalog.create_table(schema, partition="ts",
                                        partition_kind="range",
                                        boundaries=[100, 200, 300],
                                        shards=4)
        for i in range(400):
            table.insert((i, round(i * 0.5, 2)))
        sql = "SELECT ts, count(*), sum(val) FROM events " \
              "GROUP BY ts ORDER BY ts"
        base = _run(db, sql, "batch")
        for nodes in (1, 2, 4):
            got = _run(db, sql, "distributed", nodes=nodes, workers=2)
            assert _typed(got.rows) == _typed(base.rows)

    def test_nan_and_null_shuffle_keys(self):
        """NaN and NULL group keys survive the hash repartition: the
        stable-hash router and the partition merge keep them distinct
        and deterministic at every node count."""
        db = repro.connect(shards=4)
        db.execute("CREATE TABLE g (k FLOAT, v FLOAT)")
        table = db.catalog.table("g")
        nan = float("nan")
        values = [1.0, nan, None, -2.5, 0.0, nan, None, 7.25]
        for i in range(200):
            table.insert((values[i % len(values)], float(i)))
        sql = "SELECT k, count(*), sum(v) FROM g GROUP BY k"
        base = _run(db, sql, "batch")
        for nodes in (1, 2, 4):
            got = _run(db, sql, "distributed", nodes=nodes, workers=2)
            assert _reprd(got.rows) == _reprd(base.rows), f"nodes={nodes}"


class TestObservability:
    def test_explain_analyze_renders_exchanges(self):
        db = repro.connect(shards=4, engine="distributed", nodes=4)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        for i in range(300):
            db.execute(f"INSERT INTO t VALUES ({i % 40}, {i}.5)")
        rs = db.execute("EXPLAIN ANALYZE SELECT k, sum(v) FROM t "
                        "GROUP BY k ORDER BY k")
        text = "\n".join(r[0] for r in rs.rows)
        assert "distributed: nodes=4" in text
        assert "exchange" in text
        assert "rows=" in text and "bytes=" in text
        structured = rs.extra["explain"]
        # reconciliation: network charges ran under operator spans, so
        # nothing leaks into the (other) bucket
        assert structured["other"] == {}
        assert structured["distributed"]["nodes"] == 4
        assert any(n["exchanges"] for n in structured["nodes"])

    def test_per_node_metrics_gauges(self):
        db = repro.connect(shards=4, engine="distributed", nodes=4)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        for i in range(200):
            db.execute(f"INSERT INTO t VALUES ({i % 20}, {i}.0)")
        db.execute("SELECT k, sum(v) FROM t GROUP BY k")
        gauges = db.metrics()["gauges"]
        for node in range(4):
            assert f"dist.node.makespan{{node={node}}}" in gauges
            assert f"dist.node.rows_shuffled{{node={node}}}" in gauges
            assert f"dist.node.queue_depth{{node={node}}}" in gauges
        counters = db.metrics()["counters"]
        assert counters.get("dist.exchanges", 0) >= 1

    def test_scheduler_stats_shape(self):
        db = _build_db(4)
        stats = _run(db, "SELECT item, count(*) FROM orders GROUP BY item",
                     "distributed", nodes=4, workers=2).extra["distributed"]
        assert stats["nodes"] == 4
        assert stats["workers"] == 2
        assert len(stats["per_node"]) == 4
        assert stats["virtual_makespan"] <= stats["virtual_charged"]
        assert stats["modeled_speedup"] >= 1.0
        for entry in stats["per_node"]:
            assert set(entry) >= {"node", "tasks", "io_seconds",
                                  "compute_seconds", "busy_seconds",
                                  "rows_sent", "bytes_sent", "nic_queued"}


class TestSlowNode:
    SQL = "SELECT item, count(*), sum(amount) FROM orders " \
          "GROUP BY item ORDER BY item"

    def test_targeted_slow_node_skews_makespan_not_results(self):
        db = _build_db(4)
        base = _run(db, self.SQL, "distributed", nodes=4, workers=2)
        slow = FaultPlan(FAULT_SEED).arm("slow_node", rate=1.0,
                                         target="node1", latency=5e-3)
        got = _run(db, self.SQL, "distributed", nodes=4, workers=2,
                   faults=slow)
        assert _typed(got.rows) == _typed(base.rows)
        b, g = (base.extra["distributed"], got.extra["distributed"])
        assert g["virtual_makespan"] > b["virtual_makespan"]
        # only node 1's busy time inflates; compute accounting still
        # tracks the injected latency as fault-slow, not as real work
        assert g["per_node"][1]["busy_seconds"] \
            > b["per_node"][1]["busy_seconds"]
        for node in (0, 2, 3):
            assert g["per_node"][node]["busy_seconds"] == pytest.approx(
                b["per_node"][node]["busy_seconds"])
        assert _compute(g) != _compute(b)  # FAULT_SLOW shows up
        clean_g = {k: v for k, v in _compute(g).items()
                   if k != cat.FAULT_SLOW}
        assert clean_g == _compute(b)

    def test_seeded_slow_node_rerolls_deterministically(self):
        """Same seed => identical injection sites and identical stats;
        rows stay bit-identical under any seed (CI sweeps FAULT_SEED)."""
        db = _build_db(4)
        base = _run(db, self.SQL, "distributed", nodes=4, workers=2)

        def run_chaos():
            plan = FaultPlan(FAULT_SEED).arm("slow_node", rate=0.3,
                                             latency=1e-3)
            return _run(db, self.SQL, "distributed", nodes=4, workers=2,
                        faults=plan)

        first, second = run_chaos(), run_chaos()
        assert _typed(first.rows) == _typed(base.rows)
        assert _typed(second.rows) == _typed(base.rows)
        # shard-clock folds are bit-reproducible; the makespan embeds a
        # shared-clock delta, so successive runs at different clock
        # offsets may differ in the last ulp
        assert first.extra["distributed"]["charged_by_category"] \
            == second.extra["distributed"]["charged_by_category"]
        assert first.extra["distributed"]["virtual_makespan"] \
            == pytest.approx(
                second.extra["distributed"]["virtual_makespan"],
                rel=1e-12)

    def test_chaos_plan_keeps_parity(self):
        """The everything-at-once chaos configuration with slow_node in
        the mix: results stay bit-identical to the fault-free batch run."""
        db = _build_db(4)
        for sql in DIST_QUERIES:
            base = _run(db, sql, "batch")
            chaos = FaultPlan.chaos(FAULT_SEED, rate=0.2,
                                    kinds=("slow_node",), latency=2e-3)
            got = _run(db, sql, "distributed", nodes=4, workers=2,
                       faults=chaos)
            assert _typed(got.rows) == _typed(base.rows), sql


#: how each integer knob is set, and its minimum
KNOBS = {
    "workers": (lambda v: Executor(Catalog(), engine="parallel",
                                   workers=v), 1),
    "nodes": (lambda v: repro.connect(nodes=v, engine="distributed"), 1),
    "morsel_rows": (lambda v: Executor(Catalog(), morsel_rows=v), 1),
    "retry_limit": (lambda v: Executor(Catalog(), retry_limit=v), 0),
    "num_runtimes": (lambda v: repro.connect(num_runtimes=v), 1),
    "shards": (lambda v: repro.connect(shards=v), 1),
}


class TestSchedulerValidation:
    @pytest.mark.parametrize("bad", ["fraction", "bool", "below_minimum"])
    @pytest.mark.parametrize("knob", sorted(KNOBS))
    def test_integer_knob_rejected_at_construction(self, knob, bad):
        """A fraction, a bool or a value below the minimum is refused
        when the knob is set, before any table exists, by an error that
        names the knob."""
        construct, minimum = KNOBS[knob]
        value = {"fraction": 2.5, "bool": True,
                 "below_minimum": minimum - 1}[bad]
        with pytest.raises((TypeError, ValueError), match=knob):
            construct(value)

    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_per_table_shards_follow_the_same_rule(self, value):
        """``create_table(shards=)`` is checked by the rule that checks
        the catalog default, and refused before the table exists."""
        catalog = Catalog()
        schema = TableSchema("t", [Column("id", DataType.INT)])
        with pytest.raises((TypeError, ValueError), match="shards"):
            catalog.create_table(schema, shards=value)
        assert not catalog.has_table("t")

    def test_numpy_integer_knobs_are_accepted_as_ints(self):
        executor = Executor(Catalog(), engine="parallel",
                            workers=np.int64(3), morsel_rows=np.int32(8),
                            retry_limit=np.int64(0))
        knobs = (executor.workers, executor.morsel_rows,
                 executor.retry_limit)
        assert knobs == (3, 8, 0)
        assert all(type(knob) is int for knob in knobs)

    def test_rejects_bad_topology(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            DistributedScheduler(clock, nodes=0)
        with pytest.raises(ValueError):
            DistributedScheduler(clock, nodes=2, workers=0)
        with pytest.raises(ValueError):
            Executor(None, clock, nodes=0)  # type: ignore[arg-type]

    def test_registry_counts_tasks(self):
        db = _build_db(4)
        registry = MetricsRegistry()
        plan = db.planner.plan_select(
            parse("SELECT count(*) FROM orders"))
        Executor(db.catalog, db.clock, engine="distributed", nodes=2,
                 registry=registry).run(plan)
        snap = registry.snapshot()
        assert snap["counters"].get("exec.tasks", 0) >= 1
