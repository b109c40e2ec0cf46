"""Placed scheduler edge cases and guarantees, at one node
(``engine="parallel"``; tests/test_distributed.py has the many-node ones).

The engines' result parity lives in test_batch_parity.py; this file
exercises the scheduler itself: degenerate morsel shapes (empty tables,
1-row morsels, more workers than morsels), merge of empty partial sets,
determinism across worker counts, the virtual-time invariants
(total == serial total, makespan <= total), and the storage-level morsel
splitting contract.
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.common.faults import FaultPlan
from repro.common.simtime import SimClock
from repro.exec.distributed import DistributedScheduler
from repro.exec.executor import Executor
from repro.serve import PredictServer
from repro.sql import parse

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


def _fresh_db(rows: int = 60):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT)")
    heap = db.catalog.table("t")
    for i in range(rows):
        heap.insert((i, ["a", "b", "c"][i % 3], float(i) * 0.5))
    db.execute("ANALYZE")
    return db


def _run(db, sql, **executor_kwargs):
    plan = db.planner.plan_select(parse(sql))
    return Executor(db.catalog, db.clock, **executor_kwargs).run(plan)


QUERIES = [
    "SELECT * FROM t",
    "SELECT grp, count(*), sum(v), avg(v) FROM t GROUP BY grp",
    "SELECT count(*) FROM t WHERE v > 5.0",
    "SELECT id FROM t WHERE grp = 'a' ORDER BY id",
]


# -- degenerate shapes -------------------------------------------------------

@pytest.mark.parametrize("sql", QUERIES)
def test_empty_table(sql):
    """Zero morsels: scans yield nothing, aggregate merges zero partials."""
    db = _fresh_db(rows=0)
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=4)
    assert _typed(parallel.rows) == _typed(batch.rows)


def test_empty_table_global_aggregate_default_row():
    """A global aggregate over zero rows still yields its default row —
    the merge of an *empty* partial list."""
    db = _fresh_db(rows=0)
    result = _run(db, "SELECT count(*), sum(v) FROM t", engine="parallel")
    assert result.rows == [(0, None)]


@pytest.mark.parametrize("sql", QUERIES)
def test_one_row_morsels(sql):
    """morsel_rows=1: one morsel per row, maximal split/merge traffic."""
    db = _fresh_db(rows=17)
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=3, morsel_rows=1)
    assert parallel.extra["parallel"]["tasks"] >= 17
    assert _typed(parallel.rows) == _typed(batch.rows)
    assert parallel.virtual_seconds == pytest.approx(
        batch.virtual_seconds, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("sql", QUERIES)
def test_more_workers_than_morsels(sql):
    """workers > morsels: idle workers must not corrupt results or time."""
    db = _fresh_db(rows=5)
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=16, morsel_rows=4096)
    assert _typed(parallel.rows) == _typed(batch.rows)
    assert parallel.virtual_seconds == pytest.approx(
        batch.virtual_seconds, rel=1e-6, abs=1e-9)


def test_filter_rejects_everything_before_aggregate():
    """Every morsel filters to empty: the aggregate sees no partials at
    all, but grouped queries emit nothing and global ones their default."""
    db = _fresh_db()
    assert _run(db, "SELECT grp, count(*) FROM t WHERE v < 0 GROUP BY grp",
                engine="parallel", morsel_rows=8).rows == []
    assert _run(db, "SELECT count(*), max(v) FROM t WHERE v < 0",
                engine="parallel", morsel_rows=8).rows == [(0, None)]


# -- determinism -------------------------------------------------------------

def test_deterministic_across_worker_counts():
    """Rows, order, and charged totals are identical for any worker count
    (single-worker inline mode is the reference)."""
    db = _fresh_db(rows=200)
    sql = "SELECT grp, count(*), sum(v) FROM t WHERE v > 1.0 GROUP BY grp"
    plan = db.planner.plan_select(parse(sql))
    reference = None
    for workers in (1, 2, 4, 7):
        executor = Executor(db.catalog, db.clock, engine="parallel",
                            workers=workers, morsel_rows=16)
        start = db.clock.now
        result = executor.run(plan)
        charged = db.clock.now - start
        if reference is None:
            reference = (_typed(result.rows), charged)
        else:
            assert _typed(result.rows) == reference[0]
            assert charged == pytest.approx(reference[1], rel=1e-9)


def test_repeated_runs_identical():
    db = _fresh_db(rows=100)
    sql = "SELECT grp, sum(v) FROM t GROUP BY grp"
    first = _run(db, sql, engine="parallel", workers=4, morsel_rows=8)
    second = _run(db, sql, engine="parallel", workers=4, morsel_rows=8)
    assert _typed(first.rows) == _typed(second.rows)


# -- virtual-time invariants -------------------------------------------------

def test_makespan_bounded_by_charged_total():
    db = _fresh_db(rows=500)
    result = _run(db, "SELECT grp, count(*) FROM t WHERE v > 10 GROUP BY grp",
                  engine="parallel", workers=4, morsel_rows=16)
    stats = result.extra["parallel"]
    assert stats["virtual_makespan"] <= stats["virtual_charged"] + 1e-12
    assert stats["modeled_speedup"] >= 1.0
    # the charged total is what landed on the shared clock
    assert stats["virtual_charged"] == pytest.approx(
        result.virtual_seconds, rel=1e-9)


def test_single_worker_makespan_equals_total():
    db = _fresh_db(rows=200)
    stats = _run(db, "SELECT count(*) FROM t", engine="parallel",
                 workers=1).extra["parallel"]
    assert stats["virtual_makespan"] == pytest.approx(
        stats["virtual_charged"], rel=1e-12)


def test_more_workers_never_slower():
    db = _fresh_db(rows=2000)
    sql = "SELECT grp, sum(v) FROM t WHERE v > 0 GROUP BY grp"
    spans = []
    for workers in (1, 2, 4):
        stats = _run(db, sql, engine="parallel", workers=workers,
                     morsel_rows=64).extra["parallel"]
        spans.append(stats["virtual_makespan"])
    assert spans[0] >= spans[1] >= spans[2]


GROUPED_SQL = "SELECT grp, count(*), sum(v) FROM t GROUP BY grp"


def test_no_thread_is_ever_started(monkeypatch):
    """``workers`` is the W of the makespan model, not a pool size:
    placed tasks run inline, on the statement's own thread, at every
    setting — and so do tracing, the distributed engine over shards,
    fault recovery, PREDICT and a serving drain with its refresh.  This
    is what lets no object under ``src/`` take a lock."""
    def refuse(thread):
        raise AssertionError(f"started a thread: {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    db = _fresh_db(rows=200)
    for sql in (GROUPED_SQL,
                "SELECT id, v FROM t WHERE v > 20.0 ORDER BY v DESC",
                "SELECT a.grp, count(*), sum(b.v) FROM t a JOIN t b "
                "ON a.id = b.id GROUP BY a.grp"):
        batch = _run(db, sql, engine="batch")
        parallel = _run(db, sql, engine="parallel", workers=4,
                        morsel_rows=16)
        assert parallel.extra["parallel"]["tasks"] > 4
        assert parallel.extra["parallel"]["modeled_speedup"] > 1.5
        assert _typed(parallel.rows) == _typed(batch.rows)
        chaos = _run(db, sql, engine="parallel", workers=4, morsel_rows=16,
                     faults=FaultPlan.chaos(seed=1, rate=0.2),
                     retry_limit=8)
        stats = chaos.extra["parallel"]
        assert stats["task_retries"] + stats["crashes_recovered"] > 0
        assert _typed(chaos.rows) == _typed(batch.rows)
    sharded = repro.connect(tracing=True, shards=4, engine="distributed",
                            nodes=4)
    sharded.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT)")
    sharded.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, '{'abc'[i % 3]}', {i * 0.5})" for i in range(200)))
    placed = sharded.execute(GROUPED_SQL)
    assert placed.extra["distributed"]["nodes"] == 4
    assert sharded.tracer.spans_of_kind("task")
    # shard-major scan order: the same groups, in another order
    assert sorted(_typed(placed.rows)) \
        == sorted(_typed(_run(db, GROUPED_SQL, engine="batch").rows))
    ai = repro.connect()
    ai.execute("CREATE TABLE r (id INT UNIQUE, a FLOAT, b FLOAT, y FLOAT)")
    ai.execute("INSERT INTO r VALUES " + ", ".join(
        f"({i}, {i % 7 * 0.25}, {i % 5 * 0.5}, "
        f"{i % 7 * 0.5 - i % 5 * 0.25})" for i in range(150)))
    train = ai.execute("PREDICT VALUE OF y FROM r WHERE id < 10 TRAIN ON *")
    infer = ai.execute("PREDICT VALUE OF y FROM r WHERE id >= 140 "
                       "TRAIN ON *")
    assert len(train.rows) == 10 and len(infer.rows) == 10
    server = PredictServer(ai, refresh_epochs=1)
    served = server.submit("PREDICT VALUE OF y FROM r WHERE id < 10 "
                           "TRAIN ON *")
    server.refresh_now("r", "y")
    server.drain()
    assert served.error is None
    assert [task.status for task in server.refreshes] == ["done"]


def test_no_module_imports_threading():
    """Nothing under ``src/repro`` can start a thread or take a lock."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "_thread")
                   for name in names):
                offenders.append(str(path.relative_to(SRC)))
    assert offenders == []


def test_limit_plans_run_on_serial_lane():
    """LIMIT anywhere => the whole tree runs on the streaming driver:
    nothing dispatched, and the same charges as the batch engine's early
    termination (each engine on its own copy of the table, so the clocks
    start equal)."""
    sql = "SELECT id FROM t WHERE v > 1 LIMIT 3"
    batch_db, parallel_db = _fresh_db(rows=300), _fresh_db(rows=300)
    batch = _run(batch_db, sql, engine="batch")
    parallel = _run(parallel_db, sql, engine="parallel", workers=4,
                    morsel_rows=8)
    assert parallel.rows == batch.rows
    assert parallel.extra == batch.extra
    assert parallel_db.clock.breakdown() == batch_db.clock.breakdown()


# -- the phase model: list scheduling onto the workers ------------------------

def _charge(seconds, category):
    return lambda item, tclock: tclock.advance(seconds, category)


def test_worker_clocks_list_scheduling():
    """Six equal 1s tasks on 2 virtual workers => 3s makespan, 6s total,
    all of it folded into the shared clock under its category."""
    clock = SimClock()
    sched = DistributedScheduler(clock, nodes=1, workers=2)
    sched.dispatch([(0, i) for i in range(6)], _charge(1.0, "work"))
    stats = sched.finish()
    assert stats["virtual_charged"] == pytest.approx(6.0)
    assert stats["virtual_makespan"] == pytest.approx(3.0)
    assert (stats["phases"], stats["tasks"]) == (1, 6)
    assert stats["charged_by_category"] == {"work": pytest.approx(6.0)}
    assert clock.now == pytest.approx(6.0)
    assert clock.category_total("work") == pytest.approx(6.0)


def test_one_worker_makespan_is_the_total():
    sched = DistributedScheduler(SimClock(), nodes=1, workers=1)
    sched.dispatch([(0, i) for i in range(6)], _charge(1.0, "work"))
    stats = sched.finish()
    assert stats["virtual_makespan"] == stats["virtual_charged"] == 6.0


def test_worker_clocks_serial_lane_counts_fully():
    clock = SimClock()
    sched = DistributedScheduler(clock, nodes=1, workers=4)
    sched.lane.advance(2.0, "sort")
    sched.dispatch([(0, None)], _charge(4.0, "scan"))
    stats = sched.finish()
    assert stats["virtual_charged"] == pytest.approx(6.0)
    # one task cannot be split across workers: 4s phase + 2s lane
    assert stats["virtual_makespan"] == pytest.approx(6.0)
    assert clock.breakdown() == {"scan": 4.0, "sort": 2.0}


def test_worker_clocks_empty_phase_is_noop():
    sched = DistributedScheduler(SimClock(), nodes=1, workers=4)
    assert sched.dispatch([], _charge(1.0, "work")) == []
    stats = sched.finish()
    assert stats["phases"] == 0
    assert stats["virtual_charged"] == 0.0
    assert stats["virtual_makespan"] == 0.0


# -- knobs and validation ----------------------------------------------------

def test_scheduler_rejects_bad_knobs():
    clock = SimClock()
    with pytest.raises(ValueError):
        DistributedScheduler(clock, workers=0)
    with pytest.raises(ValueError):
        DistributedScheduler(clock, morsel_rows=0)
    with pytest.raises(ValueError):
        Executor(repro.connect().catalog, engine="parallel", workers=0)


@pytest.mark.parametrize("knob, value", [
    ("workers", 0), ("nodes", 0), ("morsel_rows", 0), ("retry_limit", -1)])
@pytest.mark.parametrize("engine", ["batch", "parallel", "distributed"])
def test_executor_rejects_bad_knob_at_construction(engine, knob, value):
    """Every integer knob is validated when the executor is built —
    whichever engine is selected — not at the first query inside a
    scheduler."""
    with pytest.raises(ValueError, match=knob):
        Executor(repro.connect().catalog, engine=engine, **{knob: value})


def test_connect_rejects_bad_nodes():
    with pytest.raises(ValueError, match="nodes"):
        repro.connect(engine="distributed", nodes=0)


@pytest.mark.parametrize("engine", ["morsel", "row"])
def test_unknown_engine_rejected(engine):
    assert Executor.ENGINES == ("batch", "parallel", "distributed")
    with pytest.raises(ValueError, match="unknown engine"):
        Executor(repro.connect().catalog, engine=engine)
    with pytest.raises(ValueError, match="unknown engine"):
        repro.connect(engine=engine)


# -- storage morsel splitting ------------------------------------------------
# The placed scheduler's morsels are one scan's column batches, listed.

def test_morsel_batches_contract():
    """Concatenated morsels reproduce scan order; sizes are exact except
    the final short morsel; each page hits the buffer pool exactly once."""
    db = _fresh_db(rows=137)
    heap = db.catalog.table("t")
    serial = [row for _, row in heap.scan()]
    pool = db.catalog.buffer_pool
    before = pool._hits + pool._misses
    morsels = list(heap.scan_column_batches(10))
    touches = (pool._hits + pool._misses) - before
    assert touches == heap.page_count
    assert [n for _, n in morsels[:-1]] == [10] * (len(morsels) - 1)
    assert 0 < morsels[-1][1] <= 10
    rebuilt = [row for columns, n in morsels
               for row in zip(*columns)] if morsels else []
    assert rebuilt == serial


def test_morsel_batches_single_row_granularity():
    db = _fresh_db(rows=7)
    heap = db.catalog.table("t")
    morsels = list(heap.scan_column_batches(1))
    assert len(morsels) == 7
    assert all(n == 1 for _, n in morsels)


def test_morsel_batches_empty_table():
    db = _fresh_db(rows=0)
    assert list(db.catalog.table("t").scan_column_batches(16)) == []
