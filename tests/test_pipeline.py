"""Fused pipeline execution: compilation structure, charges against the
recorded answers, LIMIT early exit through pipelines, and the vectorized
non-constant LIKE.

The engine parity sweep lives in test_batch_parity.py; this file
exercises the pipeline layer itself: how plans compile into pipelines
(split at the plan-level BREAKER annotations), that the streaming driver
returns the recorded rows and charges the recorded row-at-a-time charges
(``tests/answers.py``: to rounding, except where LIMIT stops on a block
boundary — then within the documented bound), and that a satisfied
LIMIT stops driving its source pipeline instead of scanning the full
table.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exec import operators as ops
from repro.exec import pipeline as pl
from repro.exec.executor import Executor
from repro.exec.expr import (NO_COLUMNS, RowLayout, compile_expr,
                             compile_expr_vector)
from repro.storage.types import DataType
from repro.common.errors import ExecutionError
from repro.common.simtime import CostModel, SimClock
from repro.exec.batch import DEFAULT_BATCH_SIZE, RowBlock
from repro.sql import ast, parse

from answers import run_charged
from sqlite_oracle import assert_held_to_sqlite, sqlite_mirror


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.fixture(scope="module")
def db():
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT, w FLOAT, "
               "tag TEXT)")
    heap = db.catalog.table("t")
    tags = ["a%", "b_", "x", None]
    for i in range(80):
        heap.insert((i, ["red", "green", "blue"][i % 3], float(i) * 0.5,
                     float(80 - i) * 0.25, tags[i % 4]))
    db.execute("CREATE TABLE u (uid INT UNIQUE, gid INT, name TEXT)")
    uheap = db.catalog.table("u")
    for i in range(30):
        uheap.insert((i, i % 10, f"user{i}"))
    db.execute("ANALYZE")
    return db


def _program(db, sql):
    plan = db.planner.plan_select(parse(sql))
    executor = Executor(db.catalog, db.clock, engine="batch")
    return pl.compile_pipelines(executor.build(plan))


# -- compilation structure ----------------------------------------------------


class TestCompile:
    def test_scan_filter_project_is_one_pipeline(self, db):
        program = _program(db, "SELECT id, v FROM t WHERE v > 3 AND w < 15")
        assert len(program.pipelines) == 1
        root = program.root
        assert isinstance(root.source, pl.ScanSource)
        # the WHERE is pushed into the scan; projection is the one stage
        assert [type(s) for s in root.stages] == [pl.ProjectStage]
        assert root.sink is None

    def test_aggregate_breaks_the_pipeline(self, db):
        program = _program(db, "SELECT grp, sum(v) FROM t GROUP BY grp")
        assert len(program.pipelines) == 2
        feeder, out = program.pipelines
        assert isinstance(feeder.sink, pl.AggregateSink)
        assert isinstance(out.source, pl.SinkSource)
        assert out.inputs == [feeder]

    def test_sort_over_aggregate_is_three_pipelines(self, db):
        program = _program(
            db, "SELECT grp, sum(v) AS s FROM t GROUP BY grp ORDER BY grp")
        sinks = [type(p.sink) for p in program.pipelines]
        assert sinks == [pl.AggregateSink, pl.SortSink, type(None)]

    def test_hash_join_build_breaks_probe_fuses(self, db):
        program = _program(
            db, "SELECT t.id, u.name FROM t JOIN u ON t.id = u.uid "
                "WHERE t.v > 1")
        assert len(program.pipelines) == 2
        build, probe = program.pipelines
        assert isinstance(build.sink, pl.BuildSink)
        assert isinstance(probe.source, pl.ScanSource)
        # probe + projection fuse into the probe-side scan pipeline
        kinds = [type(s) for s in probe.stages]
        assert pl.ProbeStage in kinds and pl.ProjectStage in kinds
        assert probe.inputs == [build]

    def test_limit_is_an_early_exit_stage(self, db):
        program = _program(db, "SELECT id FROM t LIMIT 3")
        assert program.has_limit
        assert isinstance(program.root.stages[-1], pl.LimitStage)
        assert not program.root.stages[-1].parallel_safe

    def test_distinct_is_a_serial_stage(self, db):
        program = _program(db, "SELECT DISTINCT grp FROM t")
        stage = program.root.stages[-1]
        assert isinstance(stage, pl.DistinctStage)
        assert not stage.parallel_safe

    def test_every_plan_node_compiles_through_a_handler(self):
        """Every concrete plan node's operator has a registered pipeline
        handler, and an operator without one is an ExecutionError."""
        from repro.exec import operators as ops
        from repro.plan import logical as plan
        nodes, queue = [], [plan.PlanNode]
        while queue:
            for sub in queue.pop().__subclasses__():
                nodes.append(sub)
                queue.append(sub)
        assert len(nodes) == 11
        for node_cls in nodes:
            assert getattr(ops, node_cls.__name__ + "Op") in pl._HANDLERS, \
                node_cls.__name__

        class Unregistered(ops.Operator):
            pass

        with pytest.raises(ExecutionError, match="Unregistered"):
            pl.compile_pipelines(Unregistered(NO_COLUMNS, SimClock()))

    def test_nested_loop_join_collects_right_crosses_left(self, db):
        program = _program(db, "SELECT t.id, u.name FROM t, u WHERE "
                               "t.v > u.gid")
        assert program.describe() == ["Scan→Inner!",
                                      "Scan→Cross→Filter→Project"]
        inner, outer = program.pipelines
        assert isinstance(inner.sink, pl.InnerSink)
        assert outer.inputs == [inner]
        cross = outer.stages[0]
        assert isinstance(cross, pl.CrossStage) and cross.parallel_safe
        assert cross.inner is inner.sink

    def test_breaker_annotations_on_plan_nodes(self):
        from repro.plan import logical as plan
        assert plan.Filter.STREAMING and plan.Project.STREAMING
        for breaker in (plan.Aggregate, plan.Sort, plan.HashJoin,
                        plan.NestedLoopJoin, plan.Distinct, plan.Limit):
            assert breaker.BREAKER
        assert not plan.SeqScan.BREAKER and not plan.SeqScan.STREAMING


# -- streaming driver vs the recorded answers ----------------------------------

EXACT_QUERIES = [
    "SELECT * FROM t",
    "SELECT id, v FROM t WHERE v > 3 AND w < 15",
    "SELECT id * 2 + 1, grp FROM t WHERE w >= 5",
    "SELECT grp, count(*), sum(v), avg(w) FROM t WHERE v > 1 GROUP BY grp",
    "SELECT * FROM t ORDER BY grp DESC, id",
    "SELECT DISTINCT grp FROM t",
    "SELECT id FROM t LIMIT 5",
    "SELECT id FROM t WHERE v > 2 LIMIT 4 OFFSET 2",
    "SELECT t.id, u.name FROM t JOIN u ON t.id = u.uid WHERE t.v > 1",
    "SELECT count(*) FROM t JOIN u ON t.id = u.uid",
    "SELECT grp, count(*) FROM t GROUP BY grp ORDER BY grp LIMIT 2",
    "SELECT 1 + 2",
    # serial-fallback operators: lazy child pipelines keep a
    # row-at-a-time pull order (and its early exit)
    "SELECT count(*) FROM t, u",
    "SELECT t.id, u.uid FROM t, u LIMIT 7",
]

# Where LIMIT stops on a block boundary the block engines may charge up
# to one block of upstream cost beyond a row-at-a-time pull (see the
# module docstring of repro/exec/operators.py): a filtered streaming chain
# scans at most the pushed-down offset+limit+1 rows more, each charged
# scan + predicate + projection; no push-down reaches through a join, so
# there the bound is one default scan block — here the whole 80-row table.
_PUSHDOWN_ROW = 2 * CostModel.TUPLE_CPU + CostModel.EVAL_PREDICATE
LIMIT_SLACK = {
    "SELECT id FROM t WHERE v > 2 LIMIT 4 OFFSET 2":
        lambda db: (2 + 4 + 1) * _PUSHDOWN_ROW,
    "SELECT t.id, u.uid FROM t, u LIMIT 7":
        lambda db: Executor(db.catalog, db.clock, engine="batch").run(
            db.planner.plan_select(parse("SELECT t.id, u.uid FROM t, u"))
        ).virtual_seconds,
}


@pytest.mark.parametrize("sql", EXACT_QUERIES)
def test_fused_matches_unfused_rows_and_charges(db, sql, answers):
    """The streaming driver against the record: rows, types and order
    agree, and so does every operator's rows_out and each category's
    charge — up to float accumulation (per-row vs per-block charges) —
    or, where a LIMIT stops on a block boundary, charged virtual time is
    within the documented LIMIT bound."""
    key = "pipeline:" + sql
    plan = db.planner.plan_select(parse(sql))
    got, rows_out, charged = run_charged(db, "batch", {}, plan)
    slack = LIMIT_SLACK.get(sql)
    if slack is None:
        answers.check(key, got, rows_out, charged)
    else:
        answers.check(key, got)
        assert got.virtual_seconds <= \
            answers.total(key) + slack(db) + 1e-9


@pytest.mark.parametrize("sql", EXACT_QUERIES)
def test_exact_queries_held_to_sqlite(db, sql):
    """The same texts against sqlite3 on the same rows
    (``sqlite_oracle.py``'s rules)."""
    assert_held_to_sqlite(db, sqlite_mirror(db, ("t", "u")), sql)


def test_rows_out_matches_unfused(db, answers):
    """Per-operator ``rows_out`` of the streaming driver equals the
    recorded row-at-a-time counts."""
    sql = "SELECT id, v FROM t WHERE v > 3"
    got, rows_out, _ = run_charged(
        db, "batch", {}, db.planner.plan_select(parse(sql)))
    answers.check("pipeline:" + sql, got, rows_out)


def test_parallel_is_the_one_node_distributed(db):
    """``engine="parallel"`` is the one-node spelling of
    ``"distributed"``: the knobs carry through it, the scheduler it
    builds is pinned to one node, and the stats dict is the distributed
    one under the other name."""
    knobs = {"workers": 3, "morsel_rows": 7, "retry_limit": 5, "nodes": 2}
    plan = db.planner.plan_select(
        parse("SELECT grp, sum(v) FROM t GROUP BY grp"))
    one, two = (Executor(db.catalog, db.clock, engine=engine, **knobs)
                .run(plan).extra[engine]
                for engine in ("parallel", "distributed"))
    assert (one["nodes"], two["nodes"]) == (1, 2)
    assert one.keys() == two.keys()
    assert (one["workers"], one["morsel_rows"]) == (3, 7)


def test_pipeline_description_in_result_extra(db):
    result = Executor(db.catalog, db.clock, engine="batch").run(
        db.planner.plan_select(parse("SELECT grp, sum(v) FROM t GROUP BY grp")))
    assert result.extra["pipeline"]["pipelines"] == \
        ["Scan→Aggregate!", "Sink"]


# -- LIMIT early exit ---------------------------------------------------------


def test_limit_stops_driving_source_pipeline(answers):
    """A satisfied LIMIT above a join probe must stop the probe-side scan
    mid-table: no push-down reaches through a join, so before pipelines
    the only protection was generator laziness — the fused driver must
    preserve it.  Charged time is a fraction of the full-scan run."""
    db = repro.connect()
    db.execute("CREATE TABLE small (sid INT UNIQUE, tag TEXT)")
    db.execute("CREATE TABLE big (bid INT UNIQUE, sid INT, x FLOAT)")
    sheap = db.catalog.table("small")
    for i in range(20):
        sheap.insert((i, f"tag{i}"))
    bheap = db.catalog.table("big")
    for i in range(20_000):
        bheap.insert((i, i % 20, float(i)))
    db.execute("ANALYZE")
    sql = ("SELECT s.tag, b.x FROM small s JOIN big b ON s.sid = b.sid "
           "LIMIT 3")
    full_sql = sql.replace(" LIMIT 3", "")
    executor = Executor(db.catalog, db.clock, engine="batch")

    limited = executor.run(db.planner.plan_select(parse(sql)))
    full = executor.run(db.planner.plan_select(parse(full_sql)))
    assert len(limited.rows) == 3
    assert limited.rows == full.rows[:3]
    # early exit: the probe scan stopped after its first block instead
    # of grinding through all 20k rows
    assert limited.virtual_seconds < 0.5 * full.virtual_seconds

    answers.check("limit-probe:" + sql, limited)
    # LIMIT plans keep the operators' own scan-block boundaries, so where
    # no push-down reaches the scan the overshoot beyond the recorded
    # row-at-a-time charges is at most one default block's share of the
    # full run
    assert limited.virtual_seconds <= answers.total("limit-probe:" + sql) \
        + DEFAULT_BATCH_SIZE * full.virtual_seconds / 20_000


def test_limit_over_nested_loop_join_stays_lazy(answers):
    """LIMIT above a serial-fallback operator (NestedLoopJoin): the
    streaming driver hands the operator lazy child pipelines, so a
    satisfied LIMIT abandons the lazily-pulled side mid-scan, as a
    row-at-a-time pull would — at most one scan block later."""
    db = repro.connect()
    db.execute("CREATE TABLE wide1 (x INT)")
    db.execute("CREATE TABLE tiny (y INT)")
    heap = db.catalog.table("wide1")
    for i in range(5000):
        heap.insert((i,))
    tiny = db.catalog.table("tiny")
    for i in range(4):
        tiny.insert((i,))
    db.execute("ANALYZE")
    sql = "SELECT x, y FROM wide1, tiny LIMIT 3"
    plan = db.planner.plan_select(parse(sql))
    fused = Executor(db.catalog, db.clock, engine="batch")
    got = fused.run(plan)
    answers.check("limit-nlj:" + sql, got)
    # stopped early: nowhere near the full 20k-pair cross join, and no
    # more than one default scan block's share of it past the record
    full = fused.run(db.planner.plan_select(
        parse("SELECT x, y FROM wide1, tiny")))
    assert got.virtual_seconds < 0.5 * full.virtual_seconds
    assert got.virtual_seconds <= answers.total("limit-nlj:" + sql) \
        + DEFAULT_BATCH_SIZE * full.virtual_seconds / 5000


def _cross_db(left_rows: int, right_rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE big (x INT)")
    db.execute("CREATE TABLE few (y INT)")
    big, few = db.catalog.table("big"), db.catalog.table("few")
    for i in range(left_rows):
        big.insert((i,))
    for i in range(right_rows):
        few.insert((i,))
    db.execute("ANALYZE")
    return db


CROSS_ENGINES = [("batch", {}),
                 ("parallel", {"workers": 2, "morsel_rows": 1000}),
                 ("distributed", {"nodes": 2, "morsel_rows": 1000})]


@pytest.mark.parametrize("engine, kwargs", CROSS_ENGINES,
                         ids=[engine for engine, _ in CROSS_ENGINES])
def test_cross_blocks_never_exceed_the_pair_chunk(monkeypatch, engine,
                                                  kwargs):
    """A cross join hands the rest of its pipeline one block per pair
    chunk, however large the left block (3,000 rows here, one scan block
    on the batch engine): a projection or an aggregate above it never
    sees more than ``_PAIR_CHUNK`` pairs at once, and sees them all."""
    db = _cross_db(3000, 40)
    seen = []
    project_block = ops.ProjectOp.project_block
    partial_block = ops.AggregateOp.partial_block

    def spy_project(self, block, rows, count, clock):
        seen.append(count)
        return project_block(self, block, rows, count, clock)

    def spy_partial(self, block, rows, count, clock):
        seen.append(count)
        return partial_block(self, block, rows, count, clock)

    monkeypatch.setattr(ops.ProjectOp, "project_block", spy_project)
    monkeypatch.setattr(ops.AggregateOp, "partial_block", spy_partial)
    executor = Executor(db.catalog, db.clock, engine=engine, **kwargs)
    for sql in ("SELECT x + y FROM big, few",
                "SELECT count(*) FROM big, few"):
        seen.clear()
        result = executor.run(db.planner.plan_select(parse(sql)))
        assert max(seen) <= ops.NestedLoopJoinOp._PAIR_CHUNK, sql
        assert sum(seen) == 3000 * 40, sql
        assert len(result.rows) == (1 if "count" in sql else 3000 * 40)


@pytest.mark.parametrize("engine, kwargs", CROSS_ENGINES,
                         ids=[engine for engine, _ in CROSS_ENGINES])
def test_cross_join_keeps_its_columns_typed(monkeypatch, engine, kwargs,
                                           answers):
    """An INT x TEXT cross gathers each side by index, so its pairs keep
    the scans' ``i8`` / ``dict`` columns, NULLs and all, and a GROUP BY
    above it partitions on arrays; rows, rows_out and charges stay the
    recorded ones."""
    db = repro.connect()
    db.execute("CREATE TABLE nums (x INT)")
    db.execute("CREATE TABLE words (w TEXT)")
    for i in range(300):
        db.catalog.table("nums").insert((None if i % 11 == 0 else i,))
    for i in range(12):
        db.catalog.table("words").insert((None if i == 4 else f"w{i % 5}",))
    db.execute("ANALYZE")
    kinds, exact = set(), []
    cross_block = ops.NestedLoopJoinOp.cross_block
    group_exact = ops.AggregateOp._group_exact

    def spy_cross(self, block, right, clock):
        for out in cross_block(self, block, right, clock):
            kinds.add(tuple(column.kind for column in out.columns))
            yield out

    def spy_exact(self, block):
        exact.append(block)
        return group_exact(self, block)

    monkeypatch.setattr(ops.NestedLoopJoinOp, "cross_block", spy_cross)
    monkeypatch.setattr(ops.AggregateOp, "_group_exact", spy_exact)
    for sql in ("SELECT x, w FROM nums, words",
                "SELECT x, w FROM nums, words WHERE x < 40 AND w <> 'w2'",
                "SELECT w, count(*), sum(x) FROM nums, words GROUP BY w"):
        plan = db.planner.plan_select(parse(sql))
        answers.check("cross-typed:" + sql,
                      *run_charged(db, engine, kwargs, plan))
    assert kinds == {("i8", "dict")}
    assert not exact


@pytest.mark.parametrize("engine, kwargs", CROSS_ENGINES,
                         ids=[engine for engine, _ in CROSS_ENGINES])
def test_limit_over_cross_join_stops_within_one_pair_chunk(engine, kwargs,
                                                          answers):
    """A satisfied LIMIT stops a cross join between pair chunks: the join
    charges at most one chunk's pairs, however many left rows the scan
    block that produced it holds."""
    db = _cross_db(5000, 40)
    plan = db.planner.plan_select(parse(
        "SELECT x, y FROM big, few LIMIT 3 OFFSET 2"))
    before = db.clock.category_total("join")
    got = Executor(db.catalog, db.clock, engine=engine, **kwargs).run(plan)
    answers.check("cross-limit:SELECT x, y FROM big, few LIMIT 3 OFFSET 2",
                  got)
    assert db.clock.category_total("join") - before <= (
        ops.NestedLoopJoinOp._PAIR_CHUNK * CostModel.TUPLE_CPU)


def test_limit_pushdown_charges_match_the_record(answers):
    """LIMIT over a streaming chain still rides the push-down: the
    compiler sizes the scan's blocks from the LIMIT, so charges stay
    within the documented offset+limit+1 bound of the recorded
    row-at-a-time charges."""
    db = repro.connect()
    db.execute("CREATE TABLE f (id INT, v INT)")
    heap = db.catalog.table("f")
    for i in range(5000):
        heap.insert((i, i % 10))
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT id FROM f WHERE v = 3 LIMIT 2"))
    key = "limit-pushdown:SELECT id FROM f WHERE v = 3 LIMIT 2"
    fused = Executor(db.catalog, db.clock, engine="batch").run(plan)
    answers.check(key, fused)
    bound = 3 * (CostModel.TUPLE_CPU + CostModel.EVAL_PREDICATE)
    assert fused.virtual_seconds <= answers.total(key) + bound


class TestBlockSizes:
    """The compiler alone sizes source blocks: only the pipeline holding
    the LimitStage runs small ones."""

    def test_limit_pipeline_alone_gets_small_blocks(self, db):
        cases = {
            # push-down reaches the scan: offset + limit + 1
            "SELECT id FROM t WHERE v > 3 LIMIT 4 OFFSET 2": [7],
            "SELECT DISTINCT grp FROM t LIMIT 2": [3],
            # a probe stands between the scan and the LIMIT
            "SELECT u.name, t.v FROM u JOIN t ON u.uid = t.id LIMIT 3":
                [pl.FUSED_SCAN_ROWS, DEFAULT_BATCH_SIZE],
            # the LIMIT reads a breaker's output: every scan runs whole
            "SELECT id, v FROM t ORDER BY v DESC LIMIT 10":
                [pl.FUSED_SCAN_ROWS, DEFAULT_BATCH_SIZE],
            "SELECT grp, count(*) FROM t GROUP BY grp LIMIT 2":
                [pl.FUSED_SCAN_ROWS, DEFAULT_BATCH_SIZE],
            "SELECT id FROM t": [pl.FUSED_SCAN_ROWS],
        }
        for sql, sizes in cases.items():
            program = _program(db, sql)
            assert [p.source.block_rows for p in program.pipelines] == sizes, sql
            assert [p.limit is not None for p in program.pipelines] == \
                [size != pl.FUSED_SCAN_ROWS for size in sizes], sql

    @pytest.mark.parametrize("sql", [
        "SELECT id, v FROM big ORDER BY v DESC LIMIT 10",
        "SELECT k, count(*) FROM big GROUP BY k LIMIT 3",
    ])
    def test_scan_under_a_breaker_runs_in_fused_blocks(self, monkeypatch,
                                                       sql):
        """A LIMIT above a sort or an aggregate never stops the scan
        below it, so that scan takes ``FUSED_SCAN_ROWS`` blocks."""
        n = 2 * pl.FUSED_SCAN_ROWS + 100
        db = repro.connect()
        db.execute("CREATE TABLE big (id INT, k INT, v FLOAT)")
        heap = db.catalog.table("big")
        for i in range(n):
            heap.insert((i, i % 7, float((i * 37) % 1009)))
        db.execute("ANALYZE")
        plan = db.planner.plan_select(parse(sql))
        sizes = []
        scan_block = ops.SeqScanOp.scan_block

        def counted(self, block, clock):
            sizes.append(len(block))
            return scan_block(self, block, clock)

        monkeypatch.setattr(ops.SeqScanOp, "scan_block", counted)
        got = Executor(db.catalog, db.clock, engine="batch").run(plan)
        monkeypatch.undo()
        assert len(sizes) == -(-n // pl.FUSED_SCAN_ROWS)
        assert sum(sizes) == n
        rows = [(i, i % 7, float((i * 37) % 1009)) for i in range(n)]
        if "ORDER BY" in sql:             # stable: ties keep scan order
            expected = [(i, v) for i, _, v in sorted(
                rows, key=lambda row: -row[2])][:10]
        else:                             # groups in first-seen order
            expected = [(k, -(-(n - k) // 7)) for k in range(3)]
        assert _typed(got.rows) == _typed(expected)


def test_sort_yields_one_block():
    db = repro.connect()
    db.execute("CREATE TABLE s (id INT, v FLOAT)")
    heap = db.catalog.table("s")
    for i in range(3000):
        heap.insert((i, float((i * 7919) % 3001)))
    plan = db.planner.plan_select(parse("SELECT id, v FROM s ORDER BY v"))
    executor = Executor(db.catalog, db.clock, engine="batch")
    blocks = list(pl.run_program(pl.compile_pipelines(executor.build(plan)),
                                 db.clock))
    assert [len(block) for block in blocks] == [3000]


def test_streaming_scan_charges_pages_to_its_clock():
    """On a clock of its own, every engine's scan charges its page
    touches to that clock — the streaming driver, the placed engines'
    page clocks, and the UPDATE / DELETE victim stream ``rid_rows``."""
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT, v INT)")
    heap = db.catalog.table("t")
    for i in range(5000):
        heap.insert((i, i % 50))
    sql = "SELECT count(*) FROM t WHERE v > 10"
    db.execute(sql)                      # both runs read warm pages
    plan = db.planner.plan_select(parse(sql))
    breakdowns = {}
    for engine in ("batch", "parallel"):
        clock = SimClock()
        Executor(db.catalog, clock, engine=engine).run(plan)
        breakdowns[engine] = clock.breakdown()
    assert set(breakdowns["batch"]) == set(breakdowns["parallel"])
    assert breakdowns["batch"]["buffer-hit"] \
        == breakdowns["parallel"]["buffer-hit"] > 0
    clock = SimClock()
    victims = Executor(db.catalog, clock).build(
        db.planner.access_path("t", parse(sql).where))
    assert len(list(victims.rid_rows())) == 3900
    assert clock.breakdown()["buffer-hit"] == breakdowns["batch"]["buffer-hit"]
    # an index scan's heap reads charge the same clock, not the catalog's
    db.execute("CREATE INDEX t_id ON t (id)")
    sql = "SELECT v FROM t WHERE id < 300"
    plan = db.planner.plan_select(parse(sql))
    assert "IndexScan" in db.execute("EXPLAIN " + sql).rows[1][0]
    hits = {}
    for engine in ("batch", "parallel"):
        clock, before = SimClock(), db.clock.now
        rows = Executor(db.catalog, clock, engine=engine).run(plan).rows
        assert len(rows) == 300 and db.clock.now == before
        hits[engine] = clock.breakdown()["buffer-hit"]
    assert hits["batch"] == hits["parallel"] > 0


# -- deferred selections -----------------------------------------------------


def test_block_carrier_defers_selection():
    layout = RowLayout([("t", "a"), ("t", "b")],
                       [DataType.INT, DataType.TEXT])
    block = RowBlock.from_rows(layout, [(1, "x"), (2, "y"), (3, "z")])
    carrier = pl.BlockCarrier(block, np.array([0, 2]))
    assert carrier.count == 2
    assert carrier.block is block          # not yet copied
    out = carrier.materialize()
    assert list(out.iter_rows()) == [(1, "x"), (3, "z")]
    assert carrier.materialize() is out    # idempotent


def test_projection_applies_mask_only_to_projected_columns(db, answers):
    """Projection off a deferred mask copies only projected columns and
    produces the same rows as select-then-project."""
    plan = db.planner.plan_select(parse("SELECT id FROM t WHERE v > 10"))
    fused = Executor(db.catalog, db.clock, engine="batch").run(plan)
    answers.check("pipeline:SELECT id FROM t WHERE v > 10", fused)


# -- vectorized non-constant LIKE --------------------------------------------


def _eval_both(expr, layout, rows):
    """(vector result, row-reference result) for one expression."""
    vector = compile_expr_vector(expr, layout)
    assert vector is not None, "expected the expression to lower"
    block = RowBlock.from_rows(layout, rows)
    values, null = vector(block)
    row_eval = compile_expr(expr, layout)
    reference = [row_eval(r) for r in rows]
    got = [None if null[i] else bool(values[i]) for i in range(len(rows))]
    return got, reference


class TestDynamicLike:
    layout = RowLayout([("t", "name"), ("t", "pat")],
                       [DataType.TEXT, DataType.TEXT])

    def test_column_pattern_matches_row_semantics(self):
        expr = ast.BinaryOp("LIKE", ast.ColumnRef("name"),
                            ast.ColumnRef("pat"))
        rows = [("alpha", "a%"), ("beta", "a%"), ("beta", "b_ta"),
                ("x", "x"), ("x.y", "x.y"), ("xzy", "x.y"),
                (None, "a%"), ("alpha", None), (5.0, "5.0"), (5, "5.0")]
        got, reference = _eval_both(expr, self.layout, rows)
        assert got == reference
        assert reference == [True, False, True, True, True, False,
                             None, None, True, False]

    def test_computed_left_operand_lowers(self):
        expr = ast.BinaryOp(
            "LIKE", ast.FuncCall("upper", (ast.ColumnRef("name"),)),
            ast.Literal("AL%"))
        got, reference = _eval_both(expr, self.layout,
                                    [("alpha", ""), ("beta", "")])
        assert got == reference == [True, False]

    def test_matcher_cache_reused_per_pattern_value(self):
        """Repeated pattern values compile one matcher each (the row path
        re-translates per row); correctness over many blocks."""
        expr = ast.BinaryOp("LIKE", ast.ColumnRef("name"),
                            ast.ColumnRef("pat"))
        rows = [(f"user{i}", "user%" if i % 2 else "user_")
                for i in range(500)]
        got, reference = _eval_both(expr, self.layout, rows)
        assert got == reference

    def test_numeric_computed_operand_falls_back(self, db, answers):
        """A numerically-computed LIKE operand must defer to the row
        compiler (str() of a float64 view could disagree): the recorded
        rows are the contract."""
        sql = "SELECT id FROM t WHERE (v + 1) LIKE '1%'"
        plan = db.planner.plan_select(parse(sql))
        batch = Executor(db.catalog, db.clock, engine="batch").run(plan)
        answers.check("pipeline:" + sql, batch)

    def test_non_constant_like_parity_across_engines(self, db, answers):
        for sql in ("SELECT id FROM t WHERE grp LIKE tag",
                    "SELECT id FROM t WHERE lower(grp) LIKE 'r%'",
                    "SELECT id FROM t WHERE coalesce(tag, grp) LIKE '%e%'"):
            plan = db.planner.plan_select(parse(sql))
            for engine in ("batch", "parallel"):
                answers.check("pipeline:" + sql, *run_charged(
                    db, engine, {"workers": 3, "morsel_rows": 16}, plan))


def test_literal_vector_cache_reuses_arrays():
    layout = RowLayout([("t", "x")], [DataType.INT])
    vector = compile_expr_vector(ast.Literal(3.5), layout)
    block = RowBlock.from_rows(layout, [(1,), (2,)])
    first = vector(block)
    second = vector(block)
    assert first[0] is second[0]  # length-keyed cache hit
    other = RowBlock.from_rows(layout, [(1,), (2,), (3,)])
    assert len(vector(other)[0]) == 3
