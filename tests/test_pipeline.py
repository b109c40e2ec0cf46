"""Fused pipeline execution: compilation structure, charge parity with
the row engine, LIMIT early exit through pipelines, and the vectorized
non-constant LIKE.

The engine parity sweep lives in test_batch_parity.py; this file
exercises the pipeline layer itself: how plans compile into pipelines
(split at the plan-level BREAKER annotations), that the streaming driver
charges what the row engine charges (exactly, except where LIMIT stops
on a block boundary — then within the documented bound), and that a
satisfied LIMIT stops driving its source pipeline instead of scanning
the full table.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exec import pipeline as pl
from repro.exec.executor import Executor
from repro.exec.expr import RowLayout, compile_expr, compile_expr_vector
from repro.storage.types import DataType
from repro.common.simtime import CostModel
from repro.exec.batch import DEFAULT_BATCH_SIZE, RowBlock
from repro.sql import ast, parse


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

    def test_breaker_annotations_on_plan_nodes(self):
        from repro.plan import logical as plan
        assert plan.Filter.STREAMING and plan.Project.STREAMING
        for breaker in (plan.Aggregate, plan.Sort, plan.HashJoin,
                        plan.NestedLoopJoin, plan.Distinct, plan.Limit):
            assert breaker.BREAKER
        assert not plan.SeqScan.BREAKER and not plan.SeqScan.STREAMING


# -- streaming driver vs row engine --------------------------------------------

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
    # serial-fallback operators: lazy child pipelines keep the row
    # engine's pull order (and its early exit)
    "SELECT count(*) FROM t, u",
    "SELECT t.id, u.uid FROM t, u LIMIT 7",
]

# Where LIMIT stops on a block boundary the block engines may charge up
# to one block of upstream cost beyond the row engine (see the module
# docstring of repro/exec/operators.py): a filtered streaming chain
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
def test_fused_matches_unfused_rows_and_charges(db, sql):
    """The streaming driver against the row engine: rows, types and
    order agree, and so does charged virtual time — up to float
    accumulation (per-row vs per-block charges), or within the
    documented LIMIT bound where one applies."""
    plan = db.planner.plan_select(parse(sql))
    expected = Executor(db.catalog, db.clock, engine="row").run(plan)
    got = Executor(db.catalog, db.clock, engine="batch").run(plan)
    assert got.columns == expected.columns
    assert _typed(got.rows) == _typed(expected.rows)
    slack = LIMIT_SLACK.get(sql)
    if slack is None:
        assert got.virtual_seconds == pytest.approx(
            expected.virtual_seconds, rel=1e-6, abs=1e-9)
    else:
        assert got.virtual_seconds <= \
            expected.virtual_seconds + slack(db) + 1e-9


def _rows_out(op):
    out = [(type(op).__name__, op.rows_out)]
    for attr in ("_child", "_left", "_right"):
        child = getattr(op, attr, None)
        if child is not None:
            out += _rows_out(child)
    return out


def test_rows_out_matches_unfused(db):
    """Per-operator ``rows_out`` of the streaming driver equals the row
    engine's."""
    sql = "SELECT id, v FROM t WHERE v > 3"
    plan = db.planner.plan_select(parse(sql))
    row = Executor(db.catalog, db.clock, engine="row")
    batch = Executor(db.catalog, db.clock, engine="batch")
    op_a = row.build(plan)
    op_b = batch.build(plan)
    assert len(list(row.iter_rows(op_a))) == \
        len(list(batch.iter_rows(op_b)))
    assert _rows_out(op_a) == _rows_out(op_b)


def test_with_engine_carries_knobs(db):
    executor = Executor(db.catalog, db.clock, engine="distributed",
                        workers=3, morsel_rows=7, retry_limit=5, nodes=2)
    sibling = executor.with_engine("batch")
    assert sibling.engine == "batch" and not sibling.placed
    assert (sibling.workers, sibling.morsel_rows, sibling.retry_limit,
            sibling.nodes) == (3, 7, 5, 2)
    # "parallel" is the one-node spelling: the knob carries through it,
    # the scheduler it builds is pinned to one node, and the stats dict
    # is the distributed one under the other name
    plan = db.planner.plan_select(
        parse("SELECT grp, sum(v) FROM t GROUP BY grp"))
    pinned = executor.with_engine("parallel")
    assert pinned.placed and pinned.nodes == 2
    one, two = (ex.run(plan).extra[ex.engine] for ex in (pinned, executor))
    assert (one["nodes"], two["nodes"]) == (1, 2)
    assert one.keys() == two.keys()
    assert (one["workers"], one["morsel_rows"]) == (3, 7)
    assert pinned.with_engine("distributed").nodes == 2


def test_pipeline_description_in_result_extra(db):
    result = Executor(db.catalog, db.clock, engine="batch").run(
        db.planner.plan_select(parse("SELECT grp, sum(v) FROM t GROUP BY grp")))
    assert result.extra["pipeline"]["pipelines"] == \
        ["Scan→Aggregate!", "Sink"]


# -- LIMIT early exit ---------------------------------------------------------


def test_limit_stops_driving_source_pipeline():
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

    row_limited = Executor(db.catalog, db.clock, engine="row").run(
        db.planner.plan_select(parse(sql)))
    assert limited.rows == row_limited.rows
    # LIMIT plans keep the operators' own scan-block boundaries, so where
    # no push-down reaches the scan the overshoot beyond the row engine
    # is at most one default block's share of the full run
    assert limited.virtual_seconds <= row_limited.virtual_seconds \
        + DEFAULT_BATCH_SIZE * full.virtual_seconds / 20_000


def test_limit_over_nested_loop_join_stays_lazy():
    """LIMIT above a serial-fallback operator (NestedLoopJoin): the
    streaming driver hands the operator lazy child pipelines, so a
    satisfied LIMIT abandons the lazily-pulled side mid-scan like the row
    engine's generator laziness — at most one scan block later."""
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
    expected = Executor(db.catalog, db.clock, engine="row").run(plan)
    got = fused.run(plan)
    assert got.rows == expected.rows
    # stopped early: nowhere near the full 20k-pair cross join, and no
    # more than one default scan block's share of it past the row engine
    full = fused.run(db.planner.plan_select(
        parse("SELECT x, y FROM wide1, tiny")))
    assert got.virtual_seconds < 0.5 * full.virtual_seconds
    assert got.virtual_seconds <= expected.virtual_seconds \
        + DEFAULT_BATCH_SIZE * full.virtual_seconds / 5000


def test_limit_pushdown_charges_match_row_engine():
    """LIMIT over a streaming chain still rides the push-down: the fused
    scan uses the pushed max_batch_rows, so charges stay within the
    documented offset+limit+1 bound of the row engine."""
    db = repro.connect()
    db.execute("CREATE TABLE f (id INT, v INT)")
    heap = db.catalog.table("f")
    for i in range(5000):
        heap.insert((i, i % 10))
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT id FROM f WHERE v = 3 LIMIT 2"))
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    fused = Executor(db.catalog, db.clock, engine="batch").run(plan)
    assert fused.rows == row.rows
    bound = 3 * (CostModel.TUPLE_CPU + CostModel.EVAL_PREDICATE)
    assert fused.virtual_seconds <= row.virtual_seconds + bound


# -- deferred selection masks -------------------------------------------------


def test_block_carrier_defers_selection():
    layout = RowLayout([("t", "a"), ("t", "b")],
                       [DataType.INT, DataType.TEXT])
    block = RowBlock.from_rows(layout, [(1, "x"), (2, "y"), (3, "z")])
    carrier = pl.BlockCarrier(block, np.array([True, False, True]))
    assert carrier.count == 2
    assert carrier.block is block          # not yet copied
    out = carrier.materialize()
    assert out.to_rows() == [(1, "x"), (3, "z")]
    assert carrier.materialize() is out    # idempotent


def test_projection_applies_mask_only_to_projected_columns(db):
    """Projection off a deferred mask copies only projected columns and
    produces the same rows as select-then-project."""
    plan = db.planner.plan_select(parse("SELECT id FROM t WHERE v > 10"))
    fused = Executor(db.catalog, db.clock, engine="batch").run(plan)
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    assert _typed(fused.rows) == _typed(row.rows)


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

    def test_numeric_computed_operand_falls_back(self, db):
        """A numerically-computed LIKE operand must defer to the row
        engine (str() of a float64 view could disagree): end-to-end
        parity across engines is the contract."""
        sql = "SELECT id FROM t WHERE (v + 1) LIKE '1%'"
        plan = db.planner.plan_select(parse(sql))
        row = Executor(db.catalog, db.clock, engine="row").run(plan)
        batch = Executor(db.catalog, db.clock, engine="batch").run(plan)
        assert _typed(batch.rows) == _typed(row.rows)

    def test_non_constant_like_parity_across_engines(self, db):
        for sql in ("SELECT id FROM t WHERE grp LIKE tag",
                    "SELECT id FROM t WHERE lower(grp) LIKE 'r%'",
                    "SELECT id FROM t WHERE coalesce(tag, grp) LIKE '%e%'"):
            plan = db.planner.plan_select(parse(sql))
            expected = Executor(db.catalog, db.clock, engine="row").run(plan)
            for engine in ("batch", "parallel"):
                got = Executor(db.catalog, db.clock, engine=engine,
                               workers=3, morsel_rows=16).run(plan)
                assert _typed(got.rows) == _typed(expected.rows)
                assert got.virtual_seconds == pytest.approx(
                    expected.virtual_seconds, rel=1e-6, abs=1e-9)


def test_literal_vector_cache_reuses_arrays():
    layout = RowLayout([("t", "x")], [DataType.INT])
    vector = compile_expr_vector(ast.Literal(3.5), layout)
    block = RowBlock.from_rows(layout, [(1,), (2,)])
    first = vector(block)
    second = vector(block)
    assert first[0] is second[0]  # length-keyed cache hit
    other = RowBlock.from_rows(layout, [(1,), (2,), (3,)])
    assert len(vector(other)[0]) == 3
