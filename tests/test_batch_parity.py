"""Row vs batch vs parallel (vs distributed) engine parity.

Every query runs through the row reference and the block engines against
the same catalog and must produce *bit-identical* rows (values and Python
types) in the same order, the same column names, and the same
simtime-visible cost within float-accumulation tolerance.  The query list covers every operator
and every expression family the vectorizer handles, plus the fallback
cases (non-constant LIKE, scalar functions) and the Table 1 workload
predicates.  The parallel engine runs with deliberately tiny morsels
(16 rows) and several workers so every query exercises real morsel
splitting, per-morsel partials, and the morsel-order merge.

Every placed task of this file also runs **twice** (``rerun_every_task``):
the scheduler re-executes a morsel after a transient failure and models a
phase's tasks as overlapping, which is only right if a task hook leaves
nothing behind — the second run, on a fresh clock, must return the same
result and make the same charges.  ``analysis/races.py`` holds the same
contract statically; this is its dynamic half.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.common.simtime import CostModel, SimClock
from repro.exec.distributed import DistributedScheduler
from repro.exec.executor import Executor
from repro.exec.pipeline import FUSED_SCAN_ROWS
from repro.sql import parse

# scan / filter / project / join / aggregate / sort / limit / distinct,
# vectorized and fallback expression forms alike
PARITY_QUERIES = [
    "SELECT * FROM users",
    "SELECT id, name FROM users WHERE age >= 30",
    "SELECT * FROM users WHERE age > 25 AND city = 'sg'",
    "SELECT * FROM users WHERE age < 25 OR city = 'tok'",
    "SELECT * FROM users WHERE NOT (age < 50)",
    "SELECT * FROM users WHERE age BETWEEN 25 AND 35",
    "SELECT * FROM users WHERE city IN ('sg', 'ny')",
    "SELECT * FROM users WHERE age IN (20, 30, 40)",
    "SELECT * FROM users WHERE nickname IS NULL",
    "SELECT * FROM users WHERE nickname IS NOT NULL",
    "SELECT * FROM users WHERE name LIKE 'user1%'",           # vector LIKE
    "SELECT * FROM users WHERE name LIKE 'user_'",            # _ wildcard
    "SELECT * FROM users WHERE name LIKE 'user7'",            # no wildcard
    "SELECT * FROM users WHERE nickname LIKE '%3'",           # NULL-heavy col
    "SELECT * FROM users WHERE name LIKE city",               # row fallback
    # vectorized scalar functions (and their declined/fallback corners)
    "SELECT * FROM users WHERE length(name) = 6",
    "SELECT * FROM users WHERE lower(city) = 'sg'",
    "SELECT * FROM users WHERE upper(name) = 'USER7'",
    "SELECT * FROM users WHERE length(nickname) = 5",         # NULL-heavy
    "SELECT * FROM users WHERE abs(age - 30) <= 5",
    "SELECT * FROM users WHERE round(score) = 12",            # NULL-heavy
    "SELECT * FROM users WHERE round(score, 1) > 3",          # 2-arg: row
    "SELECT * FROM users WHERE coalesce(score, 0) < 10",
    "SELECT * FROM users WHERE length(coalesce(nickname, name)) > 5",
    "SELECT * FROM users WHERE age * 2 + 1 > 60",
    "SELECT * FROM users WHERE age / 2 >= 15",
    "SELECT * FROM users WHERE age % 3 = 1",
    "SELECT * FROM users WHERE -age < -30",
    "SELECT * FROM users WHERE coalesce(nickname, name) <> ''",
    "SELECT name AS who, age + 1 AS next_age FROM users",
    "SELECT count(*) FROM users",
    "SELECT count(*) FROM users WHERE age > 1000",
    "SELECT avg(age), min(age), max(age), sum(age) FROM users",
    "SELECT count(DISTINCT city) FROM users",
    "SELECT max(age) - min(age) FROM users",
    "SELECT city, count(*), sum(age), avg(age) FROM users "
    "GROUP BY city ORDER BY city",
    "SELECT status, count(*) FROM orders GROUP BY status",
    "SELECT age FROM users ORDER BY age DESC LIMIT 3 OFFSET 1",
    "SELECT * FROM users ORDER BY city, age LIMIT 10",
    # un-LIMITed sorts run morsel-parallel (sorted runs + k-way merge)
    "SELECT * FROM users ORDER BY city DESC, age DESC",
    "SELECT * FROM users ORDER BY score DESC, id",        # NULL-heavy key
    "SELECT name, nickname FROM users ORDER BY nickname, name DESC",
    # LIMIT over a streaming chain: the pushed-down row budget makes the
    # batch engine scan (and charge) exactly the row engine's rows
    "SELECT * FROM users LIMIT 1",
    "SELECT name, age FROM users LIMIT 5 OFFSET 2",
    "SELECT DISTINCT city FROM users",
    "SELECT DISTINCT status FROM orders ORDER BY status",
    "SELECT name FROM users WHERE id = 7",                    # index scan
    "SELECT name FROM users WHERE id = 7 AND age > 0",        # index+residual
    "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id",
    "SELECT u.name, o.amount FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE u.age < 25 AND o.amount > 100",
    "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
    "WHERE u.age < 30",
    "SELECT count(*) FROM users, orders",                     # cross join
    "SELECT 2 + 3",
    "SELECT * FROM users WHERE nickname = 'nope'",            # NULL-heavy col
    "SELECT * FROM users WHERE nickname < 'zzz'",             # obj ordering
    # nullable numeric column: NULLs must not leak into vectorized compares
    "SELECT * FROM users WHERE score > 50",
    "SELECT * FROM users WHERE score IS NULL",
    "SELECT count(score), sum(score), avg(score), min(score), max(score) "
    "FROM users",
    "SELECT city, count(score), sum(score) FROM users GROUP BY city",
    "SELECT count(DISTINCT score) FROM users",
    # Table 1 workload predicates (the TRAIN ON / WHERE shapes)
    "SELECT count(*) FROM avazu WHERE click_rate IS NOT NULL",
    "SELECT f0, count(*), avg(click_rate) FROM avazu WHERE f1 >= 0 "
    "GROUP BY f0 ORDER BY f0 LIMIT 20",
    # fused-pipeline shapes (PR 5): multi-conjunct filters, computed
    # projections, join-probe chains, LIMIT, NULL-heavy columns
    "SELECT id, name FROM users WHERE age > 22 AND city <> 'ny' "
    "AND id % 2 = 0",
    "SELECT age * 2 + 1 AS a2, length(name) AS ln, "
    "coalesce(nickname, name) AS nm FROM users WHERE age BETWEEN 21 AND 50",
    "SELECT u.name, o.amount * 2 AS dbl FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE o.status = 'paid' AND u.age > 21",
    "SELECT u.city, count(*), sum(o.amount) FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE o.amount > 50 GROUP BY u.city",
    "SELECT id, name FROM users LIMIT 7 OFFSET 3",
    "SELECT u.name, o.oid FROM users u JOIN orders o ON u.id = o.user_id "
    "ORDER BY oid LIMIT 5",
    "SELECT score, nickname FROM users "
    "WHERE score IS NOT NULL OR nickname IS NULL",
    # computed-operand / non-constant LIKE (vectorized since PR 5)
    "SELECT name FROM users WHERE upper(name) LIKE 'USER1%'",
    "SELECT name FROM users WHERE coalesce(nickname, name) LIKE '%1%'",
]

# the fused-pipeline sweep: shapes whose stage chains exercise deferred
# masks, probe fusion, breakers, and early exit — run at several worker
# counts below, asserting rows AND charged totals against the row engine
FUSED_PIPELINE_QUERIES = [
    "SELECT id, name FROM users WHERE age > 22 AND city <> 'ny' "
    "AND id % 2 = 0",
    "SELECT age * 2 + 1 AS a2, length(name) AS ln, "
    "coalesce(nickname, name) AS nm FROM users WHERE age BETWEEN 21 AND 50",
    "SELECT u.name, o.amount * 2 AS dbl FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE o.status = 'paid' AND u.age > 21",
    "SELECT u.city, count(*), sum(o.amount) FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE o.amount > 50 GROUP BY u.city",
    "SELECT id, name FROM users LIMIT 7 OFFSET 3",
    "SELECT u.name, o.oid FROM users u JOIN orders o ON u.id = o.user_id "
    "ORDER BY oid LIMIT 5",
    "SELECT score, nickname FROM users "
    "WHERE score IS NOT NULL OR nickname IS NULL",
    "SELECT DISTINCT city FROM users WHERE age > 25",
    "SELECT count(score), sum(score) FROM users WHERE nickname IS NULL",
]


@pytest.fixture(scope="module")
def parity_db():
    db = repro.connect()
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT, nickname TEXT, score FLOAT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, user_id INT, "
               "amount FLOAT, status TEXT)")
    cities = ["sg", "ny", "ldn", "tok"]
    statuses = ["paid", "open", "void"]
    for i in range(60):
        nickname = f"'nick{i}'" if i % 3 == 0 else "NULL"
        score = "NULL" if i % 5 == 0 else f"{round(i * 1.7, 2)}"
        db.execute(f"INSERT INTO users VALUES ({i}, 'user{i}', "
                   f"{20 + i % 40}, '{cities[i % 4]}', {nickname}, {score})")
    for i in range(200):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 60}, "
                   f"{round(float(i) * 1.5 + 1, 2)}, '{statuses[i % 3]}')")
    db.execute("CREATE INDEX idx_users_id ON users (id)")
    # a slice of the Table 1 E-commerce workload table
    from repro.workloads.avazu import AvazuGenerator, load_into_db
    load_into_db(db, AvazuGenerator(seed=0), cluster=0, count=300)
    db.execute("ANALYZE")
    return db


def _typed(rows):
    """Rows with value types attached: 1 vs 1.0 must not compare equal."""
    return [tuple((type(v), v) for v in row) for row in rows]


def _fingerprint(value):
    """A task result as nested ``(type, repr)`` leaves: blocks, carriers,
    aggregate partials, typed columns and arrays by their public content
    (``_``-prefixed slots are derived caches)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype),
                [_fingerprint(item) for item in value.tolist()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_fingerprint(item) for item in value])
    slots = getattr(type(value), "__slots__", None)
    if slots is None or isinstance(value, (int, float, str)):
        return (type(value).__name__, repr(value))
    return (type(value).__name__,
            [(name, _fingerprint(getattr(value, name)))
             for name in slots if not name.startswith("_")])


@pytest.fixture(autouse=True)
def rerun_every_task(monkeypatch):
    """Run every dispatched task a second time on a fresh task clock and
    hold it to the first run: same result, same charges."""
    dispatch = DistributedScheduler.dispatch
    reruns = []

    def checked(self, units, fn):
        def twice(item, tclock):
            result = fn(item, tclock)
            again_clock = SimClock()
            again = fn(item, again_clock)
            reruns.append(item)
            assert _fingerprint(again) == _fingerprint(result)
            assert again_clock.breakdown() == tclock.breakdown()
            return result
        return dispatch(self, units, twice)

    monkeypatch.setattr(DistributedScheduler, "dispatch", checked)
    return reruns


def _parallel_engine(db):
    """The sweep's parallel executor: tiny morsels + several workers, so
    even the 60-row tables split into many morsels."""
    return Executor(db.catalog, db.clock, engine="parallel", workers=4,
                    morsel_rows=16)


def test_every_task_is_run_twice(parity_db, rerun_every_task):
    plan = parity_db.planner.plan_select(parse(
        "SELECT city, count(*), sum(score) FROM users GROUP BY city "
        "ORDER BY city"))
    stats = _parallel_engine(parity_db).run(plan).extra["parallel"]
    assert len(rerun_every_task) == stats["tasks"] > 0


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_query_parity(parity_db, sql):
    plan = parity_db.planner.plan_select(parse(sql))
    row_engine = Executor(parity_db.catalog, parity_db.clock, engine="row")
    batch_engine = Executor(parity_db.catalog, parity_db.clock,
                            engine="batch")
    expected = row_engine.run(plan)
    for engine in (batch_engine, _parallel_engine(parity_db)):
        got = engine.run(plan)
        assert got.columns == expected.columns
        assert len(got.rows) == len(expected.rows)
        assert _typed(got.rows) == _typed(expected.rows)
        # identical work => identical virtual time, modulo float accumulation
        assert got.virtual_seconds == pytest.approx(
            expected.virtual_seconds, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fused_pipeline_parity_across_workers(parity_db, workers):
    """The fused-pipeline sweep at workers 1/2/4: bit-identical rows
    (values, types, order) AND charged virtual-time totals against the
    row engine, for the serial fused driver and the morsel scheduler
    alike."""
    for sql in FUSED_PIPELINE_QUERIES:
        plan = parity_db.planner.plan_select(parse(sql))
        expected = Executor(parity_db.catalog, parity_db.clock,
                            engine="row").run(plan)
        for engine in (
                Executor(parity_db.catalog, parity_db.clock,
                         engine="batch"),
                Executor(parity_db.catalog, parity_db.clock,
                         engine="parallel", workers=workers,
                         morsel_rows=16)):
            got = engine.run(plan)
            assert _typed(got.rows) == _typed(expected.rows), sql
            assert got.virtual_seconds == pytest.approx(
                expected.virtual_seconds, rel=1e-6, abs=1e-9), sql


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fused_pipeline_nan_and_null_columns(workers):
    """Fused scan→filter→project chains over NaN-bearing and NULL-bearing
    float columns: NaN comparisons reject on every engine, the total-order
    sort buckets NaN deterministically, and grouped sums stay
    bit-identical at every worker count."""
    db = repro.connect()
    db.execute("CREATE TABLE g (k TEXT, v FLOAT, x FLOAT)")
    heap = db.catalog.table("g")
    nan = float("nan")
    values = [1.0, nan, -2.5, None, 0.0, nan, 7.25, None, 3.5, -0.5]
    for i, v in enumerate(values):
        heap.insert((["p", "q"][i % 2], v, float(i)))
    # (no ANALYZE: histogram stats reject NaN); warm the buffer pool so
    # the first engine's run doesn't eat the page-miss charges alone
    db.execute("SELECT count(*) FROM g")
    queries = [
        "SELECT k, v FROM g WHERE v > 0",
        "SELECT k, v FROM g WHERE v <= 1 AND x >= 0",
        "SELECT v, x FROM g ORDER BY v DESC, x",
        "SELECT k, count(v), sum(v) FROM g GROUP BY k",
        "SELECT v FROM g WHERE v IS NOT NULL",
    ]
    for sql in queries:
        plan = db.planner.plan_select(parse(sql))
        expected = Executor(db.catalog, db.clock, engine="row").run(plan)
        for engine in (
                Executor(db.catalog, db.clock, engine="batch"),
                Executor(db.catalog, db.clock, engine="parallel",
                         workers=workers, morsel_rows=2)):
            got = engine.run(plan)
            assert len(got.rows) == len(expected.rows), sql
            assert [tuple(repr(v) for v in row) for row in got.rows] == \
                [tuple(repr(v) for v in row) for row in expected.rows], sql
            assert got.virtual_seconds == pytest.approx(
                expected.virtual_seconds, rel=1e-6, abs=1e-9), sql


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_typed_storage_parity_across_workers(workers):
    """Typed columnar storage v2 shapes at workers 1/2/4: predicates over
    dictionary-coded string columns (equality both directions, <>, IN,
    LIKE — the int32 code fast paths), an all-NULL column, and GROUP BY
    keys mixing NaN and NULL.  Row engine is ground truth; the batch
    engine and the morsel-parallel engine must return bit-identical rows
    and charge identical virtual time."""
    db = repro.connect()
    db.execute("CREATE TABLE d (i INT, tag TEXT, hole TEXT, v FLOAT, "
               "w FLOAT)")
    heap = db.catalog.table("d")
    nan = float("nan")
    for i in range(90):
        v = [1.5, nan, None, -2.25, 0.0][i % 5]
        heap.insert((i, f"tag-{i % 7}", None, v, float(i % 13)))
    # no ANALYZE (histogram stats reject NaN); warm the buffer pool so
    # the first engine doesn't eat the page-miss charges alone
    db.execute("SELECT count(*) FROM d")
    queries = [
        # dictionary-code comparisons, literal on either side
        "SELECT i, tag FROM d WHERE tag = 'tag-3'",
        "SELECT i FROM d WHERE 'tag-5' = tag",
        "SELECT i, tag FROM d WHERE tag <> 'tag-1'",
        "SELECT i FROM d WHERE tag IN ('tag-2', 'tag-6', 'absent')",
        "SELECT i, tag FROM d WHERE tag LIKE 'tag-%'",
        "SELECT i FROM d WHERE tag LIKE '%-4'",
        "SELECT tag FROM d WHERE tag LIKE 'tag_2'",
        # the all-NULL column: every predicate family over pure NULLs
        "SELECT i FROM d WHERE hole = 'x'",
        "SELECT i FROM d WHERE hole IS NULL",
        "SELECT i FROM d WHERE hole IS NOT NULL",
        "SELECT i FROM d WHERE hole LIKE '%'",
        "SELECT hole, count(*) FROM d GROUP BY hole",
        "SELECT count(hole) FROM d",
        # GROUP BY with NaN and NULL keys interleaved
        "SELECT v, count(*), sum(w) FROM d GROUP BY v",
        "SELECT tag, count(v), sum(v) FROM d GROUP BY tag",
        "SELECT tag, hole, count(*) FROM d GROUP BY tag, hole",
    ]
    for sql in queries:
        plan = db.planner.plan_select(parse(sql))
        expected = Executor(db.catalog, db.clock, engine="row").run(plan)
        for engine in (
                Executor(db.catalog, db.clock, engine="batch"),
                Executor(db.catalog, db.clock, engine="parallel",
                         workers=workers, morsel_rows=16)):
            got = engine.run(plan)
            assert got.columns == expected.columns, sql
            # repr keeps NaN comparable and 1 vs 1.0 distinct
            assert [tuple((type(v), repr(v)) for v in row)
                    for row in got.rows] == \
                [tuple((type(v), repr(v)) for v in row)
                 for row in expected.rows], sql
            assert got.virtual_seconds == pytest.approx(
                expected.virtual_seconds, rel=1e-6, abs=1e-9), sql


# LIMIT plans: every block engine runs them through the same streaming
# driver (the placed engines on their serial lane), so rows, per-operator
# rows_out and per-category charges must be *identical*, not just close
LIMIT_QUERIES = [sql for sql in PARITY_QUERIES if " LIMIT " in sql] + [
    "SELECT id FROM users WHERE age > 30 LIMIT 4 OFFSET 1",
    "SELECT DISTINCT city FROM users LIMIT 2",
    # LIMIT over a join probe and over a nested-loop join: early exit
    # without any push-down
    "SELECT u.name, o.oid FROM users u JOIN orders o ON u.id = o.user_id "
    "LIMIT 9",
    "SELECT u.id, o.oid FROM users u, orders o LIMIT 7",
]

STREAMING_ENGINES = (
    [("batch", {})]
    + [("parallel", {"workers": w, "morsel_rows": 16}) for w in (1, 2, 4)]
    + [("distributed", {"nodes": n, "workers": 2, "morsel_rows": 16})
       for n in (1, 2, 4)])


def _tree_rows_out(op):
    out = [] if op.plan_node is None else [(op.plan_node.label, op.rows_out)]
    for attr in ("_child", "_left", "_right"):
        child = getattr(op, attr, None)
        if child is not None:
            out += _tree_rows_out(child)
    return out


def _run_charged(db, engine, kwargs, plan):
    """(result, per-operator rows_out, charged seconds by category)."""
    executor = Executor(db.catalog, db.clock, engine=engine, **kwargs)
    before = dict(db.clock.breakdown())
    result = executor.run(plan)
    charged = {category: seconds - before.get(category, 0.0)
               for category, seconds in db.clock.breakdown().items()
               if seconds != before.get(category, 0.0)}
    return result, _tree_rows_out(executor.last_run[1]), charged


@pytest.mark.parametrize("sql", LIMIT_QUERIES)
def test_limit_plans_identical_on_every_streaming_engine(parity_db, sql):
    plan = parity_db.planner.plan_select(parse(sql))
    row = Executor(parity_db.catalog, parity_db.clock, engine="row").run(plan)
    expected, expected_rows_out, expected_charged = _run_charged(
        parity_db, "batch", {}, plan)
    assert _typed(expected.rows) == _typed(row.rows)
    for engine, kwargs in STREAMING_ENGINES[1:]:
        got, rows_out, charged = _run_charged(parity_db, engine, kwargs,
                                              plan)
        where = f"{sql} on {engine} {kwargs}"
        assert _typed(got.rows) == _typed(expected.rows), where
        assert rows_out == expected_rows_out, where
        assert charged.keys() == expected_charged.keys(), where
        for category, seconds in charged.items():
            # the same charge sequence lands on a fresh lane instead of
            # the long-running shared clock: equal up to the last ulp of
            # the shared clock's running total
            assert seconds == pytest.approx(expected_charged[category],
                                            rel=1e-9, abs=1e-12), where
        stats = got.extra[engine]
        assert stats["tasks"] == 0, where     # nothing dispatched eagerly


def test_candidate_plans_parity(parity_db):
    """Every candidate plan agrees across engines, not just the chosen one."""
    sql = ("SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
           "WHERE u.age > 30 AND o.amount < 200")
    candidates = parity_db.planner.candidate_plans(parse(sql), 12)
    assert len(candidates) >= 2
    row_engine = Executor(parity_db.catalog, parity_db.clock, engine="row")
    batch_engine = Executor(parity_db.catalog, parity_db.clock,
                            engine="batch")
    for candidate in candidates:
        expected = row_engine.run(candidate).rows
        assert batch_engine.run(candidate).rows == expected
        assert _parallel_engine(parity_db).run(candidate).rows == expected


def test_rows_out_accounting_parity(parity_db):
    plan = parity_db.planner.plan_select(
        parse("SELECT * FROM users WHERE age >= 30"))
    row_engine = Executor(parity_db.catalog, parity_db.clock, engine="row")
    op_row = row_engine.build(plan)
    rows = list(row_engine.iter_rows(op_row))
    for engine in (Executor(parity_db.catalog, parity_db.clock,
                            engine="batch"),
                   _parallel_engine(parity_db)):
        op = engine.build(plan)
        produced = list(engine.iter_rows(op))
        assert len(rows) == len(produced)
        assert op_row.rows_out == op.rows_out


def test_division_by_zero_parity(parity_db):
    from repro.common.errors import ExecutionError
    sql = "SELECT * FROM users WHERE age / (age - age) > 1"
    plan = parity_db.planner.plan_select(parse(sql))
    for engine in ("row", "batch", "parallel"):
        executor = Executor(parity_db.catalog, parity_db.clock, engine=engine)
        with pytest.raises(ExecutionError):
            executor.run(plan)


def test_guarded_division_short_circuit_parity():
    """A zero divisor behind an AND guard must not raise in either engine:
    vector evaluation defers the error decision to row semantics."""
    db = repro.connect()
    db.execute("CREATE TABLE d (id INT, x INT)")
    db.execute("INSERT INTO d VALUES (1, 0)")
    db.execute("INSERT INTO d VALUES (2, 5)")
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT id FROM d WHERE x <> 0 AND 10 / x > 1"))
    for engine in ("row", "batch", "parallel"):
        result = Executor(db.catalog, db.clock, engine=engine).run(plan)
        assert result.rows == [(2,)]


@pytest.mark.parametrize("base", [2 ** 53, 2 ** 60])
def test_big_integer_precision_parity(base):
    """Integers at and beyond 2^53 must not be collapsed by the float64
    view — including the boundary case where base+1 rounds down onto an
    exactly-representable base, and literals that float64 cannot hold."""
    db = repro.connect()
    db.execute("CREATE TABLE big (id INT, x INT)")
    db.execute(f"INSERT INTO big VALUES (1, {base + 1})")
    db.execute(f"INSERT INTO big VALUES (2, {base})")
    for target, expect in ((base, [(2,)]), (base + 1, [(1,)])):
        plan = db.planner.plan_select(
            parse(f"SELECT id FROM big WHERE x = {target}"))
        for engine in ("row", "batch", "parallel"):
            result = Executor(db.catalog, db.clock, engine=engine).run(plan)
            assert result.rows == expect


def test_train_filter_skips_null_target_rows():
    """The WITH predicate must never evaluate rows whose target is NULL
    (the row engine skipped them first; a predicate that errors on such a
    row must not break training)."""
    db = repro.connect()
    db.execute("CREATE TABLE p (a FLOAT, b FLOAT, y FLOAT)")
    db.execute("INSERT INTO p VALUES (1.0, 0.0, NULL)")  # would divide by 0
    for i in range(20):
        db.execute(f"INSERT INTO p VALUES ({i}.5, {i + 1}.0, {i * 0.1})")
    result = db.execute("PREDICT VALUE OF y FROM p TRAIN ON a, b "
                        "WITH a / b > 0")
    assert len(result.rows) == 21


def test_filtered_limit_cost_bounded():
    """LIMIT over a filtered scan may overshoot the row engine's virtual
    time only by the pushed-down batch (offset+limit+1 scanned rows), not
    by a full default-sized block.  (It may also legitimately stop earlier:
    the row engine scans ahead for the extra row that triggers its stop.)"""
    from repro.common.simtime import CostModel
    db = repro.connect()
    db.execute("CREATE TABLE f (id INT, v INT)")
    heap = db.catalog.table("f")
    for i in range(5000):
        heap.insert((i, i % 10))
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT id FROM f WHERE v = 3 LIMIT 2"))
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    batch = Executor(db.catalog, db.clock, engine="batch").run(plan)
    assert batch.rows == row.rows
    bound = 3 * (CostModel.TUPLE_CPU + CostModel.EVAL_PREDICATE)
    assert batch.virtual_seconds <= row.virtual_seconds + bound


def test_nan_group_key_parity():
    """NaN group keys (insertable via the heap API) must not corrupt
    grouped results: both engines group NaN by object identity."""
    db = repro.connect()
    db.execute("CREATE TABLE g (k FLOAT, v INT)")
    heap = db.catalog.table("g")
    nan = float("nan")
    heap.insert((1.0, 10))
    heap.insert((nan, 20))
    heap.insert((1.0, 30))
    heap.insert((nan, 40))  # (no ANALYZE: histogram stats reject NaN)
    plan = db.planner.plan_select(
        parse("SELECT k, count(*), sum(v) FROM g GROUP BY k"))
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    for engine in (Executor(db.catalog, db.clock, engine="batch"),
                   Executor(db.catalog, db.clock, engine="parallel",
                            workers=2, morsel_rows=2)):
        got = engine.run(plan)
        assert len(got.rows) == len(row.rows)
        assert [(repr(k), c, s) for k, c, s in got.rows] \
            == [(repr(k), c, s) for k, c, s in row.rows]


def test_nan_min_max_ignore_block_boundaries():
    """``min`` / ``max`` fold left to right with ``<`` / ``>``, and NaN
    compares false both ways, so over a NaN-bearing column the answer
    depends on where the fold starts — it must not restart per block.
    The batch engine's first fused-scan block (and the fourth default
    morsel) ends between the 2.0 / 0.0 and the NaN."""
    db = repro.connect()
    db.execute("CREATE TABLE m (lo FLOAT, hi FLOAT)")
    heap = db.catalog.table("m")
    nan = float("nan")
    for _ in range(FUSED_SCAN_ROWS - 1):
        heap.insert((1.0, 1.0))
    for lo, hi in [(2.0, 0.0), (nan, nan), (0.0, 2.0)]:
        heap.insert((lo, hi))  # (NaN is insertable via the heap API)
    plan = db.planner.plan_select(parse("SELECT min(lo), max(hi) FROM m"))
    for kwargs in (dict(engine="row"), dict(engine="batch"),
                   dict(engine="parallel", workers=2),
                   dict(engine="distributed", nodes=2, workers=2)):
        got = Executor(db.catalog, db.clock, **kwargs).run(plan)
        assert got.rows == [(0.0, 2.0)], kwargs


def test_high_cardinality_group_by_parity():
    """GROUP BY over a near-unique column crosses the mask-partition
    cutoff mid-query; both partition strategies must agree."""
    db = repro.connect()
    db.execute("CREATE TABLE hc (k INT, v FLOAT)")
    heap = db.catalog.table("hc")
    for i in range(3000):
        heap.insert((i % 2000, float(i)))
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT k, count(*), sum(v) FROM hc GROUP BY k"))
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    batch = Executor(db.catalog, db.clock, engine="batch").run(plan)
    parallel = Executor(db.catalog, db.clock, engine="parallel").run(plan)
    assert _typed(batch.rows) == _typed(row.rows)
    assert _typed(parallel.rows) == _typed(row.rows)


# representative sweep shapes for the sharded-table parity matrix: every
# operator family plus NULL-heavy columns and fallback expression forms
SHARDED_PARITY_QUERIES = [
    "SELECT * FROM users",
    "SELECT id, name FROM users WHERE age >= 30",
    "SELECT * FROM users WHERE name LIKE 'user1%'",
    "SELECT * FROM users WHERE nickname IS NULL",
    "SELECT count(*) FROM users",
    "SELECT avg(age), min(age), max(age), sum(age) FROM users",
    "SELECT city, count(*), sum(age), avg(age) FROM users "
    "GROUP BY city ORDER BY city",
    "SELECT city, count(score), sum(score) FROM users GROUP BY city",
    "SELECT * FROM users ORDER BY city DESC, age DESC",
    "SELECT * FROM users ORDER BY score DESC, id",
    "SELECT age FROM users ORDER BY age DESC LIMIT 3 OFFSET 1",
    "SELECT DISTINCT city FROM users",
    "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id",
    "SELECT u.name, o.amount FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE u.age < 25 AND o.amount > 100",
    "SELECT u.city, count(*), sum(o.amount) FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE o.amount > 50 GROUP BY u.city",
    "SELECT status, count(*) FROM orders GROUP BY status",
]


@pytest.fixture(scope="module")
def sharded_parity_db():
    """The parity fixture's tables, hash-partitioned across 3 shards —
    deliberately not a multiple of any node count the sweep uses, so
    shard->node placement is always uneven."""
    db = repro.connect(shards=3)
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT, nickname TEXT, score FLOAT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, user_id INT, "
               "amount FLOAT, status TEXT)")
    cities = ["sg", "ny", "ldn", "tok"]
    statuses = ["paid", "open", "void"]
    for i in range(60):
        nickname = f"'nick{i}'" if i % 3 == 0 else "NULL"
        score = "NULL" if i % 5 == 0 else f"{round(i * 1.7, 2)}"
        db.execute(f"INSERT INTO users VALUES ({i}, 'user{i}', "
                   f"{20 + i % 40}, '{cities[i % 4]}', {nickname}, {score})")
    for i in range(200):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 60}, "
                   f"{round(float(i) * 1.5 + 1, 2)}, '{statuses[i % 3]}')")
    db.execute("ANALYZE")
    return db


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_distributed_parity(sharded_parity_db, nodes, workers):
    """The distributed engine over hash-partitioned tables at every
    node x worker combination: bit-identical rows against the batch
    engine, and total charged time equal up to the network overhead
    (zero at one node)."""
    db = sharded_parity_db
    for sql in SHARDED_PARITY_QUERIES:
        plan = db.planner.plan_select(parse(sql))
        expected = Executor(db.catalog, db.clock, engine="batch").run(plan)
        got = Executor(db.catalog, db.clock, engine="distributed",
                       nodes=nodes, workers=workers,
                       morsel_rows=16).run(plan)
        assert got.columns == expected.columns, sql
        assert _typed(got.rows) == _typed(expected.rows), \
            f"{sql} nodes={nodes} workers={workers}"
        stats = got.extra["distributed"]
        network = stats["exchange_seconds"]
        if nodes == 1:
            assert network == 0.0, sql
        assert got.virtual_seconds - network == pytest.approx(
            expected.virtual_seconds, rel=1e-6, abs=1e-9), sql


def test_sharded_range_partition_distributed_parity():
    """Range partitioning: boundary routing must not change results or
    charged compute at any node count."""
    from repro.storage.schema import Column, DataType, TableSchema
    db = repro.connect()
    schema = TableSchema("ev", [Column("ts", DataType.INT),
                                Column("grp", DataType.TEXT),
                                Column("val", DataType.FLOAT)])
    table = db.catalog.create_table(schema, partition="ts",
                                    partition_kind="range",
                                    boundaries=[80, 160, 240], shards=4)
    for i in range(320):
        table.insert((i, f"g{i % 9}", round(i * 0.25, 2)))
    queries = [
        "SELECT grp, count(*), sum(val) FROM ev GROUP BY grp ORDER BY grp",
        "SELECT ts, val FROM ev WHERE ts BETWEEN 70 AND 170 ORDER BY ts",
        "SELECT count(*) FROM ev WHERE val > 40",
    ]
    for sql in queries:
        plan = db.planner.plan_select(parse(sql))
        expected = Executor(db.catalog, db.clock, engine="batch").run(plan)
        for nodes in (1, 2, 4):
            got = Executor(db.catalog, db.clock, engine="distributed",
                           nodes=nodes, workers=2).run(plan)
            assert _typed(got.rows) == _typed(expected.rows), \
                f"{sql} nodes={nodes}"


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_sharded_nan_null_shuffle_keys(nodes):
    """NaN and NULL values in the shuffle key: the stable-hash
    repartition must keep them distinct and grouped identically to the
    single-node engines."""
    db = repro.connect(shards=4)
    db.execute("CREATE TABLE g (k FLOAT, tag TEXT, v FLOAT)")
    table = db.catalog.table("g")
    nan = float("nan")
    keys = [1.0, nan, None, -2.5, 0.0, nan, None, 3.25]
    for i in range(160):
        table.insert((keys[i % len(keys)], f"t{i % 5}", float(i)))
    queries = [
        "SELECT k, count(*), sum(v) FROM g GROUP BY k",
        "SELECT tag, count(k), sum(k) FROM g GROUP BY tag ORDER BY tag",
        "SELECT k, v FROM g ORDER BY k DESC, v",
    ]
    for sql in queries:
        plan = db.planner.plan_select(parse(sql))
        expected = Executor(db.catalog, db.clock, engine="batch").run(plan)
        got = Executor(db.catalog, db.clock, engine="distributed",
                       nodes=nodes, workers=2, morsel_rows=16).run(plan)
        assert [tuple(repr(v) for v in row) for row in got.rows] == \
            [tuple(repr(v) for v in row) for row in expected.rows], sql


class TestTrainingDataParity:
    """The columnar AI feed must match the legacy per-row materialization."""

    def test_training_set_matches_row_loop(self, parity_db):
        from repro.ai.loader import table_training_set
        heap = parity_db.catalog.table("orders")
        schema = heap.schema
        data = table_training_set(heap, ["user_id", "amount"], "amount")
        uidx, aidx = schema.index_of("user_id"), schema.index_of("amount")
        expected_rows, expected_targets = [], []
        for _, row in heap.scan():
            if row[aidx] is None:
                continue
            expected_rows.append((row[uidx], row[aidx]))
            expected_targets.append(float(row[aidx]))
        assert data.rows() == expected_rows
        assert np.array_equal(data.targets, np.array(expected_targets))

    def test_feature_columns_match_row_loop(self, parity_db):
        """The inference materializer keeps NULL-target rows (the training
        one drops them) and hands back the raw target beside its mask."""
        from repro.ai.loader import table_feature_columns
        from repro.exec.expr import RowLayout, compile_predicate_batch
        heap = parity_db.catalog.table("users")
        schema = heap.schema
        layout = RowLayout.of_table("users", schema)
        predicate = compile_predicate_batch(
            parse("SELECT 1 FROM users WHERE age >= 40").where, layout)
        clock = SimClock()
        features, targets, null = table_feature_columns(
            heap, ["age", "city"], block_predicate=predicate,
            target_column="score", clock=clock)
        kept = [row for _, row in heap.scan() if row[2] >= 40]
        assert features.rows() == [(row[2], row[3]) for row in kept]
        assert targets.tolist() == [row[5] for row in kept]
        assert null.tolist() == [row[5] is None for row in kept]
        assert null.any() and not null.all()
        assert clock.category_total("predict-materialize") == \
            pytest.approx(60 * CostModel.TUPLE_CPU)
        bare, no_targets, no_null = table_feature_columns(
            heap, ["age", "city"], block_predicate=predicate)
        assert bare.rows() == features.rows()
        assert no_targets is None and no_null is None

    def test_nothing_selected_is_an_empty_hand_off(self, parity_db):
        from repro.ai.loader import table_feature_columns, table_training_set
        heap = parity_db.catalog.table("users")

        def nobody(block):
            return np.zeros(len(block), dtype=bool)
        features, targets, null = table_feature_columns(
            heap, ["age", "city"], block_predicate=nobody,
            target_column="score")
        assert len(features) == 0 and len(features.columns) == 2
        assert len(targets) == 0 and null.dtype == bool and len(null) == 0
        data = table_training_set(heap, ["age", "city"], "score",
                                  block_predicate=nobody)
        assert len(data) == 0 and len(data.columns) == 2
        assert data.targets.dtype == np.float64

    def test_training_filter_never_sees_a_null_target(self, parity_db):
        from repro.ai.loader import table_training_set
        heap = parity_db.catalog.table("users")
        score = heap.schema.index_of("score")
        seen = []

        def spy(block):
            seen.extend(block.column(score).tolist())
            return np.ones(len(block), dtype=bool)
        data = table_training_set(heap, ["age"], "score",
                                  block_predicate=spy)
        assert len(seen) == len(data) == 48 and None not in seen

    def test_hasher_columns_match_rows(self, parity_db):
        from repro.ai.armnet import FeatureHasher
        heap = parity_db.catalog.table("users")
        rows = [(row[2], row[3], row[4]) for _, row in heap.scan()]
        columns = [np.array([r[j] for r in rows], dtype=object)
                   for j in range(3)]
        hasher = FeatureHasher(field_count=3)
        assert np.array_equal(hasher.transform(rows),
                              hasher.transform_columns(columns))

    def test_streaming_loader_columnar_batches_match(self, parity_db):
        from repro.ai.armnet import FeatureHasher
        from repro.ai.loader import ColumnTrainingSet, StreamingDataLoader
        heap = parity_db.catalog.table("orders")
        rows = [(row[1], row[2]) for _, row in heap.scan()]
        targets = [float(row[2]) for _, row in heap.scan()]
        hasher = FeatureHasher(field_count=2)
        columnar = ColumnTrainingSet(
            [np.array([r[0] for r in rows], dtype=object),
             np.array([r[1] for r in rows], dtype=object)],
            np.array(targets))
        row_batches = list(StreamingDataLoader(rows, targets, hasher,
                                               batch_size=64))
        col_batches = list(StreamingDataLoader(columnar, columnar.targets,
                                               hasher, batch_size=64))
        assert len(row_batches) == len(col_batches)
        for (ids_r, t_r), (ids_c, t_c) in zip(row_batches, col_batches):
            assert np.array_equal(ids_r, ids_c)
            assert np.array_equal(t_r, t_c)

    def test_train_losses_identical_row_vs_columnar(self, parity_db):
        """End-to-end: identical batches => identical gradient trajectory."""
        from repro.ai.engine import AIEngine
        from repro.ai.loader import table_training_set
        from repro.ai.tasks import TrainTask
        from repro.common.simtime import SimClock
        heap = parity_db.catalog.table("orders")
        schema = heap.schema
        data = table_training_set(heap, ["user_id", "amount"], "amount")
        aidx = schema.index_of("amount")
        uidx = schema.index_of("user_id")
        rows = [(row[uidx], row[aidx]) for _, row in heap.scan()
                if row[aidx] is not None]
        targets = [float(row[aidx]) for _, row in heap.scan()
                   if row[aidx] is not None]

        def run(train_rows, train_targets):
            engine = AIEngine(clock=SimClock())
            task = TrainTask(model_name="parity", task_type="regression",
                             field_count=2, epochs=2, batch_size=64)
            return engine.train(task, train_rows, train_targets)

        result_rows = run(rows, targets)
        result_cols = run(data, data.targets)
        assert result_rows.losses == result_cols.losses
        assert (result_rows.samples_processed
                == result_cols.samples_processed)
