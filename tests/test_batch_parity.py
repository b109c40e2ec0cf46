"""Batch vs parallel vs distributed engine parity, held to references.

Every fixture query runs on the block engines against the same catalog
and is held to its recorded answer (``tests/answers.py``,
``answers_golden.json``): *bit-identical* rows (values and Python types)
in the same order, the same column names, every operator's ``rows_out``
and each category's charged seconds.  The fixture corpus is also held to
stdlib ``sqlite3`` on the same rows (``test_parity_rows_held_to_sqlite``,
under the allowlist of ``test_sql_differential.py``).  The query list
covers every operator and every expression family the vectorizer
handles, plus the fallback cases (non-constant LIKE, scalar functions)
and the Table 1 workload predicates.  The parallel engine runs with
deliberately tiny morsels (16 rows) and several workers so every query
exercises real morsel splitting, per-morsel partials, and the
morsel-order merge; where a placement is the subject, the reference is
the batch engine on the same plan.

Every placed task of this file also runs **twice** (``rerun_every_task``):
the scheduler re-executes a morsel after a transient failure and models a
phase's tasks as overlapping, which is only right if a task hook leaves
nothing behind — the second run, on a fresh clock, must return the same
result and make the same charges.  ``analysis/races.py`` holds the same
contract statically; this is its dynamic half.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ai.loader import ColumnFeatures
from repro.common.simtime import CostModel, SimClock
from repro.exec.batch import RowBlock
from repro.exec.distributed import DistributedScheduler
from repro.exec.executor import Executor
from repro.exec.pipeline import FUSED_SCAN_ROWS
from repro.obs.trace import Tracer
from repro.plan import logical
from repro.sql import parse
from repro.storage import TypedColumn

from answers import run_charged
from sqlite_oracle import assert_held_to_sqlite, sqlite_mirror

# computed values — a projection item, a group key, an aggregate
# argument, an aggregate result item, a sort key — and one query per
# fallback of expr.compile_values_batch: an INT literal float64 cannot
# hold, an INT result past 2^53, a zero divisor on rows the WHERE clause
# rejects, a two-argument round (also a sort key kept in "obj"), and a
# LIKE over a number
COMPUTED_QUERIES = [
    "SELECT id, age * 3 - 1, score * 2.0 + 1, age > 30 AND score < 50, "
    "-age, coalesce(nickname, city), floor(score), age / 4 "
    "FROM users WHERE age < 55",
    "SELECT age % 7, count(*), sum(score) FROM users GROUP BY age % 7",
    "SELECT city, sum(age * 2), avg(score * 0.5), max(length(name)), "
    "count(DISTINCT age % 5) FROM users GROUP BY city",
    "SELECT city, sum(age) * 2 + count(*), abs(min(score) - max(score)), "
    "coalesce(max(nickname), 'none'), sum(score) IS NULL, "
    "max(age) BETWEEN 30 AND 50, min(age) IN (20, 21) "
    "FROM users GROUP BY city",
    "SELECT id, age, score FROM users ORDER BY age * -1, score DESC, id",
    "SELECT id, age * 9007199254740993 FROM users",
    "SELECT id, age * 4503599627370496 FROM users",
    "SELECT id, 100 / (age - 20), 7 % (age - 20) FROM users WHERE age > 20",
    "SELECT id, score, round(score, 1) FROM users "
    "ORDER BY round(score, 1) DESC, id",
    "SELECT id, age * 2 LIKE '4%' FROM users",
]

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
    # batch engine scan (and charge) exactly the rows LIMIT needs
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
    *COMPUTED_QUERIES,
]

# the fused-pipeline sweep: shapes whose stage chains exercise deferred
# masks, probe fusion, breakers, and early exit — run at several worker
# counts below, asserting rows AND charged totals against the record
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
    return _parity_db()


def _parity_db():
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
    # the empty right (or left) side of a nested-loop join
    db.execute("CREATE TABLE nobody (k INT, label TEXT)")
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


# -- the fixture corpus against sqlite3 -----------------------------------------
#
# ``tests/test_sql_differential.py``'s allowlist, applied to the fixture
# corpus by ``sqlite_oracle.py``.  The queries whose values sqlite
# cannot give, each with its rule:
SQLITE_DIFFERS = {
    COMPUTED_QUERIES[0]:
        "INT / INT is true division here (age / 4), truncating in sqlite",
    "SELECT id, 100 / (age - 20), 7 % (age - 20) FROM users "
    "WHERE age > 20": "INT / INT is true division here, truncating in "
                      "sqlite",
}


@pytest.fixture(scope="module")
def parity_mirror(parity_db):
    return sqlite_mirror(parity_db, ("users", "orders", "nobody", "avazu"))


@pytest.mark.parametrize("sql", [
    sql for sql in dict.fromkeys(PARITY_QUERIES + FUSED_PIPELINE_QUERIES)
    if sql not in SQLITE_DIFFERS])
def test_parity_rows_held_to_sqlite(parity_db, parity_mirror, sql):
    assert_held_to_sqlite(parity_db, parity_mirror, sql)


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
def test_query_parity(parity_db, sql, answers):
    plan = parity_db.planner.plan_select(parse(sql))
    for engine, kwargs in (("batch", {}),
                           ("parallel", {"workers": 4, "morsel_rows": 16})):
        _check_parity(answers, sql,
                      *run_charged(parity_db, engine, kwargs, plan))


def _check_parity(answers, sql, got, rows_out, charged):
    """Hold a fixture query's run to its record.  A LIMIT stops its
    source on a block boundary, so a LIMIT plan's rows_out below the cut
    are each engine's own (``test_limit_plans_identical_...`` holds them
    across engines)."""
    answers.check("parity:" + sql, got,
                  None if " LIMIT " in sql else rows_out, charged)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fused_pipeline_parity_across_workers(parity_db, workers, answers):
    """The fused-pipeline sweep at workers 1/2/4: bit-identical rows
    (values, types, order), rows_out AND charges against the record, for
    the serial fused driver and the morsel scheduler alike."""
    for sql in FUSED_PIPELINE_QUERIES:
        plan = parity_db.planner.plan_select(parse(sql))
        for engine, kwargs in (("batch", {}),
                               ("parallel", {"workers": workers,
                                             "morsel_rows": 16})):
            _check_parity(answers, sql,
                          *run_charged(parity_db, engine, kwargs, plan))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fused_pipeline_nan_and_null_columns(workers, answers):
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
        for engine, kwargs in (("batch", {}),
                               ("parallel", {"workers": workers,
                                             "morsel_rows": 2})):
            answers.check("nan-null:" + sql,
                          *run_charged(db, engine, kwargs, plan))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_typed_storage_parity_across_workers(workers, answers):
    """Typed columnar storage v2 shapes at workers 1/2/4: predicates over
    dictionary-coded string columns (equality both directions, <>, IN,
    LIKE — the int32 code fast paths), an all-NULL column, and GROUP BY
    keys mixing NaN and NULL.  The batch engine and the morsel-parallel
    engine must return the recorded rows bit for bit and charge the
    recorded virtual time."""
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
        for engine, kwargs in (("batch", {}),
                               ("parallel", {"workers": workers,
                                             "morsel_rows": 16})):
            answers.check("typed-storage:" + sql,
                          *run_charged(db, engine, kwargs, plan))


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


@pytest.mark.parametrize("sql", LIMIT_QUERIES)
def test_limit_plans_identical_on_every_streaming_engine(parity_db, sql,
                                                        answers):
    plan = parity_db.planner.plan_select(parse(sql))
    expected, expected_rows_out, expected_charged = run_charged(
        parity_db, "batch", {}, plan)
    answers.check("parity:" + sql, expected)
    for engine, kwargs in STREAMING_ENGINES[1:]:
        got, rows_out, charged = run_charged(parity_db, engine, kwargs,
                                             plan)
        where = f"{sql} on {engine} {kwargs}"
        assert _typed(got.rows) == _typed(expected.rows), where
        assert rows_out == expected_rows_out, where
        # a LIMIT plan takes the streaming driver on the shared clock on
        # every block engine: the same charges, not just close ones
        assert charged == expected_charged, where


PLANS_GOLDEN = Path(__file__).with_name("candidate_plans_golden.json")


def candidate_plan_dump() -> dict:
    """``repr`` of every node's ``est_rows`` / ``est_cost`` and the
    ``pretty()`` text of every ``candidate_plans`` entry, for the parity
    corpus on a fresh parity database and the eight STATS queries on a
    small STATS database — the planner's every estimate, to the bit."""
    from repro.workloads.stats import QUERIES, build_stats_db
    from test_workloads import SMALL_SCALE

    def dump(db, queries):
        return {sql: [{"pretty": plan.pretty(),
                       "est": [[repr(node.est_rows), repr(node.est_cost)]
                               for node in plan.walk()]}
                      for plan in db.planner.candidate_plans(parse(sql))]
                for sql in queries}
    return {"parity": dump(_parity_db(), PARITY_QUERIES),
            "stats": dump(build_stats_db(scale=SMALL_SCALE, seed=0),
                          QUERIES)}


def test_candidate_plans_cost_as_recorded():
    """Candidate plans and their estimates are pinned by
    ``candidate_plans_golden.json`` (``PLANS_RECORD=1`` rewrites it): a
    planner change that means to keep every estimate shows it here."""
    dump = candidate_plan_dump()
    if os.environ.get("PLANS_RECORD") == "1":
        PLANS_GOLDEN.write_text(json.dumps(dump, indent=1) + "\n")
    assert dump == json.loads(PLANS_GOLDEN.read_text())


def test_candidate_plans_parity(parity_db, answers):
    """Every candidate plan gives the recorded answer on every engine, not
    just the chosen one."""
    sql = ("SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
           "WHERE u.age > 30 AND o.amount < 200")
    candidates = parity_db.planner.candidate_plans(parse(sql), 12)
    assert len(candidates) >= 2
    batch_engine = Executor(parity_db.catalog, parity_db.clock,
                            engine="batch")
    for candidate in candidates:
        expected = batch_engine.run(candidate)
        answers.check("parity-candidate:" + logical.plan_signature(candidate),
                      expected)
        assert _parallel_engine(parity_db).run(candidate).rows \
            == expected.rows


JOIN_QUERIES = [sql for sql in PARITY_QUERIES
                if " JOIN " in sql or "FROM users, orders" in sql]


def test_running_a_candidate_never_writes_it(parity_db, monkeypatch):
    """Candidate trees share their access paths, so nothing that reads a
    plan may write one: every node's fields after the engines, EXPLAIN
    ANALYZE and the learned optimizers' read paths have run over every
    candidate are what the planner made."""
    from repro.learned.qo.bao import HINT_SETS, plan_under_hints
    from repro.learned.qo.features import PlanFeaturizer
    from repro.learned.qo.lero import LeroOptimizer
    from repro.learned.qo.optimizer import LearnedQueryOptimizer
    from repro.obs.explain import explain_analyze

    assert len(JOIN_QUERIES) >= 4
    planned = {sql: parity_db.planner.candidate_plans(parse(sql))
               for sql in JOIN_QUERIES}
    nodes = {id(node): node for candidates in planned.values()
             for candidate in candidates for node in candidate.walk()}
    snapshot = {key: dict(vars(node)) for key, node in nodes.items()}
    lero = LeroOptimizer()
    for sql, candidates in planned.items():
        for engine, kwargs in (("batch", {}),
                               ("parallel", {"workers": 2,
                                             "morsel_rows": 16}),
                               ("distributed", {"nodes": 2,
                                                "morsel_rows": 16})):
            for candidate in candidates:
                clock = SimClock()
                tracer = Tracer()
                tracer.attach(clock)
                executor = Executor(parity_db.catalog, clock, engine=engine,
                                    **kwargs)
                result = executor.run(candidate)
                explain_analyze(candidate, executor.last_run[1], tracer,
                                result.extra.get("parallel"),
                                result.extra.get("distributed"))
        # the learned optimizers, handed these very trees
        monkeypatch.setattr(parity_db.planner, "candidate_plans",
                            lambda select, max_candidates=16: candidates)
        for hint in HINT_SETS:
            assert plan_under_hints(parity_db, parse(sql), hint) \
                in candidates
        for candidate in candidates:
            PlanFeaturizer().featurize(candidate)
            lero._pooled(candidate)
        LearnedQueryOptimizer().collect_samples(parity_db, sql)
        monkeypatch.undo()
    assert {key: dict(vars(node)) for key, node in nodes.items()} \
        == snapshot


def test_rows_out_accounting_parity(parity_db, answers):
    sql = "SELECT * FROM users WHERE age >= 30"
    plan = parity_db.planner.plan_select(parse(sql))
    for engine, kwargs in (("batch", {}),
                           ("parallel", {"workers": 4, "morsel_rows": 16})):
        got, rows_out, _ = run_charged(parity_db, engine, kwargs, plan)
        answers.check("parity:" + sql, got, rows_out)


@pytest.mark.parametrize("sql", COMPUTED_QUERIES)
def test_computed_values_on_every_engine(parity_db, sql, answers):
    """Computed values and their fallbacks: rows, value types, every
    operator's rows_out and the recorded charges, on batch, parallel and
    distributed (network charges aside)."""
    plan = parity_db.planner.plan_select(parse(sql))
    for engine, kwargs in (
            ("batch", {}), ("parallel", {"workers": 4, "morsel_rows": 16}),
            ("distributed", {"nodes": 2, "workers": 2, "morsel_rows": 16})):
        answers.check("parity:" + sql,
                      *run_charged(parity_db, engine, kwargs, plan))


EVERY_ENGINE = (("batch", {}),
                ("parallel", {"workers": 2, "morsel_rows": 2}),
                ("distributed", {"nodes": 2, "morsel_rows": 2}))


def _on_every_engine(db, sql):
    """The rows of ``sql`` on each engine, with their value types."""
    plan = db.planner.plan_select(parse(sql))
    return [_typed(Executor(db.catalog, db.clock, engine=engine, **kwargs)
                   .run(plan).rows) for engine, kwargs in EVERY_ENGINE]


@pytest.fixture(scope="module")
def value_db():
    db = repro.connect()
    db.execute("CREATE TABLE n (id INT, v INT, w FLOAT, b BOOL)")
    db.execute("INSERT INTO n VALUES (1, 7, 2.5, TRUE)")
    db.execute("ANALYZE")
    return db


@pytest.mark.parametrize("expr", [
    "floor(v)", "ceil(v)", "round(v)", "floor(w)", "ceil(w)", "round(w)",
    "coalesce(v, 2.5)", "coalesce(b, 5)", "coalesce(w, v)", "sum(b)",
    "sum(v)", "avg(v)", "-b"])
def test_values_have_the_type_bind_time_names(value_db, expr):
    from repro.exec.expr import RowLayout, expr_type
    from repro.storage.types import DataType
    layout = RowLayout.of_table("n", value_db.catalog.table("n").schema)
    dtype = expr_type(parse(f"SELECT {expr} FROM n").items[0].expr, layout)
    python_type = {DataType.INT: int, DataType.FLOAT: float,
                   DataType.BOOL: bool}[dtype]
    for rows in _on_every_engine(value_db, f"SELECT {expr} FROM n"):
        assert [value_type for ((value_type, _),) in rows] == [python_type]


def test_floor_ceil_round_pass_inf_and_nan_through():
    db = repro.connect()
    db.execute("CREATE TABLE f (id INT, w FLOAT)")
    for i, w in enumerate(("1e308", "1e308", "2.5", "-0.5", "NULL"), 1):
        db.execute(f"INSERT INTO f VALUES ({i}, {w})")
    db.execute("UPDATE f SET w = w * 10 WHERE id = 1")              # inf
    db.execute("UPDATE f SET w = w * 10 - w * 10 WHERE id = 2")     # NaN
    for engine in _on_every_engine(
            db, "SELECT id FROM f WHERE floor(w) > 0 OR ceil(w) < 0"):
        assert engine == _typed([(1,), (3,)])
    projected = [[tuple((t, repr(v)) for t, v in row) for row in rows]
                 for rows in _on_every_engine(
                     db, "SELECT floor(w), ceil(w), round(w) FROM f")]
    inf, nan = ((float, "inf"),) * 3, ((float, "nan"),) * 3
    expected = [inf, nan, ((float, "2.0"), (float, "3.0"), (float, "2.0")),
                ((float, "-1.0"), (float, "-0.0"), (float, "-0.0")),
                ((type(None), "None"),) * 3]
    assert projected == [expected] * len(EVERY_ENGINE)


@pytest.mark.parametrize("sql, expected", [
    ("SELECT g, abs(sum(v)) FROM t GROUP BY g", [(1, 4), (2, 4)]),
    ("SELECT coalesce(max(w), 0) FROM t", [(2.5,)]),
    ("SELECT coalesce(max(w), 0) FROM t WHERE g > 5", [(0.0,)]),
    ("SELECT sum(w) IS NULL FROM t", [(False,)]),
    ("SELECT sum(w) IS NULL FROM t WHERE w IS NULL", [(True,)]),
    ("SELECT max(v) BETWEEN 1 AND 5 FROM t", [(True,)]),
    ("SELECT g, min(v) IN (-7, 0) FROM t GROUP BY g", [(1, True), (2, False)]),
    ("SELECT g, -sum(v) + 1, NOT max(v) > 3 FROM t GROUP BY g",
     [(1, 5, True), (2, -3, False)]),
])
def test_aggregates_under_functions_and_predicates(sql, expected):
    db = repro.connect()
    db.execute("CREATE TABLE t (g INT, v INT, w FLOAT)")
    for row in ("1, -7, 2.5", "1, 3, NULL", "2, 4, NULL"):
        db.execute(f"INSERT INTO t VALUES ({row})")
    for rows in _on_every_engine(db, sql):
        assert rows == _typed(expected)


@pytest.mark.parametrize("sql", [
    "SELECT g FROM t WHERE abs(sum(v)) > 1",
    "SELECT count(*) FROM t GROUP BY abs(sum(v))",
    "SELECT sum(abs(max(v))) FROM t",
])
def test_aggregates_stay_refused_outside_select_items(sql):
    from repro.common.errors import BindError
    db = repro.connect()
    db.execute("CREATE TABLE t (g INT, v INT)")
    with pytest.raises(BindError):
        db.execute(sql)


def test_division_by_zero_parity(parity_db):
    from repro.common.errors import ExecutionError
    sql = "SELECT * FROM users WHERE age / (age - age) > 1"
    plan = parity_db.planner.plan_select(parse(sql))
    for engine in ("batch", "parallel"):
        executor = Executor(parity_db.catalog, parity_db.clock, engine=engine)
        with pytest.raises(ExecutionError):
            executor.run(plan)


def test_guarded_division_short_circuit_parity():
    """A zero divisor behind an AND guard must not raise in either engine:
    vector evaluation defers the error decision to the row compiler."""
    db = repro.connect()
    db.execute("CREATE TABLE d (id INT, x INT)")
    db.execute("INSERT INTO d VALUES (1, 0)")
    db.execute("INSERT INTO d VALUES (2, 5)")
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT id FROM d WHERE x <> 0 AND 10 / x > 1"))
    for engine in ("batch", "parallel"):
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
        for engine in ("batch", "parallel"):
            result = Executor(db.catalog, db.clock, engine=engine).run(plan)
            assert result.rows == expect


def test_train_filter_skips_null_target_rows():
    """The WITH predicate must never evaluate rows whose target is NULL
    (they are skipped first; a predicate that errors on such a row must
    not break training)."""
    db = repro.connect()
    db.execute("CREATE TABLE p (a FLOAT, b FLOAT, y FLOAT)")
    db.execute("INSERT INTO p VALUES (1.0, 0.0, NULL)")  # would divide by 0
    for i in range(20):
        db.execute(f"INSERT INTO p VALUES ({i}.5, {i + 1}.0, {i * 0.1})")
    result = db.execute("PREDICT VALUE OF y FROM p TRAIN ON a, b "
                        "WITH a / b > 0")
    assert len(result.rows) == 21


def test_filtered_limit_cost_bounded(answers):
    """LIMIT over a filtered scan may overshoot the recorded row-at-a-time
    virtual time only by the pushed-down batch (offset+limit+1 scanned
    rows), not by a full default-sized block.  (It may also legitimately
    stop earlier: a row-at-a-time pull scans ahead for the extra row that
    triggers its stop.)"""
    from repro.common.simtime import CostModel
    db = repro.connect()
    db.execute("CREATE TABLE f (id INT, v INT)")
    heap = db.catalog.table("f")
    for i in range(5000):
        heap.insert((i, i % 10))
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT id FROM f WHERE v = 3 LIMIT 2"))
    key = "limit-pushdown:SELECT id FROM f WHERE v = 3 LIMIT 2"
    batch = Executor(db.catalog, db.clock, engine="batch").run(plan)
    answers.check(key, batch)
    bound = 3 * (CostModel.TUPLE_CPU + CostModel.EVAL_PREDICATE)
    assert batch.virtual_seconds <= answers.total(key) + bound


def test_nan_group_key_parity(answers):
    """NaN group keys (insertable via the heap API) must not corrupt
    grouped results: every engine groups NaN by object identity."""
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
    for kwargs in ({}, {"workers": 2, "morsel_rows": 2}):
        got = Executor(db.catalog, db.clock,
                       engine="parallel" if kwargs else "batch",
                       **kwargs).run(plan)
        answers.check(
            "nan-group:SELECT k, count(*), sum(v) FROM g GROUP BY k", got)


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
    for kwargs in (dict(engine="batch"), dict(engine="parallel", workers=2),
                   dict(engine="distributed", nodes=2, workers=2)):
        got = Executor(db.catalog, db.clock, **kwargs).run(plan)
        assert got.rows == [(0.0, 2.0)], kwargs


def test_high_cardinality_group_by_parity():
    """GROUP BY over a near-unique column crosses the mask-partition
    cutoff mid-query; both partition strategies must give the groups in
    first-seen order with their counts and left-to-right sums."""
    db = repro.connect()
    db.execute("CREATE TABLE hc (k INT, v FLOAT)")
    heap = db.catalog.table("hc")
    for i in range(3000):
        heap.insert((i % 2000, float(i)))
    db.execute("ANALYZE")
    plan = db.planner.plan_select(
        parse("SELECT k, count(*), sum(v) FROM hc GROUP BY k"))
    groups: dict[int, list] = {}
    for i in range(3000):
        count_sum = groups.setdefault(i % 2000, [0, None])
        count_sum[0] += 1
        count_sum[1] = float(i) if count_sum[1] is None \
            else count_sum[1] + float(i)
    expected = _typed([(k, c, s) for k, (c, s) in groups.items()])
    batch = Executor(db.catalog, db.clock, engine="batch").run(plan)
    parallel = Executor(db.catalog, db.clock, engine="parallel").run(plan)
    assert _typed(batch.rows) == expected
    assert _typed(parallel.rows) == expected


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
    db.execute("CREATE TABLE nobody (k INT, label TEXT)")
    db.execute("ANALYZE")
    return db


# Nested-loop joins.  A cross join keeps the FROM order, so the second
# table is the right side the join collects whole before the left side
# streams through it; the NLJ candidates of an equi-join carry the join
# condition as the NLJ's own (see _nlj_plans).
NLJ_QUERIES = [
    # a filter over the pair under a computed projection
    "SELECT u.id * 2 + o.oid AS k, upper(u.name) AS nm FROM users u, "
    "orders o WHERE u.age * 5 > o.amount AND o.status = 'paid'",
    "SELECT count(*), sum(o.amount) FROM users u, orders o WHERE u.age < 25",
    # an empty right side still drains the left one; an empty left side
    "SELECT u.name, n.k FROM users u, nobody n",
    "SELECT count(*) FROM users u, nobody n",
    "SELECT n.label, u.id FROM nobody n, users u WHERE u.age > 30",
    # LIMIT / OFFSET over the cross: the left scan stops mid-table
    "SELECT u.id, o.oid FROM users u, orders o LIMIT 9 OFFSET 50",
    "SELECT u.name, o.amount FROM users u, orders o "
    "WHERE u.age > o.amount / 5 LIMIT 5 OFFSET 3",
]

NLJ_EQUI_JOIN = ("SELECT u.name, o.amount FROM users u JOIN orders o "
                 "ON u.id = o.user_id WHERE u.age < 40")

NLJ_ENGINES = ([("batch", {})]
               + [("parallel", {"workers": w, "morsel_rows": 16})
                  for w in (1, 2, 4)]
               + [("distributed", {"nodes": 3, "morsel_rows": 16})])


def _nlj_plans(db):
    """(label, plan) for every NLJ_QUERIES entry, plus each candidate
    plan of NLJ_EQUI_JOIN that joins by a conditional nested loop."""
    plans = [(sql, db.planner.plan_select(parse(sql)))
             for sql in NLJ_QUERIES]
    conditional = [
        candidate for candidate in db.planner.candidate_plans(
            parse(NLJ_EQUI_JOIN), 12)
        if any(isinstance(node, logical.NestedLoopJoin)
               and node.condition is not None for node in candidate.walk())]
    assert conditional
    plans += [(f"{NLJ_EQUI_JOIN} as {logical.plan_signature(candidate)}",
               candidate) for candidate in conditional]
    for label, plan in plans:
        assert any(isinstance(node, logical.NestedLoopJoin)
                   for node in plan.walk()), label
    return plans


@pytest.mark.parametrize("engine, kwargs", NLJ_ENGINES,
                         ids=[f"{e}-{k}" for e, k in NLJ_ENGINES])
def test_nested_loop_join_parity(parity_db, sharded_parity_db, engine,
                                 kwargs, answers):
    """Nested-loop joins on every block engine, distributed over three
    shards: the recorded rows bit for bit, and the recorded rows_out and
    charges (network overhead aside).  A LIMIT plan runs the streaming
    driver everywhere and stops on a block boundary, so there rows_out
    and charges are held to the batch engine's instead."""
    db = sharded_parity_db if engine == "distributed" else parity_db
    for label, plan in _nlj_plans(db):
        key = ("sharded:" if engine == "distributed" else "parity:") + label
        got, rows_out, charged = run_charged(db, engine, kwargs, plan)
        if " LIMIT " not in label:
            answers.check(key, got, rows_out, charged)
            continue
        answers.check(key, got)
        if engine != "batch":
            where = f"{label} on {engine} {kwargs}"
            _, batch_rows_out, batch_charged = run_charged(db, "batch", {},
                                                           plan)
            assert rows_out == batch_rows_out, where
            assert charged == batch_charged, where


def _links(op):
    """What an engine must never rewrite: an operator's children and its
    clock."""
    return {attr: getattr(op, attr, None)
            for attr in ("_child", "_left", "_right", "_clock")}


def test_engines_never_change_the_operator_tree(parity_db, monkeypatch):
    """No engine rewrites the tree it runs: after ``Executor.run``, every
    operator ``Executor.build`` made still has the same children and the
    same clock, compared by identity."""
    built = []
    build = Executor.build

    def recording(self, node):
        op = build(self, node)
        built.append((op, _links(op)))
        return op

    monkeypatch.setattr(Executor, "build", recording)
    for engine, kwargs in (("batch", {}),
                           ("parallel", {"workers": 4, "morsel_rows": 16}),
                           ("distributed", {"nodes": 3, "morsel_rows": 16})):
        executor = Executor(parity_db.catalog, parity_db.clock,
                            engine=engine, **kwargs)
        for sql in PARITY_QUERIES + NLJ_QUERIES:
            built.clear()
            executor.run(parity_db.planner.plan_select(parse(sql)))
            assert built, sql
            for op, links in built:
                assert all(getattr(op, attr, None) is value
                           for attr, value in links.items()), \
                    f"{sql} on {engine}: {type(op).__name__} changed"


def test_every_block_column_is_a_typed_column(parity_db, monkeypatch):
    """``TypedColumn`` is the one column type below the result set: every
    ``RowBlock`` an engine builds — scans, computed projections, aggregate
    results and arguments, crosses — and every ``ColumnFeatures`` a
    PREDICT trains or infers on holds nothing else."""
    seen: dict[type, int] = {}
    where = ["setup"]
    untyped: list[str] = []

    def recording(cls):
        init = cls.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for column in self.columns:
                seen[type(column)] = seen.get(type(column), 0) + 1
                if not isinstance(column, TypedColumn):
                    untyped.append(f"{cls.__name__} of {where[0]}")
        monkeypatch.setattr(cls, "__init__", record)

    recording(RowBlock)
    recording(ColumnFeatures)
    for engine, kwargs in (("batch", {}),
                           ("parallel", {"workers": 4, "morsel_rows": 16}),
                           ("distributed", {"nodes": 3, "morsel_rows": 16})):
        executor = Executor(parity_db.catalog, parity_db.clock,
                            engine=engine, **kwargs)
        for sql in PARITY_QUERIES + NLJ_QUERIES:
            where[0] = f"{sql} on {engine}"
            executor.run(parity_db.planner.plan_select(parse(sql)))
    db = repro.connect()
    db.execute("CREATE TABLE p (id INT UNIQUE, s TEXT, a FLOAT, y FLOAT)")
    for i in range(40):
        y = "NULL" if i % 7 == 0 else f"{i * 0.1}"
        db.execute(f"INSERT INTO p VALUES ({i}, 's{i % 3}', {i}.5, {y})")
    for sql in ("PREDICT VALUE OF y FROM p WHERE id < 20 TRAIN ON * "
                "WITH id >= 20",
                "PREDICT VALUE OF y FROM p WHERE id < 20 TRAIN ON *",
                "PREDICT VALUE OF y FROM p TRAIN ON * VALUES ('s1', 2.5)"):
        where[0] = sql
        assert db.execute(sql).rows
    assert not untyped, untyped[:5]
    assert seen.get(TypedColumn, 0) > 0


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
        # no stats: a LIMIT plan ran the streaming driver, shipping nothing
        network = got.extra.get("distributed", {}).get("exchange_seconds",
                                                       0.0)
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
