"""A connection's statement table: parse once and bind once per template.

``NeurDB.execute`` files every statement under its fingerprint key as a
template, whose Params read the statement's values when it runs: a text
whose template is filed is not parsed, and a SELECT, INSERT, UPDATE or
DELETE whose template was bound before, with no CREATE / DROP since,
reuses that binding and re-plans only what its values decide.  What that
must never change is held here against a twin connection with the same
data that parses and binds every statement afresh (``execute_statement``
over a fresh parse): rows and their value types, rowcount, charged
virtual seconds, the error's class and message, and the plan — ``EXPLAIN``
of the text is the plan the run used.  And a hit must build nothing: no
parser runs, no AST node is made, no expression is compiled.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exec import expr
from repro.exec.expr import compile_cache_stats
from repro.obs.explain import explain_plan
from repro.plan import IndexScan, SeqScan
from repro.serve import PredictServer
from repro.sql import ast, parse
from repro.sql import parser as sql_parser
from repro.sql.lexer import fingerprint

from test_sql import _LITERAL_TEXTS, _MARK, E2E_TEMPLATES, _fill

# the end-to-end benchmark's SQL shapes, PREDICT's included
TEMPLATES = E2E_TEMPLATES

ROWS = 40


def _connect(engine="batch"):
    """The benchmark's three tables, small, loaded without ``execute`` so
    the statement table starts empty."""
    db = repro.connect(engine=engine)
    for ddl in ("CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, v FLOAT, "
                "w FLOAT)",
                "CREATE TABLE acct (id INT UNIQUE, owner TEXT, region INT, "
                "bal FLOAT)",
                "CREATE TABLE clicks (cid INT UNIQUE, site TEXT, dev INT, "
                "a FLOAT, b FLOAT, y FLOAT)"):
        db.execute_statement(parse(ddl))
    t, acct = db.catalog.table("t"), db.catalog.table("acct")
    clicks = db.catalog.table("clicks")
    for i in range(ROWS):
        t.insert((i, f"g{i % 3}", i % 7, i * 0.25, (ROWS - i) * 0.125))
        acct.insert((i, f"owner{i}", i % 4, i * 10.5))
        clicks.insert((i, f"s{i % 5}", i % 3, (i % 11) / 11, (i % 7) / 7,
                       (i % 5) * 0.5 + (i % 11) / 11))
    db.catalog.create_index("acct_id", "acct", "id")
    db.catalog.analyze()
    return db


def _fresh(sql):
    """``sql`` parsed afresh, outside every store: a tree of literals."""
    template, values = sql_parser.lookup({}, sql)
    return ast.substitute(template.statement, values)


def _outcome(run):
    """A result's columns, typed rows, rowcount and charged seconds, or
    the error's class and message."""
    try:
        result = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (result.columns,
            [tuple((type(v).__name__, repr(v)) for v in row)
             for row in result.rows],
            result.extra.get("rowcount"), repr(result.virtual_seconds))


def _explain(db, sql):
    """The lines of ``EXPLAIN sql``, or the error's class and message."""
    try:
        return [row[0] for row in db.execute("EXPLAIN " + sql).rows]
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _title(sql):
    """The heading ``EXPLAIN`` puts over an UPDATE / DELETE's scan."""
    kind, rest = sql.split(" ", 1)
    if kind == "SELECT":
        return None
    return (f"{kind.title()} on "
            f"{rest.split()[0 if kind == 'UPDATE' else 1]}")


def _draw(data, template):
    """The literal texts of one statement of ``template``."""
    return [data.draw(_LITERAL_TEXTS[kind])
            for kind in _MARK.findall(template)]


def _redraw(data, template, texts):
    """Other literal texts for ``template``, each with the sign of the one
    in ``texts`` it replaces: the sign is part of the fingerprint key, so
    the two statements share their key unless a number is malformed."""
    again = []
    for kind, text in zip(_MARK.findall(template), texts):
        other = data.draw(_LITERAL_TEXTS[kind])
        if kind != "s":
            other = text[:text.startswith("-")] + other.lstrip("-")
        again.append(other)
    return again


def _held_to_a_fresh_parse(db, twin, sql):
    """Run ``sql`` on ``db`` through its statement table and on ``twin``
    parsed afresh; both must agree.  True when the text parsed."""
    explain = _explain(db, sql)
    assert explain == _explain(twin, sql)
    got = _outcome(lambda: db.execute(sql))
    assert got == _outcome(lambda: twin.execute_statement(_fresh(sql)))
    if (len(got) == 4 and sql.startswith(("SELECT", "UPDATE", "DELETE"))):
        assert explain_plan(db.executor.last_run[0],
                            _title(sql)).split("\n") == explain
    return got[0] != "ParseError"


def _held_as_hits(data, template):
    """One statement of ``template`` run twice as the same text, then one
    with other values and the same key, each held to a fresh parse.  The
    repeats are template hits, and every SELECT / INSERT / UPDATE / DELETE
    template is bound once and its binding reused by every later call."""
    db, twin = _connect(), _connect()
    texts = _draw(data, template)
    first, second = (_fill(template, texts),
                     _fill(template, _redraw(data, template, texts)))
    parsed = sum(_held_to_a_fresh_parse(db, twin, first) for _ in range(2))
    misses = db.metrics()["gauges"]["sql.template_misses_total"]
    if _held_to_a_fresh_parse(db, twin, second):
        parsed += 1
        if parsed == 3 and fingerprint(first)[0] == fingerprint(second)[0]:
            # its EXPLAIN and the statement found their templates
            assert db.metrics()["gauges"][
                "sql.template_misses_total"] == misses
    entries = [e for e in db.statements() if e["kind"] != "Explain"]
    assert sum(entry["calls"] for entry in entries) == parsed
    for entry in entries:
        if entry["kind"] != "Predict":
            assert entry["bind_misses"] == 1, entry
            assert entry["bind_hits"] == entry["calls"] - 1, entry


@given(st.data())
@settings(max_examples=120, deadline=timedelta(seconds=5))
def test_a_bound_template_runs_as_a_fresh_parse(data):
    _held_as_hits(data, data.draw(st.sampled_from(
        [sql for sql in TEMPLATES.values() if not sql.startswith("PREDICT")])))


@given(st.data())
@settings(max_examples=25, deadline=timedelta(seconds=20))
def test_a_predict_template_runs_as_a_fresh_parse(data):
    _held_as_hits(data, data.draw(st.sampled_from(
        [sql for sql in TEMPLATES.values() if sql.startswith("PREDICT")])))


def _values(template, start):
    """``template`` filled with ordinary values: ints counting up from
    ``start`` (small ones for PREDICT, so its filters find rows)."""
    counter = iter(range(10**6))

    def value(match):
        n = next(counter)
        kind = match.group(1)
        if kind == "i":
            return str(start + n if not template.startswith("PREDICT")
                       else (start + 3 * n) % 30)
        if kind == "f":
            return f"{0.25 + start / 1000 + n / 100}"
        return f"'s{(start + n) % 5}'"
    return _MARK.sub(value, template)


@pytest.fixture
def builds(monkeypatch):
    """Counts of parser runs and of AST nodes made, by class name; the
    compile cache starts empty, so no clear at its bound falls between
    two statements."""
    counts = Counter()
    monkeypatch.setattr(expr, "_compile_cache", {})

    def counting(name, init):
        def init_counted(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)
        return init_counted

    monkeypatch.setattr(sql_parser._Parser, "__init__", counting(
        "_Parser", sql_parser._Parser.__init__))
    for name, cls in vars(ast).items():
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            monkeypatch.setattr(cls, "__init__", counting(name, cls.__init__))
    return counts


@pytest.mark.parametrize("shape,engine", [
    *((shape, "batch") for shape in sorted(TEMPLATES)),
    # a SELECT runs on the placed engines too
    *((shape, "distributed") for shape, sql in sorted(TEMPLATES.items())
      if sql.startswith("SELECT"))])
def test_a_hit_builds_nothing(shape, engine, builds):
    """The second statement of every end-to-end template runs no parser,
    makes no AST node and misses the compile cache zero times."""
    template = TEMPLATES[shape]
    db = _connect(engine)
    first = db.execute(_values(template, 1000))
    builds.clear()
    misses = compile_cache_stats()["misses"]
    second = db.execute(_values(template, 2000))
    assert dict(builds) == {}
    assert compile_cache_stats()["misses"] == misses
    assert db.statements()[0]["calls"] == 2
    # the values were read: the two statements differ where they should
    if shape.startswith("insert"):
        assert second.extra["rowcount"] == first.extra["rowcount"] > 0
    gauges = db.metrics()["gauges"]
    assert (gauges["sql.template_hits_total"],
            gauges["sql.template_misses_total"]) == (1.0, 1.0)


@pytest.mark.parametrize("shape", ["infer_inline", "infer_scan"])
def test_a_served_hit_builds_nothing(shape, builds):
    """``PredictServer.submit`` looks texts up in the same table."""
    db = _connect()
    db.execute(_values(TEMPLATES["train"], 1))
    server = PredictServer(db, lanes=2, max_batch_requests=16,
                           refresh="manual")
    server.submit(_values(TEMPLATES[shape], 1))
    server.drain()
    builds.clear()
    misses = compile_cache_stats()["misses"]
    served = [server.submit(_values(TEMPLATES[shape], start))
              for start in (2, 3)]
    server.drain()
    assert dict(builds) == {}
    assert compile_cache_stats()["misses"] == misses
    for request, start in zip(served, (2, 3)):
        assert request.error is None
        # each request reads its own values (a batch of two may round its
        # predictions otherwise than one request alone)
        fresh = db.execute_statement(_fresh(_values(TEMPLATES[shape], start)))
        assert [row[:-1] for row in request.result.rows] == [
            row[:-1] for row in fresh.rows]
        assert [row[-1] for row in request.result.rows] == pytest.approx(
            [row[-1] for row in fresh.rows], rel=1e-12)


def test_explain_of_a_hit_prints_its_own_values():
    db = _connect()
    for low, high in ((3, 9), (20, 31)):
        lines = _explain(db, f"SELECT id FROM acct WHERE id >= {low} "
                             f"AND id < {high}")
        assert f"IndexScan(acct.id in [{low}, {high}))" in lines[-1]
        lines = _explain(db, f"SELECT id FROM acct LIMIT {high} OFFSET {low}")
        assert lines[0].startswith("Limit")


def test_create_index_between_hits_moves_the_plan_and_the_writes():
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT, v FLOAT)")
    for i in range(300):
        db.execute(f"INSERT INTO t VALUES ({i}, {i * 0.5})")
    db.execute("ANALYZE")
    assert db.execute("SELECT v FROM t WHERE id = 5").rows == [(2.5,)]
    assert isinstance(db.executor.last_run[0].child, SeqScan)
    db.execute("CREATE INDEX t_id ON t (id)")
    # the INSERT template bound before the index must now maintain it
    db.execute("INSERT INTO t VALUES (1000, 9.5)")
    assert db.execute("SELECT v FROM t WHERE id = 1000").rows == [(9.5,)]
    assert isinstance(db.executor.last_run[0].child, IndexScan)
    by_kind = {e["query"]: e for e in db.statements()}
    select = by_kind["SELECT v FROM t WHERE id = ?"]
    insert = by_kind["INSERT INTO t VALUES (?, ?)"]
    assert (select["bind_misses"], select["bind_hits"]) == (2, 0)
    assert (insert["bind_misses"], insert["bind_hits"]) == (2, 299)
    assert insert["rows"] == 301


def test_drop_and_recreate_with_other_columns_rebinds():
    db, twin = repro.connect(), repro.connect()
    statements = ["SELECT v FROM t WHERE id = 1",
                  "UPDATE t SET v = v + 1.5 WHERE id = 2",
                  "INSERT INTO t VALUES (3, 4.5)",
                  "DELETE FROM t WHERE id = 3"]
    for ddl in ("CREATE TABLE t (id INT, v FLOAT)", "DROP TABLE t",
                "CREATE TABLE t (id INT, v TEXT)", "DROP TABLE t",
                "CREATE TABLE t (v FLOAT, id INT, w INT)", "DROP TABLE t",
                "CREATE TABLE t (id INT, w FLOAT)"):
        for side in (db, twin):
            side.execute(ddl)
        if ddl.startswith("DROP"):
            continue
        for side in (db, twin):
            side.execute_statement(parse(
                "INSERT INTO t VALUES (1, 2, 3)" if "w INT" in ddl
                else "INSERT INTO t (id) VALUES (1)"))
        for sql in statements * 2:
            assert _outcome(lambda: db.execute(sql)) == _outcome(
                lambda: twin.execute_statement(_fresh(sql))), (ddl, sql)
    select = next(e for e in db.statements()
                  if e["query"] == "SELECT v FROM t WHERE id = ?")
    # one fresh bind per table that has column v (the last bind fails),
    # every repeat under the same table a hit
    assert select["calls"] == 8 and select["errors"] == 2
    assert (select["bind_misses"], select["bind_hits"]) == (5, 3)


def test_statement_table_counts_and_metrics():
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, v FLOAT)")
    for i in range(3):
        db.execute(f"INSERT INTO t VALUES ({i}, {i}.5), ({i + 10}, 0.25)")
    with pytest.raises(Exception):
        db.execute("INSERT INTO t VALUES (1, 2.5), (99, 0.5)")
    for i in range(4):
        db.execute(f"SELECT id FROM t WHERE v > {i}.0 ORDER BY id")
    db.execute("SELECT id FROM t ORDER BY 1")
    db.execute("SELECT id FROM t ORDER BY 1")
    entries = {e["query"]: e for e in db.statements()}
    assert list(entries) == [
        "CREATE TABLE t (id INT UNIQUE, v FLOAT)",
        "INSERT INTO t VALUES (?, ?), (?, ?)",
        "SELECT id FROM t WHERE v > ? ORDER BY id",
        "SELECT id FROM t ORDER BY ?"]
    insert = entries["INSERT INTO t VALUES (?, ?), (?, ?)"]
    assert insert == {"query": "INSERT INTO t VALUES (?, ?), (?, ?)",
                      "kind": "Insert", "calls": 4, "rows": 6,
                      "bind_hits": 3, "bind_misses": 1, "errors": 1}
    select = entries["SELECT id FROM t WHERE v > ? ORDER BY id"]
    assert (select["calls"], select["rows"]) == (4, 6 + 2 + 1 + 0)
    assert (select["bind_hits"], select["bind_misses"]) == (3, 1)
    # a positional ORDER BY depends on its literal: bound every time
    positional = entries["SELECT id FROM t ORDER BY ?"]
    assert (positional["bind_hits"], positional["bind_misses"]) == (0, 2)
    gauges = db.metrics()["gauges"]
    # four templates parsed, seven texts that found theirs, six bindings
    # reused
    assert gauges["sql.templates"] == 4.0
    assert gauges["sql.statements"] == 11.0
    assert (gauges["sql.template_hits_total"],
            gauges["sql.template_misses_total"]) == (7.0, 4.0)
    assert gauges["sql.statement_hits_total"] == 6.0
    # statements run through execute_statement are not filed
    db.execute_statement(parse("SELECT id FROM t"))
    assert len(db.statements()) == 4
