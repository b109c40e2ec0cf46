"""A connection's statement table: bind once per template.

``NeurDB.execute`` files every statement under its fingerprint key; a
SELECT, INSERT, UPDATE or DELETE whose template was bound before, with no
CREATE / DROP since, reuses that binding and re-plans only what its
literal values decide.  What that must never change is held here against
a twin connection with the same data that binds every statement afresh
(``execute_statement`` over an uncached parse): rows and their value
types, rowcount, charged virtual seconds, the error's class and message,
and the plan — ``EXPLAIN`` of the text is the plan the run used.
"""

from __future__ import annotations

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.obs.explain import explain_plan
from repro.plan import IndexScan, SeqScan
from repro.sql import parse, tokenize
from repro.sql.parser import _Parser

from test_sql import _LITERAL_TEXTS, _MARK, E2E_TEMPLATES, _fill

# the end-to-end benchmark's SQL shapes the statement table binds
TEMPLATES = {shape: sql for shape, sql in E2E_TEMPLATES.items()
             if not sql.startswith("PREDICT")}

ROWS = 40


def _connect():
    """The benchmark's two tables, small, loaded without ``execute`` so
    the statement table starts empty."""
    db = repro.connect()
    for ddl in ("CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, v FLOAT, "
                "w FLOAT)",
                "CREATE TABLE acct (id INT UNIQUE, owner TEXT, region INT, "
                "bal FLOAT)"):
        db.execute_statement(parse(ddl))
    t, acct = db.catalog.table("t"), db.catalog.table("acct")
    for i in range(ROWS):
        t.insert((i, f"g{i % 3}", i % 7, i * 0.25, (ROWS - i) * 0.125))
        acct.insert((i, f"owner{i}", i % 4, i * 10.5))
    db.catalog.create_index("acct_id", "acct", "id")
    db.catalog.analyze()
    return db


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


@given(st.data())
@settings(max_examples=120, deadline=timedelta(seconds=5))
def test_a_bound_template_runs_as_a_fresh_bind(data):
    template = TEMPLATES[data.draw(st.sampled_from(sorted(TEMPLATES)))]
    sql = _fill(template, [data.draw(_LITERAL_TEXTS[kind])
                           for kind in _MARK.findall(template)])
    db, twin = _connect(), _connect()
    for _ in ("recorded", "rebound"):
        explain = _explain(db, sql)
        assert explain == _explain(twin, sql)
        got = _outcome(lambda: db.execute(sql))
        assert got == _outcome(lambda: twin.execute_statement(
            _Parser(tokenize(sql)).parse_statement()))
        if len(got) == 4 and not sql.startswith("INSERT"):
            assert explain_plan(db.executor.last_run[0],
                                _title(sql)).split("\n") == explain
    entries = [e for e in db.statements() if e["kind"] != "Explain"]
    if entries:                                  # the text parsed
        [entry] = entries
        assert entry["calls"] == 2
        assert (entry["bind_misses"], entry["bind_hits"]) == (1, 1)


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
                lambda: twin.execute_statement(
                    _Parser(tokenize(sql)).parse_statement())), (ddl, sql)
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
    assert gauges["sql.statements"] == 4.0
    assert gauges["sql.statement_hits_total"] == 6.0
    # statements run through execute_statement are not filed
    db.execute_statement(parse("SELECT id FROM t"))
    assert len(db.statements()) == 4
