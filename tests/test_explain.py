"""EXPLAIN / EXPLAIN ANALYZE over charged virtual time.

Acceptance contract (docs/observability.md):

* ``EXPLAIN ANALYZE`` executes the statement and annotates every plan
  operator with charged time by category, rows out, and page touches;
  the per-operator figures plus the ``(other)`` bucket reconcile
  *exactly* with the statement's trace totals (they are computed from
  the same fixed-point sums — an empty ``other`` means every charged
  unit of the 3-table query was attributed to an operator).
* The annotated tree has the identical shape (labels, depth, rows out)
  on every engine; within the batch family (batch, parallel at any
  worker count) the charged figures are bit-identical, because
  those engines issue the identical ``advance_batch`` sequence.  The
  row engine charges per row instead of per block, so its float sums
  legitimately differ in the last ulp.
* Plain ``EXPLAIN`` renders the estimated plan without executing, and
  ``EXPLAIN`` cannot wrap another ``EXPLAIN``.
"""

from __future__ import annotations

import pytest

import repro
from repro.common.errors import ParseError
from repro.exec.executor import Executor

ENGINE_CONFIGS = [
    ("row", {}),
    ("batch", {}),
    ("parallel", {"workers": 1}),
    ("parallel", {"workers": 2}),
    ("parallel", {"workers": 4}),
]

# engines that share the per-block charge sequence and therefore the
# exact per-operator figures (the row engine charges per row)
BATCH_FAMILY = [(e, k) for e, k in ENGINE_CONFIGS if e != "row"]

THREE_TABLE_QUERY = (
    "SELECT u.city AS city, count(*) AS n, sum(o.amount) AS amt, "
    "max(t.price) AS top FROM users u "
    "JOIN orders o ON u.id = o.user_id "
    "JOIN items t ON o.item_id = t.iid "
    "WHERE o.amount > 20 GROUP BY u.city ORDER BY city"
)


def _build_db():
    db = repro.connect()
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, user_id INT, "
               "amount FLOAT, item_id INT)")
    db.execute("CREATE TABLE items (iid INT UNIQUE, label TEXT, "
               "price FLOAT)")
    for i in range(40):
        db.execute(f"INSERT INTO users VALUES ({i}, 'user{i}', "
                   f"{20 + i % 30}, 'c{i % 4}')")
    for i in range(30):
        db.execute(f"INSERT INTO items VALUES ({i}, 'item{i}', "
                   f"{round(1.5 * i, 2)})")
    for i in range(120):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 40}, "
                   f"{round(i * 2.0 + 1, 2)}, {i % 30})")
    db.execute("ANALYZE")
    return db


def _swap_engine(db, engine, kwargs):
    db.executor = Executor(db.catalog, db.clock, engine=engine,
                           registry=db.registry, **kwargs)


def _analyze(db, sql=THREE_TABLE_QUERY):
    """Warm run, then EXPLAIN ANALYZE; returns (plain_rows, result)."""
    plain = db.execute(sql)
    result = db.execute("EXPLAIN ANALYZE " + sql)
    return plain.rows, result


def _shape(structured):
    return [(n["label"], n["depth"], n["rows_out"])
            for n in structured["nodes"]]


# -- plain EXPLAIN -------------------------------------------------------------


class TestPlainExplain:
    def test_renders_plan_without_executing(self):
        db = _build_db()
        before = dict(db.clock.breakdown())
        result = db.execute("EXPLAIN " + THREE_TABLE_QUERY)
        assert result.extra["analyze"] is False
        text = "\n".join(row[0] for row in result.rows)
        assert "Aggregate" in text and "SeqScan" in text
        # nothing executed: no actual-row annotations, no new scan charges
        assert "actual:" not in text
        after = dict(db.clock.breakdown())
        assert after.get("scan", 0.0) == before.get("scan", 0.0)

    def test_explain_non_select_has_no_plan_tree(self):
        db = _build_db()
        result = db.execute("EXPLAIN INSERT INTO users VALUES "
                            "(900, 'x', 1, 'c0')")
        assert result.extra["analyze"] is False
        assert "no plan tree" in result.rows[0][0]
        # and the INSERT did not run
        assert db.execute(
            "SELECT count(*) FROM users WHERE id = 900").rows[0][0] == 0

    def test_explain_dml_renders_its_access_path(self):
        """UPDATE / DELETE are planned: a title line over the scan that
        finds the victims — SELECT's own choice for the same WHERE —
        and nothing is written."""
        db = _build_db()
        db.execute("CREATE INDEX users_id ON users (id)")
        for sql, title, scan in [
                ("UPDATE users SET age = 0 WHERE id = 7", "Update on users",
                 "  IndexScan(users.id = 7)"),
                ("DELETE FROM users WHERE id > 30 AND age < 25",
                 "Delete on users", "  IndexScan(users.id in (30, +inf)) [filtered]"),
                ("DELETE FROM users WHERE age < 25", "Delete on users",
                 "  SeqScan(users as users) [filtered]"),
                ("UPDATE users SET age = 0", "Update on users",
                 "  SeqScan(users as users)")]:
            result = db.execute("EXPLAIN " + sql)
            assert result.extra["analyze"] is False
            lines = [row[0] for row in result.rows]
            assert lines[0] == title and len(lines) == 2
            assert lines[1].split(" (rows=")[0] == scan
            _, where, predicate = sql.partition(" WHERE ")
            select = db.execute("EXPLAIN SELECT * FROM users"
                                + where + predicate)
            assert select.rows[-1][0] == lines[1]
        assert db.execute("SELECT count(*), min(age) FROM users").rows == [
            (40, 20)]

    def test_explain_cannot_wrap_explain(self):
        db = _build_db()
        with pytest.raises(ParseError):
            db.execute("EXPLAIN EXPLAIN SELECT * FROM users")


# -- EXPLAIN ANALYZE: the acceptance query on every engine ---------------------


class TestExplainAnalyze:
    @pytest.mark.parametrize("engine,kwargs", ENGINE_CONFIGS,
                             ids=[f"{e}-{k}" for e, k in ENGINE_CONFIGS])
    def test_operators_reconcile_exactly(self, engine, kwargs):
        """Per-operator charges plus ``(other)`` equal the statement's
        trace totals; for this pure SELECT the ``other`` bucket is empty
        — every charged unit is attributed to an operator — and the
        plain run's rows are accounted for in ``result_rowcount``."""
        db = _build_db()
        _swap_engine(db, engine, kwargs)
        plain_rows, result = _analyze(db)
        structured = result.extra["explain"]

        assert result.extra["analyze"] is True
        assert result.extra["result_rowcount"] == len(plain_rows) > 0
        assert structured["nodes"], "no annotated operators"
        assert structured["other"] == {}, (
            "charges escaped operator attribution")
        assert structured["total"] > 0
        for node in structured["nodes"]:
            assert node["rows_out"] is not None
            assert node["time"] >= 0
            assert set(node["charged"]) <= set(structured["totals"])

        text = "\n".join(row[0] for row in result.rows)
        assert text.startswith("total charged:")
        assert "by category:" in text
        assert text.count("actual:") == len(structured["nodes"])
        assert "charged [" in text

    def test_tree_shape_identical_across_engines(self):
        """Labels, depths, and rows-out match on all six configs; the
        per-operator charged figures are bit-identical within the batch
        family (same ``advance_batch`` sequence)."""
        shapes = {}
        batch_figures = {}
        for engine, kwargs in ENGINE_CONFIGS:
            db = _build_db()
            _swap_engine(db, engine, kwargs)
            _, result = _analyze(db)
            structured = result.extra["explain"]
            key = f"{engine}-{kwargs}"
            shapes[key] = _shape(structured)
            if (engine, kwargs) in BATCH_FAMILY:
                batch_figures[key] = [
                    (n["charged"], n["time"], n["pages"])
                    for n in structured["nodes"]]
            assert structured["other"] == {}

        reference = next(iter(shapes.values()))
        for key, shape in shapes.items():
            assert shape == reference, key

        batch_reference = next(iter(batch_figures.values()))
        for key, figures in batch_figures.items():
            assert figures == batch_reference, key

    def test_parallel_run_reports_workers_and_tasks(self):
        db = _build_db()
        _swap_engine(db, "parallel", {"workers": 4, "morsel_rows": 16})
        _, result = _analyze(db)
        structured = result.extra["explain"]
        assert structured["parallel"] is not None
        assert structured["parallel"]["workers"] == 4
        assert structured["tasks"] > 0
        text = "\n".join(row[0] for row in result.rows)
        assert "parallel: workers=4" in text

    def test_session_results_unchanged_by_explain_analyze(self):
        """Running EXPLAIN ANALYZE between two plain runs leaves the
        plain results bit-identical — the scoped tracer observes, it
        does not route."""
        db = _build_db()
        first = db.execute(THREE_TABLE_QUERY).rows
        db.execute("EXPLAIN ANALYZE " + THREE_TABLE_QUERY)
        second = db.execute(THREE_TABLE_QUERY).rows
        typed = lambda rows: [tuple((type(v), v) for v in r) for r in rows]
        assert typed(first) == typed(second)


# -- EXPLAIN ANALYZE fallback for statements without a plan tree ---------------


class TestExplainAnalyzeFallback:
    def test_insert_renders_category_totals(self):
        db = _build_db()
        result = db.execute("EXPLAIN ANALYZE INSERT INTO users VALUES "
                            "(901, 'y', 2, 'c1')")
        assert result.extra["analyze"] is True
        structured = result.extra["explain"]
        assert structured["nodes"] == []
        assert structured["totals"], "insert charged nothing?"
        assert structured["total"] > 0
        text = "\n".join(row[0] for row in result.rows)
        assert text.startswith("total charged:")
        # and the INSERT really executed
        assert db.execute(
            "SELECT count(*) FROM users WHERE id = 901").rows[0][0] == 1


class TestExplainAnalyzeDml:
    @pytest.mark.parametrize("sql,scan,victims", [
        ("UPDATE users SET age = age + 1 WHERE id = 7",
         "IndexScan(users.id = 7)", 1),
        ("DELETE FROM users WHERE age < 25",
         "SeqScan(users as users) [filtered]", 10),
    ])
    def test_victim_scan_line_and_category_totals(self, sql, scan, victims):
        """The statement executes; its victim scan renders as an operator
        (rows out, charged time) from the spans SELECT's operators use,
        and what the write loop charged is the ``(other)`` bucket — the
        two reconcile with the category totals exactly."""
        db = _build_db()
        db.execute("CREATE INDEX users_id ON users (id)")
        before = db.execute("SELECT count(*), sum(age) FROM users").rows[0]
        result = db.execute("EXPLAIN ANALYZE " + sql)
        structured = result.extra["explain"]
        assert result.extra["analyze"] is True
        (node,) = structured["nodes"]
        assert node["label"] == scan and node["depth"] == 1
        assert node["rows_out"] == victims and node["time"] > 0
        write = "heap-update" if sql.startswith("UPDATE") else "heap-delete"
        assert write in structured["other"] and write not in node["charged"]
        for category, seconds in structured["totals"].items():
            assert seconds == pytest.approx(
                node["charged"].get(category, 0.0)
                + structured["other"].get(category, 0.0), rel=1e-12)
        lines = [row[0] for row in result.rows]
        assert lines[0].startswith("total charged:")
        title = lines.index(sql.split()[0].capitalize() + " on users")
        assert lines[title + 1].startswith("  " + scan)
        assert lines[title + 2].startswith("    actual: time=")
        assert f"rows_out={victims}" in lines[title + 2]
        after = db.execute("SELECT count(*), sum(age) FROM users").rows[0]
        assert after == ((before[0], before[1] + 1) if victims == 1
                         else (before[0] - victims, after[1]))
