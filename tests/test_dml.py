"""UPDATE / DELETE through the planner's access path: a differential sweep.

``db._run_update`` / ``_run_delete`` find their victims through the scan
the planner picks for the WHERE clause (``Planner.access_path`` ->
``IndexScanOp.rid_rows`` / ``SeqScanOp.rid_rows``), the same index
selection and index lookup SELECT uses.  Three independent references
hold that path to account, after every statement of a seeded sweep:

* stdlib ``sqlite3`` — the same table, the same statement: ``rowcount``
  and the whole table (sorted) must agree;
* the full-scan victim loop UPDATE / DELETE ran before they were planned,
  kept verbatim below (``_full_scan_victims``): the planned scan must
  select exactly its ``(rid, row)`` set, or raise its error class;
* the index invariant (``check_indexes``): every live row has exactly one
  posting under its current key in every index, nothing dangles, and
  ``len(index)`` counts the non-NULL keys.

The sweep crosses three schema regimes (an ``acct``-like table and two of
``tests/test_storage_typed.py``'s generated shapes: an INT key with
duplicates and NULLs, a TEXT key) with index none / btree / hash, table
heap / replicated / sharded, and with / without ``ANALYZE``.  The SELECT
half rides along: the same WHERE through ``db.execute`` (the indexed
plan) must return what sqlite and the full scan return — which is what
catches a strict bound read as an inclusive one, or a literal the index
cannot compare.  ``STORAGE_SEED`` re-rolls data and literals.

``test_ranges_held_to_sqlite`` puts the planner's bound fold (every
conjunct on an indexed column into one ``IndexScan [lo, hi)``) through
the same three references on a table with an indexed INT and an indexed
TEXT column — every operator on either side, two to four bounds,
contradictory ranges, ``BETWEEN``, mixed int / float literals, a second
indexed column, an unindexed residual — as SELECT on every engine, as
UPDATE and as DELETE, and holds the EXPLAIN label to the interval
written out by hand per shape.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

import repro
from repro.common import categories as cat
from repro.common.errors import BindError, ConstraintViolation
from repro.common.simtime import CostModel
from repro.exec.executor import Executor
from repro.exec.expr import RowLayout, compile_expr, expr_type, to_bool
from repro.sql import ast
from repro.sql.parser import parse

from engines import with_engine
from test_storage_typed import (BOOL, FLOAT_CLEAN, INT_SMALL, STORAGE_SEED,
                                TEXT_SMALL, _REGIME_DTYPE, _draw)

ROWS = 200
TABLES = {"heap": {}, "replicated": {"replication": True},
          "sharded": {"shards": 3}}
INDEXES = (None, "btree", "hash")
SQLITE_TYPE = {"INT": "INTEGER", "FLOAT": "REAL", "TEXT": "TEXT",
               "BOOL": "INTEGER"}


class Regime:
    """One schema: its columns, the (indexed) key column, a non-indexed
    numeric column for WHERE, a FLOAT column for SET, and the rows."""

    def __init__(self, columns, key, other, target, rows, unique=False):
        self.columns, self.key, self.rows = columns, key, rows
        self.other, self.target = other, target
        self.unique = unique
        self.text_key = dict(columns)[key] == "TEXT"

    def ddl(self, sqlite: bool) -> str:
        parts = []
        for name, dtype in self.columns:
            dtype = SQLITE_TYPE[dtype] if sqlite else dtype
            unique = " UNIQUE" if self.unique and name == self.key else ""
            parts.append(f"{name} {dtype}{unique}")
        return f"CREATE TABLE t ({', '.join(parts)})"


def _acct(rng: random.Random) -> Regime:
    ids = list(range(-5, ROWS - 5))      # negative keys are literals too
    rng.shuffle(ids)
    rows = [(None if rng.random() < 0.03 else i, f"owner{i % 17}",
             rng.randint(0, 50), round(rng.uniform(0, 1000), 2))
            for i in ids]
    return Regime([("id", "INT"), ("owner", "TEXT"), ("region", "INT"),
                   ("bal", "FLOAT")],
                  key="id", other="region", target="bal", rows=rows,
                  unique=True)


def _generated(shape, other, target):
    def build(rng: random.Random) -> Regime:
        columns = [(f"c{i}", _REGIME_DTYPE[r].value)
                   for i, r in enumerate(shape)]
        rows = [tuple(_draw(rng, r, 0.1) for r in shape)
                for _ in range(ROWS)]
        return Regime(columns, key="c0", other=other, target=target,
                      rows=rows)
    return build


REGIMES = {
    "acct": _acct,
    # INT key drawn from 20k values: a few duplicates, negative keys, NULLs
    "int-key": _generated((INT_SMALL, FLOAT_CLEAN, TEXT_SMALL),
                          other="c1", target="c1"),
    # TEXT key with 13 distinct values: long posting lists
    "text-key": _generated((TEXT_SMALL, BOOL, INT_SMALL, FLOAT_CLEAN),
                           other="c2", target="c3"),
}


# -- the three references ------------------------------------------------------


def _full_scan_victims(db, statement):
    """Victim selection as ``_run_update`` / ``_run_delete`` did it before
    they went through the planner — kept as the oracle, over the table's
    typed layout: an ill-typed WHERE is a BindError before any row is
    read, as it is for the planner."""
    table = db.catalog.table(statement.table)
    layout = RowLayout.of_table(statement.table, table.schema)
    predicate = None
    if statement.where is not None:
        expr_type(statement.where, layout)
        predicate = compile_expr(statement.where, layout)
    victims: list[tuple] = []
    for rid, row in table.scan():
        if predicate is None or to_bool(predicate(row)):
            victims.append((rid, row))
    return victims


def _postings(index) -> list[tuple]:
    if hasattr(index, "range_scan"):
        return list(index.range_scan())
    return [(key, rid) for key, rids in index._buckets.items()
            for rid in rids]


def check_indexes(db, table_name: str = "t") -> None:
    table = db.catalog.table(table_name)
    live = list(table.scan())
    for entry in db.catalog.indexes_on(table_name):
        position = table.schema.index_of(entry.column)
        expected = sorted((row[position], rid) for rid, row in live
                          if row[position] is not None)
        assert sorted(_postings(entry.index)) == expected, entry.name
        assert len(entry.index) == len(expected), entry.name
        for key, rid in expected[::7]:
            assert rid in entry.index.search(key)


def _sorted(rows):
    return sorted((tuple(row) for row in rows),
                  key=lambda row: tuple((v is not None, v) for v in row))


def _literal(value) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _label(line: str) -> str:
    return line.strip().split(" (rows=")[0]


def _scan_label(db, sql: str) -> str:
    """Label of the scan node in ``EXPLAIN sql`` (its last line)."""
    return _label(db.execute("EXPLAIN " + sql).rows[-1][0])


# -- the sweep -------------------------------------------------------------------


class Sweep:
    def __init__(self, regime: Regime, table_kind: str, index, analyze: bool,
                 rng: random.Random, engines=("batch",)):
        self.regime, self.index, self.analyze = regime, index, analyze
        self.rng, self.engines = rng, engines
        self.shift = 100_000
        self.db = repro.connect(**TABLES[table_kind])
        self.db.execute(regime.ddl(sqlite=False))
        table = self.db.catalog.table("t")
        for row in regime.rows:
            table.insert(row)
        if index is not None:
            self.db.execute(f"CREATE INDEX t_key ON t ({regime.key}) "
                            f"USING {index}")
        if analyze:
            self.db.execute("ANALYZE")
        self.mirror = sqlite3.connect(":memory:")
        self.mirror.execute(regime.ddl(sqlite=True))
        marks = ", ".join("?" * len(regime.columns))
        self.mirror.executemany(f"INSERT INTO t VALUES ({marks})",
                                regime.rows)

    # literals come from the table as it is now, so statements keep
    # finding rows while the sweep deletes and moves them
    def keys(self, column=None) -> list:
        column = column or self.regime.key
        return sorted(row[0] for row in self.mirror.execute(
            f"SELECT DISTINCT {column} FROM t WHERE {column} IS NOT NULL"))

    def pick(self, low: float = 0.0, high: float = 1.0):
        keys = self.keys()
        if not keys:
            return "tag-0" if self.regime.text_key else 0
        at = self.rng.uniform(low, high)
        return keys[min(len(keys) - 1, int(at * len(keys)))]

    def expected_scan(self, path: str) -> str | None:
        """The access path EXPLAIN must name, None where the cost model
        decides (ranges once ANALYZE has run)."""
        if self.index is None or path == "seq":
            return "SeqScan"
        if path == "eq":
            return "IndexScan"
        if self.index == "hash":
            return "SeqScan"
        return None if self.analyze else "IndexScan"

    def run(self, sql: str, path: str, labels=()) -> int:
        """One DML statement held to the three references.  ``labels``:
        the scan labels the fold may produce for this WHERE — the first
        one exactly where the cost model has no statistics to weigh,
        any of them (or a SeqScan) once ANALYZE has run."""
        db, mirror = self.db, self.mirror
        statement = parse(sql)
        where = sql[sql.index(" WHERE "):] if " WHERE " in sql else ""

        try:
            oracle = _full_scan_victims(db, statement)
        except BindError:
            # a literal the column cannot be ordered against: ill-typed,
            # so the statement, its SELECT and its EXPLAIN are rejected at
            # plan time, and nothing is written
            before = _sorted(db.execute("SELECT * FROM t").rows)
            for text in (sql, "SELECT * FROM t" + where, "EXPLAIN " + sql):
                with pytest.raises(BindError):
                    db.execute(text)
            assert _sorted(db.execute("SELECT * FROM t").rows) == before
            check_indexes(db)
            return 0

        # one index selection: DML plans the scan SELECT plans
        title, scan = (row[0] for row in db.execute("EXPLAIN " + sql).rows)
        assert title == f"{type(statement).__name__} on t"
        label = _scan_label(db, "SELECT * FROM t" + where)
        assert _label(scan) == label, sql
        expected = self.expected_scan(path)
        if expected is not None:
            assert label.startswith(expected), (sql, label)
        if labels and not self.analyze:
            assert label == labels[0], sql
        elif labels:
            assert label in labels or label.startswith("SeqScan"), (sql, label)

        planned = list(db.executor.build(db.planner.access_path(
            statement.table, statement.where)).rid_rows())
        assert sorted(planned) == sorted(oracle), sql

        # the SELECT half: indexed plan == full scan == sqlite
        session = db.executor
        for engine in self.engines:
            db.executor = with_engine(db, engine)
            selected = _sorted(db.execute("SELECT * FROM t" + where).rows)
            assert selected == _sorted(row for _, row in oracle), (sql, engine)
        db.executor = session
        assert selected == _sorted(mirror.execute("SELECT * FROM t" + where)), sql

        result = db.execute(sql)
        count = mirror.execute(sql).rowcount
        assert result.extra["rowcount"] == len(oracle) == count, sql
        assert (_sorted(db.execute("SELECT * FROM t").rows)
                == _sorted(mirror.execute("SELECT * FROM t"))), sql
        check_indexes(db)
        if getattr(db.catalog.table("t"), "replicated", False):
            assert db.catalog.table("t").copies_identical()
        return count

    def statements(self):
        """(sql, path): ``path`` is what the WHERE offers an
        index — ``eq``, ``range`` (btree only) or ``seq`` (nothing)."""
        r = self.regime
        k, o, t = r.key, r.other, r.target
        bump = f"UPDATE t SET {t} = {t} + 1.5"
        lit = _literal

        a = self.pick()
        yield f"{bump} WHERE {k} = {lit(a)}", "eq"
        yield f"{bump} WHERE {k} = {lit(a)}", "eq"      # same key again
        if not r.text_key:
            yield f"{bump} WHERE {k} = -5", "eq"
        for op, low, high in (("<", 0.0, 0.3), ("<=", 0.0, 0.3),
                              (">", 0.7, 1.0), (">=", 0.7, 1.0)):
            a = self.pick(low, high)
            yield f"{bump} WHERE {k} {op} {lit(a)}", "range"
        a, b = sorted([self.pick(), self.pick()])
        yield (f"{bump} WHERE {k} >= {lit(a)} AND {k} < {lit(b)}",
               "range")
        a, b, c = self.pick(), self.pick(), self.pick()
        yield (f"{bump} WHERE {k} IN ({lit(a)}, {lit(b)}, {lit(c)})",
               "seq")
        yield f"{bump} WHERE {k} = {lit(a)} OR {k} = {lit(b)}", "seq"
        yield f"{bump} WHERE {o} > 0", "seq"
        a = self.pick()
        computed = f"coalesce({k}, 'none')" if r.text_key else f"{k} + 0"
        yield f"{bump} WHERE {computed} = {lit(a)}", "seq"
        yield f"{bump} WHERE t.{k} = {lit(a)}", "eq"
        yield f"{bump} WHERE {lit(a)} = {k}", "eq"
        wrong = 5 if r.text_key else "abc"
        yield f"{bump} WHERE {k} = {lit(wrong)}", "seq"
        yield f"{bump} WHERE {k} > {lit(wrong)}", "seq"
        yield f"DELETE FROM t WHERE {k} < {lit(wrong)}", "seq"
        yield f"{bump} WHERE {k} = NULL", "seq"
        absent = "tag-none" if r.text_key else 77_777
        yield f"{bump} WHERE {k} = {lit(absent)}", "eq"
        a = self.pick(0.2, 0.6)
        yield f"{bump} WHERE {k} >= {lit(a)} AND {o} > 0", "range"

        # assignments to the indexed column; the second is the Halloween
        # shape — updated rows land inside the range still being read
        for op, path, a in (("=", "eq", self.pick()),
                            (">=", "range", self.pick(0.5, 0.9))):
            moved = "'tag-zz'" if r.text_key else f"{k} + {self.shift}"
            self.shift *= 10
            yield (f"UPDATE t SET {k} = {moved} WHERE {k} {op} {lit(a)}",
                   path)
        yield bump, "seq"

        a = self.pick()
        yield f"DELETE FROM t WHERE {k} = {lit(a)}", "eq"
        a = self.pick(0.0, 0.1)
        yield f"DELETE FROM t WHERE {k} < {lit(a)}", "range"
        a = self.pick(0.9, 1.0)
        yield f"DELETE FROM t WHERE {k} > {lit(a)}", "range"
        yield f"DELETE FROM t WHERE {o} < 0", "seq"
        a, b = self.pick(), self.pick()
        yield f"DELETE FROM t WHERE {k} IN ({lit(a)}, {lit(b)})", "seq"
        yield f"DELETE FROM t WHERE {k} = {lit(absent)}", "eq"
        if not r.text_key:
            yield f"DELETE FROM t WHERE {k} = -5", "eq"
        yield f"DELETE FROM t WHERE t.{k} = NULL", "seq"
        yield "DELETE FROM t", "seq"
        yield f"{bump} WHERE {k} = {lit(a)}", "eq"        # empty table


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyzed"])
@pytest.mark.parametrize("index", INDEXES, ids=lambda v: v or "noindex")
@pytest.mark.parametrize("table_kind", TABLES)
@pytest.mark.parametrize("regime", REGIMES)
def test_dml_sweep(regime, table_kind, index, analyze):
    # the same data and literals on every configuration of one regime
    seed = STORAGE_SEED * 1000 + sorted(REGIMES).index(regime)
    sweep = Sweep(REGIMES[regime](random.Random(seed)), table_kind, index,
                  analyze, random.Random(seed + 500))
    check_indexes(sweep.db)
    touched = sum(sweep.run(sql, path) for sql, path in sweep.statements())
    assert touched > ROWS, "the sweep's statements stopped finding rows"
    assert len(sweep.db.catalog.table("t")) == 0


# -- every bound takes the index: the fold held to sqlite3 ------------------------


def _two_key(rng: random.Random) -> Regime:
    """An indexed INT and an indexed TEXT column, duplicates and NULLs in
    both, beside an unindexed one."""
    rows = [(None if rng.random() < 0.03 else rng.randrange(-20, 160),
             None if rng.random() < 0.03 else f"n{rng.randrange(90):03d}",
             rng.randint(0, 9), round(rng.uniform(0, 1000), 2))
            for _ in range(ROWS)]
    return Regime([("id", "INT"), ("name", "TEXT"), ("g", "INT"),
                   ("v", "FLOAT")],
                  key="id", other="g", target="v", rows=rows)


def _range_cases(sweep: Sweep, k: str, other: str):
    """``(where, path, labels)`` over column ``k``: every shape the fold
    reads, the expected interval written out by hand per shape.  Literals
    are four neighbouring keys ``a < b < c < d`` of the table as it is
    now, so a range stays a handful of rows wide."""
    lit, mirror = _literal, {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def scan(interval: str, filtered: bool = False) -> str:
        return (f"IndexScan(t.{k} {interval})"
                + (" [filtered]" if filtered else ""))

    def four():
        keys = sweep.keys(k)
        at = sweep.rng.randrange(max(1, len(keys) - 3))
        return (keys[at:at + 4] + keys[-1:] * 4)[:4]

    a, b, c, d = four()
    for op, interval in (("<", f"in (-inf, {b!r})"), ("<=", f"in (-inf, {b!r}]"),
                         (">", f"in ({b!r}, +inf)"), (">=", f"in [{b!r}, +inf)")):
        yield f"{k} {op} {lit(b)}", "range", (scan(interval),)
        yield f"{lit(b)} {mirror[op]} t.{k}", "range", (scan(interval),)
    for lo in (">", ">="):
        for hi in ("<", "<="):
            a, b, c, d = four()
            interval = (f"in {'[' if lo == '>=' else '('}{a!r}, "
                        f"{c!r}{']' if hi == '<=' else ')'}")
            yield (f"{k} {lo} {lit(a)} AND {k} {hi} {lit(c)}", "range",
                   (scan(interval),))
            yield (f"{lit(c)} {mirror[hi]} {k} AND {lit(a)} {mirror[lo]} {k}",
                   "range", (scan(interval),))
    # three and four bounds: the tightest is not the first, and a strict
    # bound beats an inclusive one at the same key
    a, b, c, d = four()
    yield (f"{k} > {lit(a)} AND {k} >= {lit(b)} AND {k} < {lit(d)}", "range",
           (scan(f"in [{b!r}, {d!r})"),))
    yield (f"{k} <= {lit(d)} AND {lit(a)} < {k} AND {k} < {lit(c)}", "range",
           (scan(f"in ({a!r}, {c!r})"),))
    yield (f"{k} >= {lit(a)} AND {k} > {lit(a)} AND {k} <= {lit(c)} "
           f"AND {k} < {lit(c)}", "range", (scan(f"in ({a!r}, {c!r})"),))
    # contradictory: no rows, still one descent
    yield (f"{k} >= {lit(c)} AND {k} < {lit(a)}", "range",
           (scan(f"in [{c!r}, {a!r})"),))
    yield (f"{k} > {lit(b)} AND {k} <= {lit(b)}", "range",
           (scan(f"in ({b!r}, {b!r}]"),))
    a, b, c, d = four()
    yield f"{k} BETWEEN {lit(a)} AND {lit(c)}", "range", (
        scan(f"in [{a!r}, {c!r}]"),)
    yield (f"{k} BETWEEN {lit(a)} AND {lit(d)} AND {k} < {lit(c)}", "range",
           (scan(f"in [{a!r}, {c!r})"),))
    yield f"{k} NOT BETWEEN {lit(a)} AND {lit(c)}", "seq", ()
    if k == "id":           # int and float literals on one INT column
        yield (f"id >= {a} AND id > {a - 0.5}", "range",
               (scan(f"in [{a!r}, +inf)"),))
        yield (f"id > {a + 0.5} AND id >= {a} AND id < {c}", "range",
               (scan(f"in ({a + 0.5!r}, {c!r})"),))
    # beside the other indexed column, an unindexed one, an equality
    x = sweep.keys(other)[0]
    yield (f"{k} > {lit(a)} AND {other} = {lit(x)}", "eq",
           (f"IndexScan(t.{other} = {x!r}) [filtered]",
            scan(f"in ({a!r}, +inf)", filtered=True)))
    yield (f"{k} >= {lit(a)} AND g > 3 AND {k} < {lit(c)}", "range",
           (scan(f"in [{a!r}, {c!r})", filtered=True),))
    yield (f"{k} > {lit(a)} AND {k} = {lit(b)}", "eq",
           (scan(f"= {b!r}", filtered=True),))


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyzed"])
@pytest.mark.parametrize("table_kind", TABLES)
def test_ranges_held_to_sqlite(table_kind, analyze):
    """Every WHERE of ``_range_cases`` as a SELECT on every engine and as
    an UPDATE; every third one also as a DELETE or as the UPDATE that
    moves the scanned key out of the range being read."""
    seed = STORAGE_SEED * 1000 + 77
    sweep = Sweep(_two_key(random.Random(seed)), table_kind, "btree", analyze,
                  random.Random(seed + 500), engines=Executor.ENGINES)
    sweep.db.execute("CREATE INDEX t_name ON t (name)")
    touched = writes = 0
    for k, other, moved in (("id", "name", "id + 1000"),
                            ("name", "id", "'zz-moved'")):
        for where, path, labels in _range_cases(sweep, k, other):
            touched += sweep.run(f"UPDATE t SET v = v + 1.5 WHERE {where}",
                                 path, labels)
            writes += 1
            if writes % 3 == 0 and path == "range" and " AND " in where:
                sql = (f"DELETE FROM t WHERE {where}" if writes % 2 else
                       f"UPDATE t SET {k} = {moved} WHERE {where}")
                touched += sweep.run(sql, path, labels)
    assert touched > ROWS, "the sweep's statements stopped finding rows"


# -- a failed UPDATE must not cost the row its index entry ------------------------


@pytest.mark.parametrize("index", ["btree", "hash"])
@pytest.mark.parametrize("table_kind", TABLES)
def test_failed_update_keeps_every_posting(table_kind, index):
    db = repro.connect(**TABLES[table_kind])
    db.execute("CREATE TABLE t (id INT UNIQUE, g INT, v FLOAT)")
    table = db.catalog.table("t")
    for i in range(50):
        table.insert((i, i % 10, float(i)))
    table.insert((121, 0, 121.0))
    db.execute(f"CREATE INDEX t_id ON t (id) USING {index}")
    db.execute("CREATE INDEX t_g ON t (g)")

    with pytest.raises(ConstraintViolation):
        db.execute("UPDATE t SET id = 7 WHERE id = 3")
    check_indexes(db)
    assert db.execute("SELECT v FROM t WHERE id = 3").rows == [(3.0,)]
    assert db.execute("SELECT v FROM t WHERE id + 0 = 3").rows == [(3.0,)]
    assert db.execute("UPDATE t SET v = 30 WHERE id = 3").extra[
        "rowcount"] == 1

    # five victims (ids 1, 11, 21, 31, 41); 21 -> 121 is taken, so the
    # statement fails part-way, whatever order the scan found them in
    with pytest.raises(ConstraintViolation):
        db.execute("UPDATE t SET id = id + 100 WHERE g = 1")
    check_indexes(db)
    ids = set(db.execute("SELECT id FROM t").column("id"))
    assert 21 in ids and 121 in ids and len(ids) == 51
    for key in sorted(ids):
        assert db.execute(f"SELECT id FROM t WHERE id = {key}").rows == [
            (key,)], key
        assert db.execute(f"DELETE FROM t WHERE id = {key}").extra[
            "rowcount"] == 1
    check_indexes(db)
    assert len(table) == 0


@pytest.mark.parametrize("table_kind", TABLES)
def test_ill_typed_update_writes_nothing(table_kind):
    """``a + s`` adds a number to TEXT: the UPDATE is a BindError before
    its first victim is read — not a rewrite of row 1 (where ``a`` is
    NULL, so ``a + s`` is too) and a TypeError at row 2."""
    db = repro.connect(**TABLES[table_kind])
    db.execute("CREATE TABLE t (id INT, a INT, s TEXT)")
    db.execute("INSERT INTO t VALUES (1, NULL, 'x'), (2, 5, 'y')")
    db.execute("CREATE INDEX t_s ON t (s)")
    db.execute("CREATE INDEX t_a ON t (a) USING hash")
    rows = list(db.catalog.table("t").scan())
    before = db.clock.now
    with pytest.raises(BindError):
        db.execute("UPDATE t SET s = upper(s), a = a + s")
    assert db.clock.now == before
    assert list(db.catalog.table("t").scan()) == rows
    check_indexes(db)
    assert db.execute("UPDATE t SET s = upper(s), a = a + id").extra[
        "rowcount"] == 2
    assert _sorted(db.execute("SELECT * FROM t").rows) == [
        (1, None, "X"), (2, 7, "Y")]
    check_indexes(db)


@pytest.mark.parametrize("table_kind", TABLES)
def test_ill_typed_insert_writes_nothing(table_kind):
    """``abs('y')`` in the second VALUES row is a BindError before the
    first row is written — not a write of row 1 and a TypeError at row
    2."""
    db = repro.connect(**TABLES[table_kind])
    db.execute("CREATE TABLE t (id INT, s TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a')")
    db.execute("CREATE INDEX t_id ON t (id)")
    db.execute("CREATE INDEX t_s ON t (s) USING hash")
    rows = list(db.catalog.table("t").scan())
    before = db.clock.now
    with pytest.raises(BindError):
        db.execute("INSERT INTO t VALUES (2, 'x'), (abs('y'), 'z')")
    assert db.clock.now == before
    assert list(db.catalog.table("t").scan()) == rows
    check_indexes(db)
    assert db.execute("INSERT INTO t VALUES (2, 'x'), (abs(-3), 'z')").extra[
        "rowcount"] == 2
    assert _sorted(db.execute("SELECT * FROM t").rows) == [
        (1, "a"), (2, "x"), (3, "z")]
    check_indexes(db)


def test_null_keys_stay_out_of_the_btree():
    """NULL keys are never indexed; updating or deleting a row that has
    one must not ask the B+-tree to order None among its keys."""
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 1), (NULL, 2), (3, 3)")
    db.execute("CREATE INDEX t_id ON t (id)")
    assert db.execute("UPDATE t SET v = 9 WHERE v = 2").extra["rowcount"] == 1
    assert db.execute("UPDATE t SET id = 2 WHERE v = 9").extra["rowcount"] == 1
    check_indexes(db)
    assert db.execute("SELECT v FROM t WHERE id = 2").rows == [(9,)]
    assert db.execute("UPDATE t SET id = NULL WHERE id = 2").extra[
        "rowcount"] == 1
    assert db.execute("DELETE FROM t WHERE v = 9").extra["rowcount"] == 1
    check_indexes(db)


# -- the access path, made fit for writes to stand on ----------------------------


def _indexed_2000():
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, name TEXT, v FLOAT)")
    table = db.catalog.table("t")
    for i in range(2000):
        table.insert((i, f"n{i:04d}", float(i)))
    db.execute("CREATE INDEX t_id ON t (id)")
    db.execute("CREATE INDEX t_name ON t (name)")
    return db


def test_strict_bounds_through_the_index():
    db = _indexed_2000()
    cases = [("id > 1995", "(1995, +inf)", [1996, 1997, 1998, 1999]),
             ("id >= 1995", "[1995, +inf)", [1995, 1996, 1997, 1998, 1999]),
             ("id < 3", "(-inf, 3)", [0, 1, 2]),
             ("id <= 3", "(-inf, 3]", [0, 1, 2, 3]),
             ("name > 'n1997'", "('n1997', +inf)", [1998, 1999]),
             ("name < 'n0002'", "(-inf, 'n0002')", [0, 1])]
    for where, interval, ids in cases:
        sql = f"SELECT id FROM t WHERE {where}"
        assert sorted(db.execute(sql).column("id")) == ids, where
        label = _scan_label(db, sql)
        assert label.startswith("IndexScan") and label.endswith(
            f" in {interval})"), label
    # both bounds of a two-sided range fold into the scan: no residual
    sql = "SELECT id FROM t WHERE id > 10 AND id < 13"
    assert _scan_label(db, sql) == "IndexScan(t.id in (10, 13))"
    assert sorted(db.execute(sql).column("id")) == [11, 12]


def test_a_range_reads_its_rows_and_nothing_else():
    """Work, not wall time: a 20-id range costs one descent and twenty
    index rows wherever it sits in the table, and the second bound is
    part of the scan, not a filter over everything above ``k``."""
    db = _indexed_2000()
    for k in (0, 990, 1980):
        where = f"WHERE id >= {k} AND id < {k + 20}"
        before = (db.clock.category_total(cat.INDEX),
                  db.clock.category_total(cat.FILTER))
        rows = db.execute(f"SELECT id FROM t {where}").column("id")
        assert sorted(rows) == list(range(k, k + 20))
        index = db.clock.category_total(cat.INDEX) - before[0]
        assert index == pytest.approx(
            CostModel.INDEX_DESCENT + 20 * CostModel.TUPLE_CPU, rel=1e-9)
        assert db.clock.category_total(cat.FILTER) == before[1]
        analyzed = db.execute(f"EXPLAIN ANALYZE SELECT * FROM t {where}")
        scan = [line for (line,) in analyzed.rows if " pages=" in line]
        assert len(scan) == 1
        assert int(scan[0].split(" pages=")[1].split()[0]) <= 21
    # the cheapest index, not the first conjunct; the tightest bound, not
    # the first one
    assert _scan_label(db, "SELECT * FROM t WHERE id > 5 AND name = 'n0007'"
                       ) == "IndexScan(t.name = 'n0007') [filtered]"
    assert _scan_label(db, "SELECT * FROM t WHERE id > 3 AND id > 1990"
                       ) == "IndexScan(t.id in (1990, +inf))"
    assert _scan_label(db, "UPDATE t SET v = 0 WHERE id >= 100 AND id < 103"
                       ) == "IndexScan(t.id in [100, 103))"


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyzed"])
def test_literal_of_the_wrong_kind_never_reaches_the_index(analyze):
    """Every predicate returns the SeqScan's rows or, when it orders TEXT
    against a number, is a BindError before anything is charged — never
    a TypeError out of ``bisect`` or a ValueError out of ``float()``."""
    db = _indexed_2000()
    db.execute("CREATE TABLE flags (b BOOL, n INT)")
    db.execute("INSERT INTO flags VALUES (TRUE, 1), (FALSE, 0), (NULL, 2)")
    db.execute("CREATE INDEX flags_b ON flags (b)")
    db.execute("CREATE INDEX flags_n ON flags (n) USING hash")
    if analyze:
        db.execute("ANALYZE")
    predicates = [
        ("t", "id = 'abc'"), ("t", "id > 'abc'"), ("t", "id <= 'abc'"),
        ("t", "'abc' = id"), ("t", "id = TRUE"), ("t", "id > FALSE"),
        ("t", "name = 5"), ("t", "name < 5"), ("t", "name >= 2.5"),
        ("t", "name = TRUE"), ("t", "name > 'n1997'"),
        ("t", "name BETWEEN 'n0001' AND 'n0003'"), ("t", "id = 7.0"),
        ("t", "id < 2.5"), ("flags", "b = 1"), ("flags", "b = TRUE"),
        ("flags", "b = 'yes'"), ("flags", "n = 'one'"), ("flags", "n = TRUE"),
        # a mixed pair: the bound the index can order does not save the
        # other one from being ill-typed
        ("t", "id >= 5 AND id < 'abc'"), ("t", "'abc' > id AND 5 <= id"),
        ("t", "id BETWEEN 5 AND 'abc'"), ("t", "id >= 5 AND id = 'abc'"),
    ]
    for table, where in predicates:
        select = parse(f"SELECT * FROM {table} WHERE {where}")
        try:
            expected = _sorted(row for _, row in _full_scan_victims(
                db, ast.Delete(table, select.where)))
        except BindError:
            _assert_rejected(db, table, where)
            continue
        got = db.execute(f"SELECT * FROM {table} WHERE {where}").rows
        assert _sorted(got) == expected, where
    # kinds that match keep the index
    for sql in ("SELECT * FROM t WHERE id = 7.0",
                "SELECT * FROM t WHERE name > 'n1997'",
                "SELECT * FROM flags WHERE b = TRUE"):
        assert _scan_label(db, sql).startswith("IndexScan"), sql
    for sql in ("SELECT * FROM t WHERE id = 'abc'",
                "SELECT * FROM t WHERE name = 5",
                "SELECT * FROM flags WHERE b = 1",
                "SELECT * FROM flags WHERE n = TRUE"):
        assert _scan_label(db, sql).startswith("SeqScan"), sql
    _cross_kind_orderings_rejected(analyze)


def _assert_rejected(db, table: str, where: str) -> None:
    """``where`` is a BindError on every engine and as UPDATE / DELETE,
    with nothing charged and nothing written."""
    rows = _sorted(db.execute(f"SELECT * FROM {table}").rows)
    session, before = db.executor, db.clock.now
    column = db.catalog.table(table).schema.columns[0].name
    for engine in Executor.ENGINES:
        db.executor = with_engine(db, engine)
        with pytest.raises(BindError):
            db.execute(f"SELECT * FROM {table} WHERE {where}")
    db.executor = session
    for sql in (f"UPDATE {table} SET {column} = {column} WHERE {where}",
                f"DELETE FROM {table} WHERE {where}"):
        with pytest.raises(BindError):
            db.execute(sql)
    assert db.clock.now == before, where
    assert _sorted(db.execute(f"SELECT * FROM {table}").rows) == rows
    check_indexes(db, table)


def _cross_kind_orderings_rejected(analyze: bool) -> None:
    """Whether an ordering across TEXT and numbers is rejected does not
    depend on the data: every column of every seeded shape, indexed, on
    the drawn rows and on an empty table."""
    for name, build in sorted(REGIMES.items()):
        regime = build(random.Random(STORAGE_SEED * 1000 + 5))
        for rows in (regime.rows, []):
            db = repro.connect()
            db.execute(regime.ddl(sqlite=False))
            table = db.catalog.table("t")
            for row in rows:
                table.insert(row)
            db.execute(f"CREATE INDEX t_key ON t ({regime.key})")
            if analyze:
                db.execute("ANALYZE")
            for column, dtype in regime.columns:
                wrong = "5" if dtype == "TEXT" else "'abc'"
                for where in (f"{column} < {wrong}", f"{wrong} <= {column}",
                              f"{column} BETWEEN {wrong} AND {wrong}",
                              f"{column} IS NOT NULL AND {column} > {wrong}"):
                    _assert_rejected(db, "t", where)
