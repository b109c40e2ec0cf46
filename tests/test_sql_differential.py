"""SELECT with joins, held to stdlib ``sqlite3``: a seeded differential.

A seeded generator writes well-typed SELECTs over three small tables:

* FROM one table, or a two- or three-table equi-join — ``JOIN ... ON``
  or a comma list joined in WHERE — including self-joins;
* WHERE conjuncts over INT / FLOAT / TEXT columns holding NULLs:
  comparisons with a literal of the column's kind, ``IS [NOT] NULL``,
  ``BETWEEN``, ``IN``, ``LIKE``, and comparisons between two columns of
  one kind (a second join condition, or a residual over two tables);
* a plain select list (sometimes DISTINCT, sometimes ending in an
  arithmetic item: ``+ - * / %`` over INT / FLOAT columns and
  literals), a GROUP BY with ``count`` / ``sum`` / ``min`` / ``max``, or
  aggregates alone;
* ORDER BY every output column by position, ASC or DESC — a grouped
  query sometimes spells a key as its select item instead
  (``ORDER BY count(*)``, ``ORDER BY sum(b.y)``) — and an optional
  LIMIT (sometimes with OFFSET).

Each query runs through ``db.execute`` on the batch, parallel and
distributed engines, and through ``sqlite3`` on the same rows; the rows
must agree in order, value and Python type.  ``SQL_SEED`` re-rolls the
data and the queries (CI runs a 3-seed matrix; tier-1 runs seed 0).

A mutator makes ill-typed texts from the same tables — TEXT ordered
against a number, ``sum`` / ``avg`` / arithmetic / ``abs`` over TEXT,
``lower`` / ``upper`` over a number — and each must be a ``BindError``
before any operator is built, with nothing charged.

Known semantic differences, each bridged in the oracle's text or in the
comparison — nothing else may differ:

* NULL ordering: NULLs sort last ascending and first descending here
  (PostgreSQL's rule), first ascending in sqlite.  The oracle's ORDER BY
  spells ``NULLS LAST`` / ``NULLS FIRST`` to match.
* A FLOAT ``sum`` adds in a different order (blocks, morsels, partials
  per worker / node), so FLOAT values compare to 1e-9 relative; their
  type must still be ``float``.
* sqlite takes OFFSET only after a LIMIT: the generator writes OFFSET
  only with one.
* FLOAT columns hold no NaN: sqlite stores NaN as NULL.
* ``/`` of two INTs is true division here (a FLOAT, as in Python) and
  truncating integer division in sqlite: the oracle's text divides
  ``CAST(x AS REAL)``.
* ``%`` is floored here (the result takes the divisor's sign, as in
  Python) and truncated in sqlite (the dividend's sign), which also
  casts FLOAT operands to INTEGER: ``%`` is generated over INTs only,
  and the oracle's text spells ``((x % y) + y) % y``.
* A zero divisor is an error here and NULL in sqlite: the generator
  divides only by non-zero literals.
"""

from __future__ import annotations

import os
import random

import pytest

import repro
from repro.common.errors import BindError
from repro.exec.executor import Executor

from sqlite_oracle import assert_same_rows, sqlite_mirror
from test_storage_typed import FLOAT_CLEAN, INT_SMALL, TEXT_SMALL, _draw

SQL_SEED = int(os.environ.get("SQL_SEED", "0"))
QUERIES = 120
MUTANTS = 40

#: table -> (column, kind); ``id`` is unique, ``k`` a small join key
TABLES = {
    "a": [("id", "INT"), ("k", "INT"), ("x", "FLOAT"), ("s", "TEXT")],
    "b": [("id", "INT"), ("k", "INT"), ("y", "FLOAT"), ("s", "TEXT")],
    "c": [("k", "INT"), ("n", "INT"), ("t", "TEXT")],
}
SIZES = {"a": 40, "b": 30, "c": 20}
_REGIME = {"INT": INT_SMALL, "FLOAT": FLOAT_CLEAN, "TEXT": TEXT_SMALL}

#: FROM clauses: (aliases -> table, text, the join conditions it writes
#: into WHERE)
FROMS = [
    ({"a": "a"}, "a", []),
    ({"c": "c"}, "c", []),
    ({"a": "a", "b": "b"}, "a JOIN b ON a.k = b.k", []),
    ({"p": "a", "q": "a"}, "a p JOIN a q ON p.k = q.k", []),
    ({"b": "b", "c": "c"}, "b, c", ["b.k = c.k"]),
    ({"a": "a", "b": "b", "c": "c"},
     "a JOIN b ON a.k = b.k JOIN c ON b.id = c.k", []),
    ({"p": "b", "q": "b", "c": "c"},
     "b p JOIN b q ON p.k = q.k JOIN c ON q.k = c.k", []),
    ({"a": "a", "c": "c", "b": "b"}, "a, c, b", ["a.k = c.k", "c.k = b.k"]),
]


def _rows(table: str, rng: random.Random) -> list[tuple]:
    rows = []
    for i in range(SIZES[table]):
        row = []
        for column, kind in TABLES[table]:
            if column == "id":
                row.append(i)
            elif column == "k":
                row.append(None if rng.random() < 0.15 else rng.randint(0, 6))
            else:
                row.append(_draw(rng, _REGIME[kind], 0.15))
        rows.append(tuple(row))
    return rows


def _literal(kind: str, rng: random.Random, column: str) -> str:
    if kind == "TEXT":
        return f"'tag-{rng.randint(0, 12)}'"
    if column in ("id", "k"):
        value = rng.randint(-1, 8)
    elif kind == "INT":
        value = rng.randint(-12_000, 12_000)
    else:
        value = round(rng.uniform(-1.2e6, 1.2e6), 2)
    if kind == "INT" and rng.random() < 0.2:
        return f"{value + 0.5}"       # an INT column against a FLOAT
    return str(value)


def _predicate(columns, rng: random.Random) -> str:
    ref, kind, column = rng.choice(columns)
    form = rng.random()
    if form < 0.12:
        return f"{ref} IS {rng.choice(['', 'NOT '])}NULL"
    if form < 0.22:
        low, high = sorted((_literal(kind, rng, column),
                            _literal(kind, rng, column)),
                           key=lambda v: v if kind == "TEXT" else float(v))
        return f"{ref} BETWEEN {low} AND {high}"
    if form < 0.32:
        values = {_literal(kind, rng, column) for _ in range(3)}
        return f"{ref} IN ({', '.join(sorted(values))})"
    if form < 0.4 and kind == "TEXT":
        return f"{ref} LIKE '{rng.choice(['tag-1%', '%3', 'tag-_'])}'"
    if form < 0.52:
        others = [o for o in columns if o[1] == kind and o[0] != ref]
        if others:
            other = rng.choice(others)[0]
            return f"{ref} {rng.choice(['=', '<', '>=', '<>'])} {other}"
    op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
    return f"{ref} {op} {_literal(kind, rng, column)}"


def _arithmetic(columns, rng: random.Random) -> tuple[str, str]:
    """One arithmetic select item over numeric columns: ``(ours,
    sqlite's)``, the latter bridging the allowlist's division and
    modulo rules."""
    numeric = [(ref, kind) for ref, kind, _ in columns if kind != "TEXT"]
    ref, kind = rng.choice(numeric)
    op = rng.choice(["+", "-", "*", "/", "%"])
    if op == "%":
        ints = [r for r, k in numeric if k == "INT"]
        ref = rng.choice(ints)
        divisor = str(rng.choice([-7, -3, 2, 5, 11]))
        return (f"{ref} % {divisor}",
                f"(({ref} % {divisor}) + {divisor}) % {divisor}")
    if op == "/":
        divisor = rng.choice(["3", "-4", "2.5", "-0.5"])
        return f"{ref} / {divisor}", f"CAST({ref} AS REAL) / {divisor}"
    other = (rng.choice(numeric)[0] if rng.random() < 0.5
             else rng.choice(["2", "-3", "1.5", "0.25"]))
    return f"{ref} {op} {other}", f"{ref} {op} {other}"


def generate(rng: random.Random) -> tuple[str, str]:
    """One query: ``(ours, sqlite's)`` — the same text but for the NULL
    ordering the ORDER BY spells out for sqlite and the arithmetic
    bridges of the allowlist."""
    aliases, from_text, joins = rng.choice(FROMS)
    columns = [(f"{alias}.{column}", kind, column)
               for alias, table in aliases.items()
               for column, kind in TABLES[table]]
    conjuncts = joins + [_predicate(columns, rng)
                         for _ in range(rng.randint(0, 2))]

    shape = rng.random()
    group_by: list[str] = []
    if shape < 0.45:
        items = [ref for ref, _, _ in rng.sample(columns,
                                                  rng.randint(1, 3))]
    else:
        if shape < 0.8:
            group_by = [ref for ref, _, _ in
                        rng.sample(columns, rng.randint(1, 2))]
        aggregates = []
        for _ in range(rng.randint(1, 3)):
            ref, kind, _ = rng.choice(columns)
            func = rng.choice(["count", "sum", "min", "max"]
                              if kind != "TEXT" else ["count", "min", "max"])
            aggregates.append("count(*)" if rng.random() < 0.2
                              else f"{func}({ref})")
        items = group_by + aggregates
    distinct = "DISTINCT " if not group_by and rng.random() < 0.15 else ""

    text = f"SELECT {distinct}{', '.join(items)} FROM {from_text}"
    if conjuncts:
        text += " WHERE " + " AND ".join(conjuncts)
    if group_by:
        text += " GROUP BY " + ", ".join(group_by)
    keys = [(position, rng.random() < 0.4)
            for position in range(1, len(items) + 1)]
    rng.shuffle(keys)
    limit = ""
    if rng.random() < 0.4:
        limit = f" LIMIT {rng.randint(0, 12)}"
        if rng.random() < 0.4:
            limit += f" OFFSET {rng.randint(0, 6)}"
    if shape >= 0.45:
        keys = [(items[p - 1] if rng.random() < 0.5 else p, d)
                for p, d in keys]
    their_text = text
    if shape < 0.45 and rng.random() < 0.5:
        # drawn last, so the rest of the query is what it was without it
        mine, its = _arithmetic(columns, rng)
        select = f"SELECT {distinct}{', '.join(items)}"
        text = text.replace(select, f"{select}, {mine}", 1)
        their_text = their_text.replace(select, f"{select}, {its}", 1)
        keys.append((len(items) + 1, rng.random() < 0.4))
    ours = ", ".join(f"{p}{' DESC' if d else ''}" for p, d in keys)
    theirs = ", ".join(f"{p} DESC NULLS FIRST" if d else f"{p} NULLS LAST"
                       for p, d in keys)
    return (f"{text} ORDER BY {ours}{limit}",
            f"{their_text} ORDER BY {theirs}{limit}")


@pytest.fixture(scope="module")
def databases():
    rng = random.Random(SQL_SEED)
    db = repro.connect()
    for table, columns in TABLES.items():
        spec = ", ".join(f"{column} {kind}" for column, kind in columns)
        db.execute(f"CREATE TABLE {table} ({spec})")
        for row in _rows(table, rng):
            db.catalog.table(table).insert(row)
    db.execute("CREATE INDEX a_id ON a (id)")
    db.execute("CREATE INDEX b_k ON b (k) USING hash")
    db.execute("ANALYZE")
    return db, sqlite_mirror(db, TABLES)


ENGINES = {
    "batch": {},
    "parallel": {"workers": 2, "morsel_rows": 8},
    "distributed": {"nodes": 2, "workers": 2, "morsel_rows": 8},
}


@pytest.mark.parametrize("case", range(QUERIES))
def test_select_held_to_sqlite(databases, case):
    db, mirror = databases
    ours, theirs = generate(random.Random(SQL_SEED * 100_003 + case))
    expected = mirror.execute(theirs).fetchall()
    for engine, knobs in ENGINES.items():
        db.executor = Executor(db.catalog, db.clock, engine=engine, **knobs)
        assert_same_rows(db.execute(ours).rows, expected, (engine, ours))


def mutant(rng: random.Random) -> str:
    """One ill-typed SELECT over the differential's tables: a well-typed
    frame with one mutated predicate or select item."""
    aliases, from_text, joins = rng.choice(FROMS)
    columns = [(f"{alias}.{column}", kind)
               for alias, table in aliases.items()
               for column, kind in TABLES[table]]
    text = rng.choice([ref for ref, kind in columns if kind == "TEXT"])
    number = rng.choice([ref for ref, kind in columns if kind != "TEXT"])
    literal = rng.choice(["5", "-2.5", "0"])
    compare = rng.choice(["<", "<=", ">", ">="])
    where = rng.random() < 0.5
    bad = rng.choice([
        f"{text} {compare} {literal}", f"{literal} {compare} {text}",
        f"{text} {compare} {number}", f"{text} BETWEEN 1 AND {literal}",
        f"abs({text}) > 1", f"{text} + 1 > 2", f"upper({number}) = 'X'",
    ] if where else [
        f"sum({text})", f"avg({text})", f"-{text}", f"lower({number})",
        f"{text} {rng.choice(['+', '-', '*', '/', '%'])} {literal}",
    ])
    conjuncts = joins + ([bad] if where else [])
    sql = f"SELECT {number if where else bad} FROM {from_text}"
    return sql + (" WHERE " + " AND ".join(conjuncts) if conjuncts else "")


@pytest.mark.parametrize("case", range(MUTANTS))
def test_ill_typed_mutants_are_bind_errors(databases, case, monkeypatch):
    db, _ = databases
    sql = mutant(random.Random(SQL_SEED * 100_003 + QUERIES + case))
    built = []
    build = Executor.build
    monkeypatch.setattr(Executor, "build",
                        lambda self, node: built.append(node) or build(
                            self, node))
    before = db.clock.now
    with pytest.raises(BindError):
        db.execute(sql)
    assert built == [] and db.clock.now == before, sql
