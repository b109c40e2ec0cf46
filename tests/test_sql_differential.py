"""SELECT with joins, held to stdlib ``sqlite3``: a seeded differential.

A seeded generator writes well-typed SELECTs over three small tables:

* FROM one table, or a two- or three-table equi-join — ``JOIN ... ON``
  or a comma list joined in WHERE — including self-joins;
* WHERE conjuncts over INT / FLOAT / TEXT columns holding NULLs:
  comparisons with a literal of the column's kind, ``IS [NOT] NULL``,
  ``BETWEEN``, ``IN``, ``LIKE``, and comparisons between two columns of
  one kind (a second join condition, or a residual over two tables);
* a plain select list (sometimes DISTINCT), a GROUP BY with
  ``count`` / ``sum`` / ``min`` / ``max``, or aggregates alone;
* ORDER BY every output column by position, ASC or DESC — a grouped
  query sometimes spells a key as its select item instead
  (``ORDER BY count(*)``, ``ORDER BY sum(b.y)``) — and an optional
  LIMIT (sometimes with OFFSET).

Each query runs through ``db.execute`` on the batch, parallel and
distributed engines, and through ``sqlite3`` on the same rows; the rows
must agree in order, value and Python type.  ``SQL_SEED`` re-rolls the
data and the queries (CI runs a 3-seed matrix; tier-1 runs seed 0).

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
"""

from __future__ import annotations

import math
import os
import random
import sqlite3

import pytest

import repro
from repro.exec.executor import Executor

from test_storage_typed import FLOAT_CLEAN, INT_SMALL, TEXT_SMALL, _draw

SQL_SEED = int(os.environ.get("SQL_SEED", "0"))
QUERIES = 120

#: table -> (column, kind); ``id`` is unique, ``k`` a small join key
TABLES = {
    "a": [("id", "INT"), ("k", "INT"), ("x", "FLOAT"), ("s", "TEXT")],
    "b": [("id", "INT"), ("k", "INT"), ("y", "FLOAT"), ("s", "TEXT")],
    "c": [("k", "INT"), ("n", "INT"), ("t", "TEXT")],
}
SIZES = {"a": 40, "b": 30, "c": 20}
SQLITE_TYPE = {"INT": "INTEGER", "FLOAT": "REAL", "TEXT": "TEXT"}
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


def generate(rng: random.Random) -> tuple[str, str]:
    """One query: ``(ours, sqlite's)`` — the same text but for the NULL
    ordering the ORDER BY spells out for sqlite."""
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
    ours = ", ".join(f"{p}{' DESC' if d else ''}" for p, d in keys)
    theirs = ", ".join(f"{p} DESC NULLS FIRST" if d else f"{p} NULLS LAST"
                       for p, d in keys)
    return (f"{text} ORDER BY {ours}{limit}",
            f"{text} ORDER BY {theirs}{limit}")


@pytest.fixture(scope="module")
def databases():
    rng = random.Random(SQL_SEED)
    db = repro.connect()
    mirror = sqlite3.connect(":memory:")
    for table, columns in TABLES.items():
        rows = _rows(table, rng)
        for target, types in ((db, None), (mirror, SQLITE_TYPE)):
            spec = ", ".join(f"{column} {types[kind] if types else kind}"
                             for column, kind in columns)
            target.execute(f"CREATE TABLE {table} ({spec})")
        for row in rows:
            db.catalog.table(table).insert(row)
        mirror.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
            rows)
    db.execute("CREATE INDEX a_id ON a (id)")
    db.execute("CREATE INDEX b_k ON b (k) USING hash")
    db.execute("ANALYZE")
    return db, mirror


ENGINES = {
    "batch": {},
    "parallel": {"workers": 2, "morsel_rows": 8},
    "distributed": {"nodes": 2, "workers": 2, "morsel_rows": 8},
}


def _same(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


@pytest.mark.parametrize("case", range(QUERIES))
def test_select_held_to_sqlite(databases, case):
    db, mirror = databases
    ours, theirs = generate(random.Random(SQL_SEED * 100_003 + case))
    expected = mirror.execute(theirs).fetchall()
    for engine, knobs in ENGINES.items():
        db.executor = Executor(db.catalog, db.clock, engine=engine, **knobs)
        rows = db.execute(ours).rows
        assert len(rows) == len(expected), (engine, ours)
        for got, want in zip(rows, expected):
            assert len(got) == len(want) and all(map(_same, got, want)), \
                (engine, ours, got, want)
