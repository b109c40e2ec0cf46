"""stdlib ``sqlite3`` as the oracle of the SELECT suites: a mirror of a
database's tables and the one type-strict comparison they share.

``test_sql_differential.py``'s module docstring writes out every
difference between the two systems and how each is bridged; the rules
applied here are:

* a value agrees by Python type and value — ``int`` with ``int``,
  ``str`` with ``str``; a FLOAT to 1e-9 relative (sums add in another
  order), but it must still be a ``float``;
* a BOOL is an INTEGER 0 / 1 in sqlite;
* NULLs sort last ascending and first descending here, first ascending
  in sqlite: :func:`sqlite_text` spells ``NULLS LAST`` /
  ``NULLS FIRST`` into each ORDER BY key;
* a query without ORDER BY compares as a multiset (sqlite returns
  groups in key order, the engines in first-seen order).
"""

from __future__ import annotations

import math
import sqlite3

from repro.exec.executor import Executor
from repro.sql import parse
from repro.storage.types import DataType

SQLITE_TYPE = {DataType.INT: "INTEGER", DataType.FLOAT: "REAL",
               DataType.TEXT: "TEXT", DataType.BOOL: "INTEGER"}


def sqlite_mirror(db, tables) -> sqlite3.Connection:
    """``tables`` of ``db``, row for row and with their column types, in
    an in-memory sqlite3."""
    mirror = sqlite3.connect(":memory:")
    for table in tables:
        heap = db.catalog.table(table)
        columns = heap.schema.columns
        spec = ", ".join(f"{column.name} {SQLITE_TYPE[column.dtype]}"
                         for column in columns)
        mirror.execute(f"CREATE TABLE {table} ({spec})")
        mirror.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
            (row for _, row in heap.scan()))
    return mirror


def same(got, want) -> bool:
    """One of our values against sqlite's, under the rules above."""
    if isinstance(got, bool):
        return type(want) is int and want == got
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return got == want


def assert_same_rows(got, want, context, ordered: bool = True) -> None:
    """Our rows against sqlite's: value by value under :func:`same`, in
    order unless ``ordered`` is false."""
    if not ordered:
        got, want = sorted(got, key=repr), sorted(want, key=repr)
    assert len(got) == len(want), context
    for row, other in zip(got, want):
        assert len(row) == len(other) and all(map(same, row, other)), \
            (context, row, other)


def sqlite_text(sql: str) -> str:
    """``sql`` with each ORDER BY key's NULL placement spelled out."""
    if " ORDER BY " not in sql:
        return sql
    head, order = sql.split(" ORDER BY ")
    limit = ""
    if " LIMIT " in order:
        order, limit = order.split(" LIMIT ")
        limit = " LIMIT " + limit
    keys, depth, start = [], 0, 0
    for i, char in enumerate(order + ","):
        depth += (char == "(") - (char == ")")
        if char == "," and depth == 0:
            keys.append(order[start:i].strip())
            start = i + 1
    keys = [key[:-5] + " DESC NULLS FIRST" if key.endswith(" DESC")
            else key + " NULLS LAST" for key in keys]
    return f"{head} ORDER BY {', '.join(keys)}{limit}"


def assert_held_to_sqlite(db, mirror, sql: str) -> None:
    """The batch engine's rows of ``sql`` against sqlite3's."""
    got = Executor(db.catalog, db.clock).run(
        db.planner.plan_select(parse(sql))).rows
    want = mirror.execute(sqlite_text(sql)).fetchall()
    assert_same_rows(got, want, sql, ordered=" ORDER BY " in sql)
