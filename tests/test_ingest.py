"""The insert loop held to the per-value definitions.

``TableSchema.coerce_row`` coerces and sizes a row in one pass,
dispatching on each value's exact type and sending everything else
through ``coerce_value`` / ``value_size_bytes``.  The reference below is
the per-value definition the loop replaced: a row is
``tuple(coerce_value(v, dtype))`` with NOT NULL checked per column, and
its size is ``sum(value_size_bytes(v, dtype))`` over the coerced row.
The two must agree on every row — values by type and ``repr`` (``True``
is not ``1``, ``2`` is not ``2.0``, ``-0.0`` is not ``0.0``), sizes
exactly — and on every error, by type and message.  Loading rows must
lay them out on pages exactly as those sizes say, on plain, sharded and
replicated tables alike.  ``STORAGE_SEED`` re-rolls the draws.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.common.errors import ConstraintViolation, TypeMismatchError
from repro.storage.heap import HeapTable
from repro.storage.page import PAGE_CAPACITY_BYTES, SHARD_SHIFT, SLOT_BITS
from repro.storage.replica import ReplicatedTable
from repro.storage.schema import Column, TableSchema
from repro.storage.sharded import ShardedTable
from repro.storage.types import DataType, coerce_value, value_size_bytes

from test_storage_typed import STORAGE_SEED


def reference_row(schema: TableSchema, values) -> tuple[tuple, int]:
    """The per-value definition of ``coerce_row``."""
    if len(values) != len(schema.columns):
        raise TypeMismatchError(
            f"table {schema.table_name!r} expects {len(schema.columns)} "
            f"values, got {len(values)}")
    out = []
    for col, raw in zip(schema.columns, values):
        value = coerce_value(raw, col.dtype)
        if value is None and not col.nullable:
            raise TypeMismatchError(
                f"column {col.name!r} of {schema.table_name!r} is NOT NULL")
        out.append(value)
    return tuple(out), sum(value_size_bytes(v, c.dtype)
                           for v, c in zip(out, schema.columns))


def _outcome(call):
    """What ``call()`` did, comparable across the two definitions."""
    try:
        row, size = call()
    except Exception as exc:       # noqa: BLE001 - compared by type + text
        return ("raised", type(exc), str(exc))
    return ("row", tuple((type(v), repr(v)) for v in row), size)


def _same_as_reference(schema: TableSchema, values) -> None:
    assert (_outcome(lambda: schema.coerce_row(values))
            == _outcome(lambda: reference_row(schema, values))), values


# -- every dtype, every kind of value ----------------------------------------

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),                                   # past int64 too
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(),                                     # NaN, ±inf, ±0.0
    st.floats().map(np.float64),
    st.sampled_from([2.0, 2.5, -0.0, 2 ** 53 + 1, float(2 ** 63)]),
    st.text(),                                       # non-ASCII too
)
COLUMNS = st.lists(st.tuples(st.sampled_from(list(DataType)), st.booleans()),
                   min_size=1, max_size=5)


@st.composite
def _schema_and_rows(draw):
    columns = draw(COLUMNS)
    schema = TableSchema("t", [Column(f"c{i}", dtype, nullable=nullable)
                               for i, (dtype, nullable) in enumerate(columns)])
    rows = draw(st.lists(
        st.lists(VALUES, min_size=len(columns) - 1,
                 max_size=len(columns) + 1).map(tuple),
        min_size=1, max_size=6))
    return schema, rows


@seed(STORAGE_SEED)
@settings(max_examples=300, deadline=None)
@given(_schema_and_rows())
def test_coerce_row_matches_the_per_value_definition(case):
    schema, rows = case
    for values in rows:
        _same_as_reference(schema, values)


@seed(STORAGE_SEED)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_well_typed_rows_take_the_exact_path(data):
    """Rows of exactly the stored types (the load path's common case),
    an ``int`` widened into FLOAT among them."""
    dtypes = data.draw(st.lists(st.sampled_from(list(DataType)),
                                min_size=1, max_size=6))
    schema = TableSchema("t", [Column(f"c{i}", d)
                               for i, d in enumerate(dtypes)])
    kinds = {DataType.INT: st.integers(),
             DataType.FLOAT: st.one_of(st.floats(), st.integers(-2 ** 60,
                                                                 2 ** 60)),
             DataType.TEXT: st.text(),
             DataType.BOOL: st.booleans()}
    for _ in range(3):
        values = data.draw(st.tuples(*(kinds[d] for d in dtypes)))
        _same_as_reference(schema, values)
        _same_as_reference(schema, list(values))


INT, FLOAT, TEXT, BOOL = (DataType.INT, DataType.FLOAT, DataType.TEXT,
                          DataType.BOOL)
EDGES = [
    ([(INT, False)], (None,)),                 # NULL into NOT NULL
    ([(TEXT, True), (INT, False)], ("a", None)),
    ([(INT, True)], (True,)),                  # a bool offered to INT
    ([(FLOAT, True)], (False,)),               # ... and to FLOAT
    ([(INT, True)], (2.0,)),                   # an integral float: kept
    ([(INT, True)], (2.5,)),                   # ... a fractional one: not
    ([(INT, True)], (np.float64(2.0),)),
    ([(FLOAT, True)], (np.float64(2.5),)),     # a float subclass
    ([(INT, True)], (np.int64(3),)),
    ([(FLOAT, True)], (np.int64(3),)),
    ([(FLOAT, True)], (2 ** 1100,)),           # too big for a float
    ([(TEXT, True)], ("héllo wörld",)),
    ([(TEXT, True)], ("日本語 🙂",)),
    ([(TEXT, True)], (5,)),
    ([(BOOL, True)], (1,)),
    ([(INT, True), (TEXT, True)], (1,)),       # too few values
    ([(INT, True)], (1, 2)),                   # too many
    ([(INT, True), (FLOAT, True), (TEXT, True), (BOOL, True)],
     (1, 2, "x", True)),
]


@pytest.mark.parametrize("columns,values", EDGES)
def test_edge_values_match_the_per_value_definition(columns, values):
    schema = TableSchema("t", [Column(f"c{i}", dtype, nullable=nullable)
                               for i, (dtype, nullable) in enumerate(columns)])
    _same_as_reference(schema, values)


# -- page layout ------------------------------------------------------------

SCHEMA = [Column("id", INT, unique=True), Column("name", TEXT),
          Column("score", FLOAT), Column("flag", BOOL)]
TEXTS = ["", "a", "héllo", "日本語", "x" * 300, "🙂" * 40]


def _rows(rng: random.Random, count: int) -> list[tuple]:
    """Rows the tables must store or refuse as the reference says: most
    well-typed, some widened ints and NULLs, some duplicate ids and some
    ill-typed values."""
    rows = []
    for i in range(count):
        score = rng.choice([rng.uniform(-1, 1), rng.randint(-9, 9), None])
        name = rng.choice(TEXTS + [f"n{rng.randint(0, 99)}"])
        ident = i if rng.random() < 0.95 else rng.randint(0, max(0, i - 1))
        flag = rng.choice([True, False, None, "bad"] if rng.random() < 0.05
                          else [True, False])
        rows.append((ident, name, score, flag))
    return rows


def _reference_layout(rows: list[tuple], owner) -> tuple[list, int]:
    """Each row's rid (None if refused) and the page count, laid out by
    the per-value sizes: a page takes a row while its bytes fit."""
    schema = TableSchema("t", SCHEMA)
    used: dict[int, list[tuple[int, int]]] = {}   # shard -> [(bytes, slots)]
    seen: set = set()
    rids = []
    for values in rows:
        try:
            row, size = reference_row(schema, values)
        except TypeMismatchError:
            rids.append(None)
            continue
        if row[0] in seen:
            rids.append(None)
            continue
        seen.add(row[0])
        shard = owner(row)
        pages = used.setdefault(shard, [])
        if (not pages or pages[-1][0] + size > PAGE_CAPACITY_BYTES
                or pages[-1][1] >= 1 << SLOT_BITS):
            pages.append((0, 0))
        fill, slots = pages[-1]
        pages[-1] = (fill + size, slots + 1)
        rids.append(shard << SHARD_SHIFT
                    | (len(pages) - 1) << SLOT_BITS | slots)
    return rids, sum(map(len, used.values()))


def _tables():
    schema = TableSchema("t", SCHEMA)
    return {
        "plain": HeapTable(schema),
        "replicated": ReplicatedTable(schema),
        "sharded": ShardedTable(schema, 3),
        "sharded-replicated": ShardedTable(schema, 3, replicated=True),
        "range": ShardedTable(schema, 3, partition="score",
                              partition_kind="range",
                              boundaries=[-0.5, 0.5]),
    }


@pytest.mark.parametrize("kind", list(_tables()))
def test_loading_lays_rows_out_by_the_per_value_sizes(kind):
    table = _tables()[kind]
    rows = _rows(random.Random(STORAGE_SEED * 31 + 7), 900)
    owner = table.shard_of if isinstance(table, ShardedTable) else (
        lambda row: 0)
    expected, pages = _reference_layout(rows, owner)
    got = []
    for values in rows:
        try:
            got.append(table.insert(values))
        except (TypeMismatchError, ConstraintViolation):
            got.append(None)
    assert got == expected
    assert table.page_count == pages
    assert pages >= 8                     # the rows span many pages
    schema = TableSchema("t", SCHEMA)
    stored = {rid: reference_row(schema, values)[0]
              for rid, values in zip(expected, rows) if rid is not None}
    scanned = dict(table.scan())
    assert ([tuple((type(v), repr(v)) for v in row)
             for row in scanned.values()]
            == [tuple((type(v), repr(v)) for v in stored[rid])
                for rid in scanned])
    if isinstance(table, ReplicatedTable) or getattr(table, "replicated",
                                                     False):
        assert table.copies_identical()
