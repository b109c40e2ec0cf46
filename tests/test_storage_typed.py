"""Typed columnar storage v2: property-based differential round-trips.

The invariant under test (``docs/storage.md``): the typed at-rest layout
— int64/float64/bool arrays with validity bitmaps, dictionary-encoded
strings — is *representation only*.  For every randomized schema and
content mix, writing rows and reading them back through any surface
(``scan``, ``scan_column_batches``, per-page ``typed_columns``) returns
bit-identical values (types included), identical record ids, and validity
bitmaps that match the NULLs exactly.

The case grid is seeded and env-selectable like the fault sweep: set
``STORAGE_SEED`` to shift every case's value stream (CI runs a 3-seed
matrix).  The grid crosses column-type shapes with NULL densities
0 / 0.1 / 1.0 and table sizes from empty through multi-page, plus
dictionary-overflow and huge-int regimes — well over 100 combos per
seed.
"""

from __future__ import annotations

import itertools
import os
import random

import numpy as np
import pytest

import repro
from repro.storage import (
    PAGE_CAPACITY_BYTES,
    PAGE_DICT_CAP,
    Column,
    DataType,
    HeapTable,
    TableSchema,
    TypedColumn,
)

STORAGE_SEED = int(os.environ.get("STORAGE_SEED", "0"))

# value regimes a column can draw from; "clean" regimes must never fall
# back to the object layout
INT_SMALL = "int-small"        # clean int64
INT_HUGE = "int-huge"          # beyond 2^63: object fallback territory
FLOAT_CLEAN = "float-clean"    # clean float64
FLOAT_NAN = "float-nan"        # NaN payloads: object fallback territory
TEXT_SMALL = "text-small"      # few distinct values: dictionary-coded
TEXT_WIDE = "text-wide"        # > PAGE_DICT_CAP distinct per page: object
BOOL = "bool"

_CLEAN = {INT_SMALL: "i8", FLOAT_CLEAN: "f8", BOOL: "bool"}
_REGIME_DTYPE = {
    INT_SMALL: DataType.INT, INT_HUGE: DataType.INT,
    FLOAT_CLEAN: DataType.FLOAT, FLOAT_NAN: DataType.FLOAT,
    TEXT_SMALL: DataType.TEXT, TEXT_WIDE: DataType.TEXT,
    BOOL: DataType.BOOL,
}

SHAPES = [
    (INT_SMALL,),
    (FLOAT_CLEAN,),
    (TEXT_SMALL,),
    (BOOL,),
    (INT_SMALL, FLOAT_CLEAN, TEXT_SMALL),
    (TEXT_SMALL, BOOL, INT_SMALL, FLOAT_CLEAN),
    (INT_HUGE, INT_SMALL),
    (FLOAT_NAN, FLOAT_CLEAN),
    (TEXT_WIDE, TEXT_SMALL),
]
DENSITIES = [0.0, 0.1, 1.0]
SIZES = [0, 1, 7, 350, 900]

# 9 shapes x 3 NULL densities x 5 sizes = 135 combos per seed
CASES = list(itertools.product(range(len(SHAPES)), DENSITIES, SIZES))


def _draw(rng: random.Random, regime: str, null_density: float):
    if null_density >= 1.0 or rng.random() < null_density:
        return None
    if regime == INT_SMALL:
        return rng.randint(-10_000, 10_000)
    if regime == INT_HUGE:
        # mostly in-range, occasionally past int64 (object fallback)
        return rng.choice([rng.randint(-50, 50), 2 ** 63 + rng.randint(0, 9)])
    if regime == FLOAT_CLEAN:
        return rng.uniform(-1e6, 1e6)
    if regime == FLOAT_NAN:
        return float("nan") if rng.random() < 0.2 else rng.uniform(-1, 1)
    if regime == TEXT_SMALL:
        return f"tag-{rng.randint(0, 12)}"
    if regime == TEXT_WIDE:
        return f"wide-{rng.randint(0, 10_000)}"
    if regime == BOOL:
        return rng.random() < 0.5
    raise AssertionError(regime)


def _build(shape, null_density: float, rows: int, seed: int):
    schema = TableSchema("t", [
        Column(f"c{i}", _REGIME_DTYPE[r]) for i, r in enumerate(shape)])
    table = HeapTable(schema)
    rng = random.Random(seed)
    data = [tuple(_draw(rng, r, null_density) for r in shape)
            for _ in range(rows)]
    for row in data:
        table.insert(row)
    return table, data


def _typed_rows(rows):
    """(type, value) pairs — equality on these is bit-identity for our
    scalar types (True != 1, '5' != 5, NaN compared by type+repr)."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _reassemble(table, batch_size):
    out = []
    for columns, n in table.scan_column_batches(batch_size):
        for col in columns:
            assert isinstance(col, TypedColumn)
            assert len(col) == n
        out.extend(zip(*(c.tolist() for c in columns)) if columns
                   else [()] * n)
    return out


@pytest.mark.parametrize("case", range(len(CASES)))
def test_roundtrip_property(case):
    shape_idx, density, rows = CASES[case]
    shape = SHAPES[shape_idx]
    seed = STORAGE_SEED * 100_000 + case
    table, data = _build(shape, density, rows, seed)

    # row scan returns the exact inserted values, types included
    scanned = [row for _, row in table.scan()]
    assert _typed_rows(scanned) == _typed_rows(data)

    # record ids are stable across scans and across typed-cache builds
    rids = [rid for rid, _ in table.scan()]
    for batch_size in (1, 64, 1024):
        assert _typed_rows(_reassemble(table, batch_size)) == \
            _typed_rows(data)
    assert [rid for rid, _ in table.scan()] == rids

    # per-page typed views: dtypes, validity, and objects() round-trip
    for page in table._pages:
        live = page.live_rows()
        typed = page.typed_columns(table.schema.dtypes())
        if not live:
            assert typed == []
            continue
        for idx, (regime, col) in enumerate(zip(shape, typed)):
            values = [row[idx] for row in live]
            # validity bitmap matches the NULLs exactly
            nulls = col.null_mask()
            assert nulls.dtype == np.bool_
            assert nulls.tolist() == [v is None for v in values]
            # object view is value- and type-identical
            assert _typed_rows([(v,) for v in col.objects()]) == \
                _typed_rows([(v,) for v in values])
            clean_kind = _CLEAN.get(regime)
            if clean_kind is not None:
                # clean numerics must stay typed — never silently fall
                # back to the object layout
                assert col.kind == clean_kind, (
                    f"case {case}: {regime} page column stored as "
                    f"{col.kind!r}")
                assert col.data.dtype in (np.int64, np.float64, np.bool_)
            if regime == TEXT_SMALL:
                non_null = [v for v in values if v is not None]
                if non_null:
                    assert col.kind == "dict"
                    assert len(col.dictionary) <= PAGE_DICT_CAP
                    # first-seen dictionary order, codes resolve exactly
                    assert col.dictionary == \
                        list(dict.fromkeys(non_null))
                    assert col.data.dtype == np.int32


@pytest.mark.parametrize("density", DENSITIES)
def test_dictionary_overflow_falls_back_per_page(density):
    """> PAGE_DICT_CAP distinct strings on a page: the page keeps the
    object layout, and values still round-trip bit-identically."""
    rng = random.Random(STORAGE_SEED + 1)
    schema = TableSchema("t", [Column("s", DataType.TEXT)])
    table = HeapTable(schema)
    data = []
    for i in range(PAGE_DICT_CAP * 3):
        v = None if rng.random() < density else f"unique-{i}"
        data.append((v,))
        table.insert((v,))
    assert _typed_rows([r for _, r in table.scan()]) == _typed_rows(data)
    assert _typed_rows(_reassemble(table, 256)) == _typed_rows(data)
    overflow_pages = 0
    for page in table._pages:
        live = page.live_rows()
        distinct = {r[0] for r in live if r[0] is not None}
        (col,) = page.typed_columns(schema.dtypes())
        if len(distinct) > PAGE_DICT_CAP:
            assert col.kind == "obj"
            overflow_pages += 1
        elif distinct:
            assert col.kind == "dict"
    if density < 1.0:
        assert overflow_pages > 0, "case never exercised the overflow"


def test_single_row_pages():
    """Strings near page capacity force one row per page; every surface
    still round-trips and each page carries a one-row typed view."""
    schema = TableSchema("t", [Column("i", DataType.INT),
                               Column("s", DataType.TEXT)])
    table = HeapTable(schema)
    big = "x" * (PAGE_CAPACITY_BYTES // 2 + 1)
    data = [(i, big + str(i)) for i in range(6)]
    for row in data:
        table.insert(row)
    assert table.page_count == len(data)
    for page in table._pages:
        cols = page.typed_columns(schema.dtypes())
        assert [len(c) for c in cols] == [1, 1]
        assert cols[0].kind == "i8" and cols[1].kind == "dict"
    assert _typed_rows(_reassemble(table, 4)) == _typed_rows(data)


def test_empty_table_surfaces():
    schema = TableSchema("t", [Column("i", DataType.INT),
                               Column("f", DataType.FLOAT)])
    table = HeapTable(schema)
    assert list(table.scan()) == []
    assert list(table.scan_column_batches(16)) == []
    assert list(table.scan_column_batches()) == []


def test_mutations_keep_differential_identity():
    """Delete/update churn: the typed views track the row store exactly
    (version-keyed caches rebuild, never serve stale data)."""
    rng = random.Random(STORAGE_SEED * 7 + 3)
    schema = TableSchema("t", [Column("i", DataType.INT),
                               Column("g", DataType.TEXT),
                               Column("v", DataType.FLOAT)])
    table = HeapTable(schema)
    rids = []
    expected = {}
    for i in range(400):
        row = (i, f"g{i % 5}", i / 7.0)
        rid = table.insert(row)
        rids.append(rid)
        expected[rid] = row
    for _ in range(120):
        rid = rng.choice(list(expected))
        if rng.random() < 0.5:
            table.delete(rid)
            del expected[rid]
        else:
            row = (rng.randint(10_000, 20_000), None, rng.uniform(0, 1))
            table.update(rid, row)
            expected[rid] = row
        want = [expected[r] for r in rids if r in expected]
        assert _typed_rows(_reassemble(table, 128)) == _typed_rows(want)
        assert _typed_rows([r for _, r in table.scan()]) == \
            _typed_rows(want)


class TestViewCacheInvalidation:
    """The typed-view cache contract: page typed views and the table's
    merged scan columns are keyed by mutation versions — a scan after
    any insert/update/delete/drop sees fresh data, never a stale view,
    and the buffer pool's view counters expose the rebuild traffic."""

    @staticmethod
    def _fixture():
        from repro.storage import BufferPool
        pool = BufferPool(capacity_pages=64)
        schema = TableSchema("t", [Column("i", DataType.INT),
                                   Column("g", DataType.TEXT),
                                   Column("v", DataType.FLOAT)])
        table = HeapTable(schema, buffer_pool=pool)
        for i in range(50):
            table.insert((i, f"g{i % 3}", i / 2.0))
        return pool, table

    @staticmethod
    def _snapshot(table):
        return [tuple(map(repr, row))
                for columns, _ in table.scan_column_batches(16)
                for row in zip(*(c.tolist() for c in columns))]

    def test_insert_invalidates(self):
        pool, table = self._fixture()
        before = self._snapshot(table)        # caches now warm
        assert self._snapshot(table) == before
        assert pool.view_hit_ratio() > 0
        table.insert((99, "fresh", 9.5))
        after = self._snapshot(table)
        assert len(after) == len(before) + 1
        assert after[-1] == tuple(map(repr, (99, "fresh", 9.5)))

    def test_update_and_delete_invalidate(self):
        pool, table = self._fixture()
        rids = [rid for rid, _ in table.scan()]
        self._snapshot(table)
        rebuilds = pool.table_view_rebuilds("t")
        table.update(rids[0], (1000, None, -1.0))
        table.delete(rids[1])
        rows = self._snapshot(table)
        assert tuple(map(repr, (1000, None, -1.0))) in rows
        assert len(rows) == 49
        assert not any(r[0] == repr(1) for r in rows)
        # only the mutated page's view rebuilt; the rest were hits
        assert pool.table_view_rebuilds("t") > rebuilds

    def test_unchanged_rescans_are_view_hits(self):
        pool, table = self._fixture()
        self._snapshot(table)
        hits_before = pool.snapshot()["view_hit_ratio"]
        for _ in range(3):
            self._snapshot(table)
        assert pool.snapshot()["view_hit_ratio"] >= hits_before
        assert pool.table_view_rebuilds("t") == table.page_count

    def test_numeric_view_never_stale_through_executor(self):
        """End to end through SQL: a numeric filter answered from the
        typed float64 view reflects every mutation, including DROP +
        recreate under the same table name."""
        db = repro.connect()
        db.execute("CREATE TABLE t (i INT, v FLOAT)")
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i}, {i / 4.0})")
        assert db.execute("SELECT count(*) FROM t WHERE v > 2.0").rows \
            == [(11,)]
        db.execute("INSERT INTO t VALUES (100, 50.0)")
        assert db.execute("SELECT count(*) FROM t WHERE v > 2.0").rows \
            == [(12,)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (i INT, v FLOAT)")
        db.execute("INSERT INTO t VALUES (1, 3.0)")
        assert db.execute("SELECT i, v FROM t WHERE v > 2.0").rows \
            == [(1, 3.0)]


# -- aggregates over every storage regime ------------------------------------
#
# The batch sinks fold count / sum / avg of int64 and float64 columns in
# arrays and everything else through per-group accumulators; a sum / avg
# that meets a batch it cannot fold exactly (an "obj" page, an int64 total
# that could overflow) moves to the accumulators for good.  Every engine
# must still answer exactly what the plain-Python plan oracle answers
# (``tests/plan_oracle.py``: count, a left-fold sum, avg, min / max by
# Python comparison, groups in first-seen order): values, Python types
# and the sign of zero.  (``sqlite3`` cannot be this oracle: it stores
# NaN as NULL, holds no int past 2^63, and sums floats its own way.)

AGG_ENGINES = [
    ("batch", {}),
    ("parallel", {"workers": 2, "morsel_rows": 64}),
    ("distributed", {"nodes": 2, "workers": 2, "morsel_rows": 64}),
]

GROUPED = ("SELECT g, count(x), sum(x), avg(x), min(x), max(x) FROM t "
           "GROUP BY g")


def _aggregate_db(columns, rows, **options):
    db = repro.connect(**options)
    table = db.catalog.create_table(TableSchema("t", columns))
    for row in rows:
        table.insert(row)
    return db


def _held_to_the_oracle(db, sql):
    """``sql``'s rows from the plan oracle, once every engine's rows have
    matched them by type and repr."""
    from plan_oracle import reference
    from repro.common.simtime import SimClock
    from repro.exec.executor import Executor
    from repro.sql import parse
    node = db.planner.plan_select(parse(sql))
    expected = reference(db, node)
    for engine, options in AGG_ENGINES:
        rows = Executor(db.catalog, SimClock(), engine=engine,
                        **options).run(node).rows
        assert _typed_rows(rows) == _typed_rows(expected), (sql, engine)
    return expected


def _aggregate_sql(shape):
    items = ["count(*)", "count(DISTINCT *)"]
    for i, regime in enumerate(shape):
        items += [f"count(c{i})", f"count(DISTINCT c{i})", f"min(c{i})",
                  f"max(c{i})"]
        if _REGIME_DTYPE[regime] is not DataType.TEXT:
            items += [f"sum(c{i})", f"avg(c{i})"]
    aggregates = ", ".join(items)
    return [f"SELECT c0, {aggregates} FROM t GROUP BY c0",
            f"SELECT {aggregates} FROM t"]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_aggregates_match_the_oracle(case):
    shape_idx, density, rows = CASES[case]
    shape = SHAPES[shape_idx]
    table, data = _build(shape, density, rows, STORAGE_SEED * 100_000 + case)
    db = _aggregate_db(table.schema.columns, data)
    for sql in _aggregate_sql(shape):
        _held_to_the_oracle(db, sql)


def _int_float(dtype):
    return [Column("g", DataType.INT), Column("x", dtype)]


def test_signed_zero_and_all_null_groups():
    db = _aggregate_db(_int_float(DataType.FLOAT), [
        (1, -0.0), (1, -0.0), (2, -0.0), (2, 0.0), (3, 0.0), (3, -0.0),
        (4, None), (4, -0.0), (5, None), (5, None)])
    # min / max keep the first of two equal zeros; a NULL adds nothing,
    # not even +0.0
    assert _typed_rows(_held_to_the_oracle(db, GROUPED)) == _typed_rows([
        (1, 2, -0.0, -0.0, -0.0, -0.0),
        (2, 2, 0.0, 0.0, -0.0, -0.0),
        (3, 2, 0.0, 0.0, 0.0, 0.0),
        (4, 1, -0.0, -0.0, -0.0, -0.0),
        (5, 0, None, None, None, None)])
    for where, row in (("g = 1", (2, -0.0, -0.0)), ("g = 4", (1, -0.0, -0.0)),
                       ("g = 5", (0, None, None)), ("g > 9", (0, None, None))):
        sql = f"SELECT count(x), sum(x), avg(x) FROM t WHERE {where}"
        assert _typed_rows(_held_to_the_oracle(db, sql)) == \
            _typed_rows([row])


def test_int_sums_past_int64_stay_exact():
    big = 2 ** 62
    db = _aggregate_db(_int_float(DataType.INT), [
        (1, big), (1, big), (1, big), (2, 5), (2, -7), (3, -2 ** 63), (3, 1)])
    assert _typed_rows(_held_to_the_oracle(db, GROUPED)) == _typed_rows([
        (1, 3, 13835058055282163712, 13835058055282163712 / 3, big, big),
        (2, 2, -2, -1.0, -7, 5),
        (3, 2, 1 - 2 ** 63, (1 - 2 ** 63) / 2, -2 ** 63, 1)])
    # the first scan block folds in int64; a later one would overflow it
    rows = [(i % 4, i if i < 1200 else big) for i in range(1500)]
    db = _aggregate_db(_int_float(DataType.INT), rows)
    sums = {g: sum(x for k, x in rows if k == g) for g in range(4)}
    assert max(sums.values()) > 2 ** 63
    assert [row[:3] for row in _held_to_the_oracle(db, GROUPED)] == [
        (g, 375, sums[g]) for g in range(4)]


def test_bool_sums_keep_python_types():
    db = _aggregate_db(_int_float(DataType.BOOL), [
        (1, True), (2, True), (2, True), (3, False), (4, False), (4, True),
        (5, None)])
    # a sum of BOOLs is an INT, one value's as two values'
    assert _typed_rows(_held_to_the_oracle(db, GROUPED)) == _typed_rows([
        (1, 1, 1, 1.0, True, True),
        (2, 2, 2, 1.0, True, True),
        (3, 1, 0, 0.0, False, False),
        (4, 2, 1, 0.5, False, True),
        (5, 0, None, None, None, None)])


def test_a_sum_leaves_the_arrays_mid_statement():
    """Shards scan one after another, each from its own typed view: clean
    float64 pages first, then a shard whose one NaN puts it in "obj"
    pages — the sum / avg slots of every group switch to accumulators at
    that block, carrying their array totals over, and the answer is still
    the oracle's."""
    from repro.common.simtime import SimClock
    from repro.exec.executor import Executor
    from repro.sql import parse
    columns = [Column("p", DataType.INT)] + _int_float(DataType.FLOAT)
    db = _aggregate_db(columns, [], shards=3)
    table = db.catalog.table("t")          # partitioned on p
    nan_at = next(p for p in range(2000, 2500) if table.shard_of_key(p) == 2)
    for p in range(2500):
        # sevenths round, so a sum taken out of order would show
        table.insert((p, p % 9, float("nan") if p == nan_at else p / 7))
    expected = _held_to_the_oracle(db, GROUPED)
    agg = Executor(db.catalog, SimClock()).build(
        db.planner.plan_select(parse(GROUPED)))
    state, paths = agg.new_state(), []
    for columns, n in table.scan_column_batches(1024):
        agg.fold_partial(state, agg.partial_block(
            agg._child.make_block(columns, n), None, n, SimClock()))
        paths.append([fold.accs is None for fold in state.folds])
    # count, sum, avg fold in arrays; min / max never do
    assert paths[0] == [True, True, True, False, False]
    assert paths[-1] == [True, False, False, False, False]
    assert _typed_rows(list(agg.finish_state(state).iter_rows())) == \
        _typed_rows(expected)


def test_typed_column_identical_is_bit_level():
    a = TypedColumn.from_values([1, None, 3], DataType.INT)
    b = TypedColumn.from_values([1, None, 3], DataType.INT)
    c = TypedColumn.from_values([1, None, 4], DataType.INT)
    assert a.identical(b) and not a.identical(c)
    # dictionary order is part of the layout
    d1 = TypedColumn.from_values(["x", "y"], DataType.TEXT)
    d2 = TypedColumn.from_values(["y", "x"], DataType.TEXT)
    assert not d1.identical(d2)
    # NaN payloads compare identical to themselves on the object path
    n1 = TypedColumn.from_values([float("nan"), 1.0], DataType.FLOAT)
    n2 = TypedColumn.from_values([float("nan"), 1.0], DataType.FLOAT)
    assert n1.kind == "obj" and n1.identical(n2)
