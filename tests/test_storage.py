"""Tests for the storage substrate: types, schema, pages, heap, buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import BindError, ConstraintViolation, TypeMismatchError
from repro.common.simtime import SimClock
from repro.storage import (
    PAGE_CAPACITY_BYTES,
    BufferPool,
    Column,
    DataType,
    HeapPage,
    HeapTable,
    RecordId,
    TableSchema,
    coerce_value,
    value_size_bytes,
)


class TestDataType:
    def test_from_name_canonical(self):
        assert DataType.from_name("INT") is DataType.INT
        assert DataType.from_name("text") is DataType.TEXT

    def test_from_name_aliases(self):
        assert DataType.from_name("INTEGER") is DataType.INT
        assert DataType.from_name("varchar") is DataType.TEXT
        assert DataType.from_name("DOUBLE") is DataType.FLOAT
        assert DataType.from_name("BOOLEAN") is DataType.BOOL

    def test_from_name_unknown(self):
        with pytest.raises(TypeMismatchError):
            DataType.from_name("BLOB")


class TestCoercion:
    def test_null_passes_all_types(self):
        for dtype in DataType:
            assert coerce_value(None, dtype) is None

    def test_int_widening_to_float(self):
        assert coerce_value(3, DataType.FLOAT) == 3.0
        assert isinstance(coerce_value(3, DataType.FLOAT), float)

    def test_integral_float_narrows_to_int(self):
        assert coerce_value(4.0, DataType.INT) == 4

    def test_fractional_float_rejected_for_int(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(4.5, DataType.INT)

    def test_bool_is_not_int(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, DataType.INT)

    def test_string_rejected_for_numeric(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("5", DataType.INT)

    def test_text_accepts_only_str(self):
        assert coerce_value("hi", DataType.TEXT) == "hi"
        with pytest.raises(TypeMismatchError):
            coerce_value(5, DataType.TEXT)

    def test_value_sizes(self):
        assert value_size_bytes(None, DataType.INT) == 1
        assert value_size_bytes(5, DataType.INT) == 8
        assert value_size_bytes("abcd", DataType.TEXT) == 8


class TestTableSchema:
    def test_column_lookup(self, simple_schema):
        assert simple_schema.index_of("name") == 1
        assert simple_schema.index_of("NAME") == 1  # case-insensitive
        assert simple_schema.column("score").dtype is DataType.FLOAT

    def test_unknown_column(self, simple_schema):
        with pytest.raises(BindError):
            simple_schema.index_of("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(BindError):
            TableSchema("t", [Column("a", DataType.INT),
                              Column("A", DataType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(BindError):
            TableSchema("t", [])

    def test_coerce_row_arity(self, simple_schema):
        with pytest.raises(TypeMismatchError):
            simple_schema.coerce_row((1, "x"))

    def test_coerce_row_not_null(self):
        schema = TableSchema("t", [Column("a", DataType.INT,
                                          nullable=False)])
        with pytest.raises(TypeMismatchError):
            schema.coerce_row((None,))

    def test_non_unique_columns_for_train_on_star(self, simple_schema):
        # 'id' is UNIQUE and must be excluded (paper Listing 1 semantics)
        assert "id" not in simple_schema.non_unique_column_names()
        assert "name" in simple_schema.non_unique_column_names()

    def test_project(self, simple_schema):
        projected = simple_schema.project(["score", "id"])
        assert projected.column_names() == ["score", "id"]


class TestHeapPage:
    def test_insert_read(self):
        page = HeapPage(0)
        rid = page.insert((1, "a"), 20)
        assert page.read(rid.slot_no) == (1, "a")
        assert page.live_count == 1

    def test_delete_leaves_tombstone(self):
        page = HeapPage(0)
        rid0 = page.insert((1,), 10)
        rid1 = page.insert((2,), 10)
        page.delete(rid0.slot_no)
        assert page.read(rid0.slot_no) is None
        # rid1 still addressable at its old slot
        assert page.read(rid1.slot_no) == (2,)
        assert page.live_count == 1

    def test_double_delete_raises(self):
        page = HeapPage(0)
        rid = page.insert((1,), 10)
        page.delete(rid.slot_no)
        with pytest.raises(KeyError):
            page.delete(rid.slot_no)

    def test_capacity_accounting(self):
        page = HeapPage(0)
        assert page.has_room(PAGE_CAPACITY_BYTES)
        page.insert((0,), PAGE_CAPACITY_BYTES)
        assert not page.has_room(1)

    def test_scan_skips_tombstones(self):
        page = HeapPage(0)
        rids = [page.insert((i,), 10) for i in range(5)]
        page.delete(rids[2].slot_no)
        live = [row for _, row in page.scan()]
        assert live == [(0,), (1,), (3,), (4,)]


class TestHeapTable:
    def _table(self, schema):
        return HeapTable(schema)

    def test_insert_and_len(self, simple_schema):
        table = self._table(simple_schema)
        for i in range(10):
            table.insert((i, f"n{i}", float(i), i % 2 == 0))
        assert len(table) == 10

    def test_read_by_rid(self, simple_schema):
        table = self._table(simple_schema)
        rid = table.insert((1, "x", 0.5, True))
        assert table.read(rid) == (1, "x", 0.5, True)

    def test_read_missing_rid(self, simple_schema):
        table = self._table(simple_schema)
        assert table.read(RecordId(99, 0)) is None

    def test_unique_constraint_enforced(self, simple_schema):
        table = self._table(simple_schema)
        table.insert((1, "a", 0.0, True))
        with pytest.raises(ConstraintViolation):
            table.insert((1, "b", 1.0, False))

    def test_unique_constraint_allows_after_delete(self, simple_schema):
        table = self._table(simple_schema)
        rid = table.insert((1, "a", 0.0, True))
        table.delete(rid)
        table.insert((1, "b", 1.0, False))  # ok again

    def test_update_moves_unique_key(self, simple_schema):
        table = self._table(simple_schema)
        rid = table.insert((1, "a", 0.0, True))
        table.update(rid, (2, "a", 0.0, True))
        with pytest.raises(ConstraintViolation):
            table.insert((2, "b", 1.0, False))
        table.insert((1, "b", 1.0, False))  # the old key is free again

    def test_update_conflicting_unique_rejected(self, simple_schema):
        table = self._table(simple_schema)
        table.insert((1, "a", 0.0, True))
        rid2 = table.insert((2, "b", 0.0, True))
        with pytest.raises(ConstraintViolation):
            table.update(rid2, (1, "b", 0.0, True))

    def test_update_same_row_same_key_ok(self, simple_schema):
        table = self._table(simple_schema)
        rid = table.insert((1, "a", 0.0, True))
        table.update(rid, (1, "a", 9.0, False))  # no self-conflict
        assert table.read(rid)[2] == 9.0

    def test_scan_order_and_rids_stable(self, simple_schema):
        table = self._table(simple_schema)
        rids = [table.insert((i, f"n{i}", 0.0, True)) for i in range(100)]
        table.delete(rids[50])
        scanned = {rid: row for rid, row in table.scan()}
        assert rids[50] not in scanned
        assert scanned[rids[51]][0] == 51

    def test_many_rows_span_pages(self, simple_schema):
        table = self._table(simple_schema)
        for i in range(2000):
            table.insert((i, "name-" * 10, float(i), False))
        assert table.page_count > 1
        assert len(table) == 2000

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    unique=True, min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_insert_scan_roundtrip_property(self, keys):
        schema = TableSchema("t", [Column("k", DataType.INT, unique=True)])
        table = HeapTable(schema)
        for k in keys:
            table.insert((k,))
        scanned = sorted(row[0] for _, row in table.scan())
        assert scanned == sorted(keys)


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=4)
        assert pool.access("t", 0) is False  # cold miss
        assert pool.access("t", 0) is True   # now hot

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2)
        pool.access("t", 0)
        pool.access("t", 1)
        pool.access("t", 2)  # evicts page 0
        assert pool.access("t", 0) is False

    def test_access_refreshes_recency(self):
        pool = BufferPool(capacity_pages=2)
        pool.access("t", 0)
        pool.access("t", 1)
        pool.access("t", 0)  # page 0 now MRU
        pool.access("t", 2)  # evicts page 1
        assert pool.access("t", 0) is True

    def test_hit_ratio(self):
        pool = BufferPool(capacity_pages=10)
        pool.access("t", 0)
        pool.access("t", 0)
        pool.access("t", 0)
        assert pool.hit_ratio() == pytest.approx(2 / 3)

    def test_evict_table(self):
        pool = BufferPool(capacity_pages=10)
        pool.access("a", 0)
        pool.access("b", 0)
        assert pool.evict_table("a") == 1
        assert pool.access("a", 0) is False

    def test_charges_clock(self):
        clock = SimClock()
        pool = BufferPool(capacity_pages=4, clock=clock)
        pool.access("t", 0)
        miss_time = clock.now
        pool.access("t", 0)
        hit_time = clock.now - miss_time
        assert miss_time > hit_time > 0

    def test_snapshot_fields(self):
        pool = BufferPool(capacity_pages=8)
        pool.access("t", 0)
        snap = pool.snapshot()
        assert set(snap) == {"hit_ratio", "resident_pages",
                             "capacity_pages", "fill_fraction",
                             "view_hit_ratio", "view_rebuilds"}
        assert snap["resident_pages"] == 1.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(capacity_pages=0)


class TestBatchScans:
    """Contract tests for scan_column_batches."""

    def _table(self, rows=100):
        from repro.storage.heap import HeapTable
        from repro.storage.schema import TableSchema
        schema = TableSchema("t", [Column("id", DataType.INT),
                                   Column("name", DataType.TEXT)])
        table = HeapTable(schema)
        rids = [table.insert((i, f"n{i}")) for i in range(rows)]
        return table, rids

    def test_scan_batches_matches_scan_order(self):
        # 7 does not divide the table: the last batch is short
        table, _ = self._table(100)
        flattened = [row for columns, _ in table.scan_column_batches(7)
                     for row in zip(*columns)]
        assert flattened == [row for _, row in table.scan()]

    def test_scan_batches_empty_table(self):
        table, _ = self._table(0)
        assert list(table.scan_column_batches(16)) == []

    def test_scan_batches_sizes(self):
        table, _ = self._table(100)
        sizes = [n for _, n in table.scan_column_batches(32)]
        assert sizes == [32, 32, 32, 4]

    def test_scan_batches_skips_tombstones(self):
        table, rids = self._table(50)
        for rid in rids[::2]:
            table.delete(rid)
        flattened = [row for columns, _ in table.scan_column_batches(8)
                     for row in zip(*columns)]
        assert flattened == [(i, f"n{i}") for i in range(1, 50, 2)]

    def test_scan_batches_rejects_bad_size(self):
        table, _ = self._table(1)
        with pytest.raises(ValueError):
            list(table.scan_column_batches(0))

    def test_column_batches_match_scan(self):
        table, _ = self._table(100)
        rows = []
        for columns, n in table.scan_column_batches(16):
            assert n == len(columns[0])
            rows.extend(zip(*columns))
        assert rows == [row for _, row in table.scan()]

    def test_column_cache_invalidated_by_mutation(self):
        table, rids = self._table(30)
        before = [row for cols, _ in table.scan_column_batches(8)
                  for row in zip(*cols)]
        table.update(rids[3], (999, "edited"))
        table.delete(rids[4])
        after = [row for cols, _ in table.scan_column_batches(8)
                 for row in zip(*cols)]
        assert before != after
        assert (999, "edited") in after
        assert (4, "n4") not in after

    def test_scan_batches_touches_buffer_pool_once_per_page(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.heap import HeapTable
        from repro.storage.schema import TableSchema
        schema = TableSchema("t", [Column("id", DataType.INT)])
        pool = BufferPool(capacity_pages=64)
        table = HeapTable(schema, buffer_pool=pool)
        for i in range(500):
            table.insert((i,))
        accesses_then = pool._hits + pool._misses
        list(table.scan_column_batches(64))
        assert (pool._hits + pool._misses
                - accesses_then) == table.page_count


def test_scan_column_batches_start_page_and_tail_start_page():
    """Tail scans: start_page skips earlier pages (no buffer touches, no
    reads), and tail_start_page locates the window from per-page live
    counts alone."""
    import repro
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT, v FLOAT)")
    heap = db.catalog.table("t")
    for i in range(2000):
        heap.insert((i, float(i)))
    assert heap.page_count > 2
    serial = [row for _, row in heap.scan()]

    # suffix reconstruction from any start page
    start = heap.page_count - 2
    skipped = sum(heap._pages[i].live_count for i in range(start))
    suffix = [row for columns, n in heap.scan_column_batches(64, start)
              for row in zip(*columns)]
    assert suffix == serial[skipped:]

    # only the scanned pages touch the buffer pool
    pool = db.catalog.buffer_pool
    before = pool._hits + pool._misses
    list(heap.scan_column_batches(64, start))
    assert (pool._hits + pool._misses) - before == heap.page_count - start

    # tail_start_page: pure metadata window location
    assert heap.tail_start_page(0) == heap.page_count - 1
    assert heap.tail_start_page(1) == heap.page_count - 1
    assert heap.tail_start_page(len(heap)) == 0
    assert heap.tail_start_page(10 ** 9) == 0
    last_live = heap._pages[-1].live_count
    assert heap.tail_start_page(last_live + 1) == heap.page_count - 2
    covered = sum(p.live_count
                  for p in heap._pages[heap.tail_start_page(200):])
    assert covered >= 200
