"""Tests for B+-tree and hash indexes, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.plan import logical as plan
from repro.sql.parser import parse
from repro.storage.index import BPlusTreeIndex, HashIndex
from repro.storage.page import RecordId


def rid(i: int) -> RecordId:
    return RecordId(i // 100, i % 100)


class TestBPlusTree:
    def test_insert_search(self):
        index = BPlusTreeIndex("i", "t", "c")
        index.insert(5, rid(1))
        assert index.search(5) == [rid(1)]
        assert index.search(6) == []

    def test_duplicate_keys_accumulate(self):
        index = BPlusTreeIndex("i", "t", "c")
        index.insert(5, rid(1))
        index.insert(5, rid(2))
        assert sorted(index.search(5)) == [rid(1), rid(2)]

    def test_null_keys_not_indexed(self):
        index = BPlusTreeIndex("i", "t", "c")
        index.insert(None, rid(1))
        assert len(index) == 0
        assert index.search(None) == []

    def test_split_growth(self):
        index = BPlusTreeIndex("i", "t", "c")
        for i in range(1000):
            index.insert(i, rid(i))
        # many leaves by now: the chain still reads in key order
        assert [key for key, _ in index.range_scan()] == list(range(1000))
        for probe in (0, 17, 500, 999):
            assert index.search(probe) == [rid(probe)]

    def test_reverse_insert_order(self):
        index = BPlusTreeIndex("i", "t", "c")
        for i in reversed(range(500)):
            index.insert(i, rid(i))
        keys = [k for k, _ in index.range_scan()]
        assert keys == sorted(keys) == list(range(500))

    def test_range_scan_bounds(self):
        index = BPlusTreeIndex("i", "t", "c")
        for i in range(100):
            index.insert(i, rid(i))
        keys = [k for k, _ in index.range_scan(low=10, high=20)]
        assert keys == list(range(10, 21))

    def test_range_scan_exclusive_bounds(self):
        index = BPlusTreeIndex("i", "t", "c")
        for i in range(10):
            index.insert(i, rid(i))
        keys = [k for k, _ in index.range_scan(low=2, high=6,
                                               include_low=False,
                                               include_high=False)]
        assert keys == [3, 4, 5]

    def test_range_scan_open_ended(self):
        index = BPlusTreeIndex("i", "t", "c")
        for i in range(50):
            index.insert(i, rid(i))
        assert len(list(index.range_scan(low=40))) == 10
        assert len(list(index.range_scan(high=9))) == 10

    def test_delete(self):
        index = BPlusTreeIndex("i", "t", "c")
        index.insert(5, rid(1))
        index.insert(5, rid(2))
        assert index.delete(5, rid(1)) is True
        assert index.search(5) == [rid(2)]
        assert index.delete(5, rid(99)) is False

    def test_delete_last_posting_removes_key(self):
        index = BPlusTreeIndex("i", "t", "c")
        index.insert(5, rid(1))
        index.delete(5, rid(1))
        assert index.search(5) == []
        assert len(index) == 0

    def test_string_keys(self):
        index = BPlusTreeIndex("i", "t", "c")
        for word in ["pear", "apple", "mango", "fig"]:
            index.insert(word, rid(hash(word) % 100))
        keys = [k for k, _ in index.range_scan()]
        assert keys == sorted(keys)

    @given(st.lists(st.integers(min_value=-10_000, max_value=10_000),
                    min_size=1, max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_matches_sorted_reference(self, keys):
        index = BPlusTreeIndex("i", "t", "c")
        for pos, key in enumerate(keys):
            index.insert(key, rid(pos))
        scanned = [k for k, _ in index.range_scan()]
        assert scanned == sorted(keys)
        probe = keys[len(keys) // 2]
        expected = [rid(p) for p, k in enumerate(keys) if k == probe]
        assert sorted(index.search(probe)) == sorted(expected)

    @given(st.lists(st.tuples(st.integers(0, 50), st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_insert_delete_mixed_property(self, operations):
        index = BPlusTreeIndex("i", "t", "c")
        reference: dict[int, list] = {}
        for pos, (key, is_delete) in enumerate(operations):
            if is_delete and reference.get(key):
                victim = reference[key].pop()
                assert index.delete(key, victim)
            else:
                r = rid(pos)
                index.insert(key, r)
                reference.setdefault(key, []).append(r)
        for key, rids in reference.items():
            assert sorted(index.search(key)) == sorted(rids)


class TestHashIndex:
    def test_insert_search_delete(self):
        index = HashIndex("i", "t", "c")
        index.insert("k", rid(1))
        assert index.search("k") == [rid(1)]
        assert index.delete("k", rid(1)) is True
        assert index.search("k") == []

    def test_null_not_indexed(self):
        index = HashIndex("i", "t", "c")
        index.insert(None, rid(1))
        assert len(index) == 0

    def test_missing_delete(self):
        index = HashIndex("i", "t", "c")
        assert index.delete("nope", rid(1)) is False

    def test_multiple_postings(self):
        index = HashIndex("i", "t", "c")
        for i in range(5):
            index.insert(7, rid(i))
        assert len(index.search(7)) == 5


# -- the planner's fold over the B+-tree ----------------------------------------


def _keyed(indexed: bool):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT, v INT)")
    table = db.catalog.table("t")
    for i in range(150):
        table.insert((None if i % 31 == 0 else (i * 7) % 60, i))
    if indexed:
        db.execute("CREATE INDEX t_id ON t (id)")
    return db


_INDEXED, _DROPPED = _keyed(True), _keyed(False)
_LITERALS = st.one_of(st.integers(-3, 63),
                      st.integers(-6, 126).map(lambda n: n / 2))
_BOUNDS = st.one_of(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "="]), _LITERALS,
              st.booleans()).map(
        lambda b: f"{b[1]!r} {b[0]} id" if b[2] else f"id {b[0]} {b[1]!r}"),
    st.tuples(_LITERALS, _LITERALS).map(
        lambda b: f"id BETWEEN {b[0]!r} AND {b[1]!r}"))


@given(st.lists(_BOUNDS, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_folded_bounds_match_the_table_without_the_index(bounds):
    """Any set of bounds on the indexed column, folded into one
    IndexScan, returns the rows a scan of the un-indexed table returns —
    and the fold leaves no range conjunct behind as a residual."""
    sql = "SELECT id, v FROM t WHERE " + " AND ".join(bounds)
    scan = _INDEXED.planner.access_path("t", parse(sql).where)
    assert isinstance(scan, plan.IndexScan)
    if scan.eq is None:
        assert scan.residual is None
    assert sorted(_INDEXED.execute(sql).rows) == sorted(
        _DROPPED.execute(sql).rows)
