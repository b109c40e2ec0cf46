"""Record ids are plain ints on every table kind.

A heap packs ``page_no << SLOT_BITS | slot``; a sharded table packs the
shard above ``SHARD_SHIFT``.  The property test drives heap, replicated,
and hash- and range-sharded tables through seeded inserts, updates and
deletes (``STORAGE_SEED`` re-draws the data and the operation stream) and
checks, after every phase, that ids are untracked ints, that a scan
yields them in ascending order — the ``(shard, page, slot)`` order a walk
of the pages gives — and that they survive typed-cache rebuilds.
"""

from __future__ import annotations

import gc
import random

import pytest

import repro
from repro.common.errors import ConstraintViolation
from repro.storage import (Column, DataType, HeapPage, HeapTable,
                           ReplicatedTable, TableSchema)
from repro.storage.page import SHARD_SHIFT, SLOT_BITS
from repro.storage.sharded import ShardedTable
from test_dml import check_indexes
from test_storage_typed import STORAGE_SEED

KINDS = ["heap", "replicated", "hash-sharded", "range-sharded",
         "replicated-sharded"]
KEYS = 100          # partition keys k are drawn from [0, KEYS)
PAD = 160           # TEXT width: a few dozen rows fill a page


def _schema() -> TableSchema:
    return TableSchema("t", [Column("id", DataType.INT, unique=True),
                             Column("k", DataType.INT),
                             Column("pad", DataType.TEXT)])


def _table(kind: str):
    schema = _schema()
    if kind == "heap":
        return HeapTable(schema)
    if kind == "replicated":
        return ReplicatedTable(schema)
    return ShardedTable(
        schema, 3, partition="k",
        partition_kind="range" if kind == "range-sharded" else "hash",
        boundaries=[KEYS // 3, 2 * KEYS // 3]
        if kind == "range-sharded" else None,
        replicated=kind == "replicated-sharded")


def _addresses(table) -> list[tuple[int, int, int]]:
    """``(shard, page, slot)`` of every live row, read off the pages
    themselves: the order record ids sorted in when they were tuples."""
    inners = (table.shard_tables if isinstance(table, ShardedTable)
              else [table])
    out = []
    for shard, inner in enumerate(inners):
        heap = inner.primary if isinstance(inner, ReplicatedTable) else inner
        for page in heap._pages:
            out.extend((shard, page.page_no, slot) for slot, _ in page.scan())
    return out


def _unpack(rid: int) -> tuple[int, int, int]:
    inner = rid & ((1 << SHARD_SHIFT) - 1)
    return (rid >> SHARD_SHIFT, inner >> SLOT_BITS,
            inner & ((1 << SLOT_BITS) - 1))


def _check(table, model: dict[int, tuple]) -> None:
    scanned = list(table.scan())
    rids = [rid for rid, _ in scanned]
    assert all(type(rid) is int and not gc.is_tracked(rid) for rid in rids)
    assert rids == sorted(rids)
    assert [_unpack(rid) for rid in rids] == _addresses(table)
    assert dict(scanned) == model
    # a typed-cache rebuild moves no id
    assert sum(n for _, n in table.scan_column_batches(16)) == len(model)
    assert list(table.scan()) == scanned
    for rid, row in model.items():
        assert table.read(rid) == row


def _row(rng: random.Random, ident: int) -> tuple:
    return (ident, rng.randrange(KEYS), "x" * rng.randrange(PAD))


@pytest.mark.parametrize("kind", KINDS)
def test_rids_are_sorted_untracked_ints(kind):
    rng = random.Random(STORAGE_SEED * 101 + KINDS.index(kind))
    table = _table(kind)
    model: dict[int, tuple] = {}
    for ident in range(400):
        row = _row(rng, ident)
        model[table.insert(row)] = row
    _check(table, model)
    assert table.page_count > 4
    next_id = 400
    for _ in range(4):
        for _ in range(120):
            op = rng.random()
            if op < 0.3:
                row = _row(rng, next_id if rng.random() < 0.9
                           else rng.randrange(next_id))
                next_id += 1
                try:
                    rid = table.insert(row)
                except ConstraintViolation:
                    continue
                model[rid] = row
            elif model:
                rid = rng.choice(sorted(model))
                if op < 0.7:
                    row = _row(rng, model[rid][0] if rng.random() < 0.8
                               else rng.randrange(next_id))
                    try:
                        new_rid = table.update(rid, row)
                    except ConstraintViolation:
                        continue
                    assert type(new_rid) is int
                    if kind in ("heap", "replicated"):
                        assert new_rid == rid
                    del model[rid]
                    model[new_rid] = row
                else:
                    table.delete(rid)
                    del model[rid]
        _check(table, model)


def test_a_row_moved_to_rid_zero_keeps_its_index_posting():
    """Shard 0 of a range-sharded table starts empty, so the first row
    an UPDATE moves there packs to rid 0 — a falsy id the update loop
    must still re-post under its new key."""
    db = repro.connect()
    table = db.catalog.create_table(
        TableSchema("t", [Column("id", DataType.INT),
                          Column("v", DataType.INT)]),
        shards=3, partition="id", partition_kind="range",
        boundaries=[100, 200])
    for i in range(100, 300):
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 7})")
    db.execute("CREATE INDEX t_id ON t (id)")
    assert len(table.shard_tables[0]) == 0
    assert db.execute("UPDATE t SET id = 5 WHERE id = 150").extra[
        "rowcount"] == 1
    assert [rid for rid, _ in table.scan()][0] == 0
    assert table.read(0) == (5, 150 % 7)
    check_indexes(db)
    assert db.execute("SELECT v FROM t WHERE id = 5").rows == [(150 % 7,)]
    assert db.execute("SELECT count(*) FROM t WHERE id = 150").rows == [(0,)]


def test_rid_bounds_are_enforced_where_ids_are_made():
    page = HeapPage(0)
    for i in range(1 << SLOT_BITS):
        assert page.has_room(0)
        page.insert((i,), 0)
    assert not page.has_room(0)
    HeapPage((1 << (SHARD_SHIFT - SLOT_BITS)) - 1)
    with pytest.raises(ValueError):
        HeapPage(1 << (SHARD_SHIFT - SLOT_BITS))
