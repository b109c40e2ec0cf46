"""Slotted heap pages.

A page holds up to :data:`PAGE_CAPACITY_BYTES` of tuple payload.  Tuples are
stored in slots; a deleted slot leaves a tombstone so slot numbers stay
stable, matching how a real slotted page behaves and letting indexes point
at stable record ids.

A record id is one ``int``: :class:`~repro.storage.heap.HeapTable` packs
``page_no << SLOT_BITS | slot``, and a sharded table packs the shard above
:data:`SHARD_SHIFT`.  Both fields are bounded where they are created — a
page takes no slot past ``2 ** SLOT_BITS``, and no page is numbered into
the shard bits — so packed ids sort exactly as ``(shard, page, slot)``.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.storage.types import DataType, TypedColumn

PAGE_CAPACITY_BYTES = 8192
SLOT_BITS = 16
SHARD_SHIFT = 48
_TOMBSTONE = object()


class HeapPage:
    """One slotted page of tuples."""

    def __init__(self, page_no: int):
        if not 0 <= page_no < 1 << (SHARD_SHIFT - SLOT_BITS):
            raise ValueError(f"page number {page_no} does not fit a record "
                             f"id below the shard bits")
        self.page_no = page_no
        self._slots: list[Any] = []
        self._used_bytes = 0
        self.live_count = 0
        # bumped on every mutation; invalidates the typed page view
        self.version = 0
        self._typed_cache: tuple[int, list[TypedColumn]] | None = None

    def has_room(self, row_bytes: int) -> bool:
        return (len(self._slots) < 1 << SLOT_BITS
                and self._used_bytes + row_bytes <= PAGE_CAPACITY_BYTES)

    def insert(self, row: tuple, row_bytes: int) -> int:
        """Append a tuple and return its slot number; caller must have
        checked :meth:`has_room`."""
        self._slots.append(row)
        self._used_bytes += row_bytes
        self.live_count += 1
        self.version += 1
        return len(self._slots) - 1

    def read(self, slot_no: int) -> tuple | None:
        """The tuple at ``slot_no``, or None if deleted / out of range."""
        if 0 <= slot_no < len(self._slots):
            row = self._slots[slot_no]
            if row is not _TOMBSTONE:
                return row
        return None

    def update(self, slot_no: int, row: tuple, size_delta: int) -> None:
        """Replace the tuple at ``slot_no``; ``size_delta`` is the new row's
        size less the old one's."""
        if not (0 <= slot_no < len(self._slots)) or self._slots[slot_no] is _TOMBSTONE:
            raise KeyError(f"no live tuple in slot {slot_no} of page {self.page_no}")
        self._slots[slot_no] = row
        self._used_bytes += size_delta
        self.version += 1

    def delete(self, slot_no: int) -> None:
        if not (0 <= slot_no < len(self._slots)) or self._slots[slot_no] is _TOMBSTONE:
            raise KeyError(f"no live tuple in slot {slot_no} of page {self.page_no}")
        self._slots[slot_no] = _TOMBSTONE
        self.live_count -= 1
        self.version += 1

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield (slot, row) for every live tuple in slot order."""
        for slot_no, row in enumerate(self._slots):
            if row is not _TOMBSTONE:
                yield slot_no, row

    def live_rows(self) -> list[tuple]:
        """All live tuples in slot order, materialized in one pass.

        The typed page view is built from this instead of :meth:`scan` so
        a whole page costs one list operation rather than a per-row
        generator round-trip; the common no-tombstone case is a straight
        copy."""
        if self.live_count == len(self._slots):
            return list(self._slots)
        return [row for row in self._slots if row is not _TOMBSTONE]

    def typed_cache_valid(self) -> bool:
        """True when the typed column cache matches the current version."""
        cache = self._typed_cache
        return cache is not None and cache[0] == self.version

    def typed_columns(self, dtypes: Sequence[DataType]) -> list[TypedColumn]:
        """The live tuples as typed at-rest columns, cached per version.

        This is the v2 columnar cache: int64/float64/bool arrays with
        validity bitmaps and dictionary-encoded strings (see
        :class:`~repro.storage.types.TypedColumn`).  It is invalidated by
        the page ``version`` counter, so any insert/update/delete rebuilds
        the typed view on next scan and a cached view can never serve
        stale data."""
        cache = self._typed_cache
        if cache is not None and cache[0] == self.version:
            return cache[1]
        rows = self.live_rows()
        if not rows:
            columns: list[TypedColumn] = []
        else:
            columns = [
                TypedColumn.from_values(values, dtype)
                for values, dtype in zip(zip(*rows), dtypes)
            ]
        self._typed_cache = (self.version, columns)
        return columns
