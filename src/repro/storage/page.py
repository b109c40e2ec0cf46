"""Slotted heap pages.

A page holds up to :data:`PAGE_CAPACITY_BYTES` of tuple payload.  Tuples are
stored in slots; a deleted slot leaves a tombstone so record ids (page_no,
slot_no) stay stable, matching how a real slotted page behaves and letting
indexes point at stable RIDs.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.storage.types import DataType, TypedColumn

PAGE_CAPACITY_BYTES = 8192
_TOMBSTONE = object()


class RecordId:
    """Stable address of a tuple: (page number, slot number)."""

    __slots__ = ("page_no", "slot_no")

    def __init__(self, page_no: int, slot_no: int):
        self.page_no = page_no
        self.slot_no = slot_no

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RecordId)
                and self.page_no == other.page_no
                and self.slot_no == other.slot_no)

    def __hash__(self) -> int:
        return hash((self.page_no, self.slot_no))

    def __repr__(self) -> str:
        return f"RecordId({self.page_no}, {self.slot_no})"

    def __lt__(self, other: "RecordId") -> bool:
        return (self.page_no, self.slot_no) < (other.page_no, other.slot_no)


class HeapPage:
    """One slotted page of tuples."""

    def __init__(self, page_no: int):
        self.page_no = page_no
        self._slots: list[Any] = []
        self._used_bytes = 0
        self.live_count = 0
        # bumped on every mutation; invalidates the typed page view
        self.version = 0
        self._typed_cache: tuple[int, list[TypedColumn]] | None = None

    def has_room(self, row_bytes: int) -> bool:
        return self._used_bytes + row_bytes <= PAGE_CAPACITY_BYTES

    def insert(self, row: tuple, row_bytes: int) -> RecordId:
        """Append a tuple; caller must have checked :meth:`has_room`."""
        self._slots.append(row)
        self._used_bytes += row_bytes
        self.live_count += 1
        self.version += 1
        return RecordId(self.page_no, len(self._slots) - 1)

    def read(self, slot_no: int) -> tuple | None:
        """The tuple at ``slot_no``, or None if deleted / out of range."""
        if 0 <= slot_no < len(self._slots):
            row = self._slots[slot_no]
            if row is not _TOMBSTONE:
                return row
        return None

    def update(self, slot_no: int, row: tuple) -> None:
        if not (0 <= slot_no < len(self._slots)) or self._slots[slot_no] is _TOMBSTONE:
            raise KeyError(f"no live tuple in slot {slot_no} of page {self.page_no}")
        self._slots[slot_no] = row
        self.version += 1

    def delete(self, slot_no: int) -> None:
        if not (0 <= slot_no < len(self._slots)) or self._slots[slot_no] is _TOMBSTONE:
            raise KeyError(f"no live tuple in slot {slot_no} of page {self.page_no}")
        self._slots[slot_no] = _TOMBSTONE
        self.live_count -= 1
        self.version += 1

    def scan(self) -> Iterator[tuple[RecordId, tuple]]:
        """Yield (rid, row) for every live tuple in slot order."""
        for slot_no, row in enumerate(self._slots):
            if row is not _TOMBSTONE:
                yield RecordId(self.page_no, slot_no), row

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
