"""Heap tables: unordered tuple storage over slotted pages."""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.common import categories as cat
from repro.common.errors import ConstraintViolation
from repro.common.simtime import CostModel, SimClock
from repro.storage.buffer import BufferPool
from repro.storage.page import HeapPage, RecordId
from repro.storage.schema import TableSchema
from repro.storage.types import TypedColumn


class HeapTable:
    """An append-mostly heap of tuples for one table.

    Uniqueness constraints declared on the schema are enforced here with
    in-memory unique maps (a real engine would use unique indexes; the
    observable behaviour is the same).
    """

    def __init__(self, schema: TableSchema,
                 buffer_pool: BufferPool | None = None,
                 clock: SimClock | None = None):
        self.schema = schema
        self.name = schema.table_name
        self._dtypes = schema.dtypes()
        self._pages: list[HeapPage] = []
        self._live_rows = 0
        # bumped on every mutation; keys the merged-scan column cache the
        # same way page versions key the per-page typed caches
        self._version = 0
        # start_page -> (version at build, (columns, page_starts, total))
        self._merged_cache: dict[int, tuple[int, tuple]] = {}
        self._buffer_pool = buffer_pool
        self._clock = clock
        self._unique_maps: dict[int, dict[Any, RecordId]] = {
            i: {} for i, col in enumerate(schema.columns) if col.unique
        }

    # -- basic properties -------------------------------------------------

    def __len__(self) -> int:
        return self._live_rows

    @property
    def page_count(self) -> int:
        return len(self._pages)

    # -- mutation ----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> RecordId:
        """Coerce, constraint-check, and store one row; returns its RID."""
        row = self.schema.coerce_row(values)
        self._check_unique(row, exclude_rid=None)
        row_bytes = self.schema.row_size_bytes(row)
        page = self._page_with_room(row_bytes)
        rid = page.insert(row, row_bytes)
        for col_idx, uniq in self._unique_maps.items():
            if row[col_idx] is not None:
                uniq[row[col_idx]] = rid
        self._live_rows += 1
        self._version += 1
        self._charge(CostModel.TUPLE_CPU, cat.HEAP_INSERT)
        return rid

    def update(self, rid: RecordId, values: Sequence[Any]) -> None:
        row = self.schema.coerce_row(values)
        old = self.read(rid)
        if old is None:
            raise KeyError(f"update of missing rid {rid}")
        self._check_unique(row, exclude_rid=rid)
        for col_idx, uniq in self._unique_maps.items():
            if old[col_idx] is not None:
                uniq.pop(old[col_idx], None)
            if row[col_idx] is not None:
                uniq[row[col_idx]] = rid
        self._pages[rid.page_no].update(rid.slot_no, row)
        self._version += 1
        self._charge(CostModel.TUPLE_CPU, cat.HEAP_UPDATE)

    def delete(self, rid: RecordId) -> None:
        old = self.read(rid)
        if old is None:
            raise KeyError(f"delete of missing rid {rid}")
        for col_idx, uniq in self._unique_maps.items():
            if old[col_idx] is not None:
                uniq.pop(old[col_idx], None)
        self._pages[rid.page_no].delete(rid.slot_no)
        self._live_rows -= 1
        self._version += 1
        self._charge(CostModel.TUPLE_CPU, cat.HEAP_DELETE)

    # -- access ------------------------------------------------------------

    def read(self, rid: RecordId) -> tuple | None:
        if not (0 <= rid.page_no < len(self._pages)):
            return None
        self._touch_page(rid.page_no)
        return self._pages[rid.page_no].read(rid.slot_no)

    def scan(self) -> Iterator[tuple[RecordId, tuple]]:
        """Full scan in page order, touching the buffer pool per page."""
        for page in self._pages:
            self._touch_page(page.page_no)
            yield from page.scan()

    def scan_column_batches(self, batch_size: int = 1024,
                            start_page: int = 0,
                            clock: SimClock | None = None
                            ) -> Iterator[tuple[list, int]]:
        """Full scan yielding ``(columns, row_count)`` column batches.

        The columnar twin of :meth:`scan`, built from each page's cached
        :meth:`HeapPage.typed_columns` view: same row order, same
        one-buffer-pool-touch-per-page accounting, zero per-row Python
        work on a warm cache.  Each column is a
        :class:`~repro.storage.types.TypedColumn` — int64/float64/bool
        data with validity bitmaps, dictionary-encoded strings — so
        vectorized consumers read typed arrays without per-block dtype
        coercion.  Batches hold exactly ``batch_size`` rows (the final
        one may be short, empty ones are never yielded) — consumers that
        stop early, like LIMIT, therefore pull no more than one batch
        beyond what they need.  Overfull pages are sliced as array views,
        not value copies.

        ``start_page`` skips the pages before it entirely — no buffer-pool
        touches, no charges — the tail-scan primitive behind recency
        windows (:meth:`tail_start_page`).

        Internally the page views are concatenated once into whole-tail
        typed columns and cached keyed by the table mutation version, so
        repeated scans of an unchanged table slice array views out of the
        merged columns instead of re-concatenating pages.  Buffer-pool
        accounting is unchanged: each page is charged exactly when the
        first batch needing its rows is produced, so early-exiting
        consumers still only pay for the pages they covered.

        ``clock`` redirects the per-page buffer charges to a
        caller-supplied clock (the distributed scheduler's per-shard page
        clocks) without changing hit/miss accounting.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        start = max(0, start_page)
        pages = self._pages[start:]
        (columns, starts, total), view_hits = self._merged_tail(start)
        touched = 0
        off = 0
        while off < total:
            end = min(off + batch_size, total)
            while touched < len(pages) and starts[touched] < end:
                self._note_scan_page(pages[touched], view_hits, touched,
                                     clock)
                touched += 1
            yield [c[off:end] for c in columns], end - off
            off = end
        # pages past the last live row (trailing empties) are still part
        # of a fully drained scan, exactly as scan() touches them
        while touched < len(pages):
            self._note_scan_page(pages[touched], view_hits, touched, clock)
            touched += 1

    def scan_morsels(self, morsel_rows: int = 4096,
                     start_page: int = 0,
                     clock: SimClock | None = None
                     ) -> list[tuple[list, int]]:
        """Materialize the full scan as a random-access list of column
        morsels — the parallel engine's scan splitter.

        Each morsel is a ``(columns, row_count)`` column batch exactly as
        :meth:`scan_column_batches` would yield it with
        ``batch_size=morsel_rows``: same row order (concatenating the
        morsels reproduces :meth:`scan`'s page/slot order), every page
        charged to the buffer pool exactly once, morsels of exactly
        ``morsel_rows`` rows except a short final one.  Unlike the
        streaming batch scan, the whole list is built up front so a
        scheduler can hand morsels to workers in any dispatch order and
        reassemble results by morsel index.  The column arrays are shared
        read-only snapshots of the columnar page cache: workers must only
        mask/slice them, never write.  Mutating the table after splitting
        is undefined, as with :meth:`scan`.  ``start_page`` as in
        :meth:`scan_column_batches`.
        """
        return list(self.scan_column_batches(morsel_rows, start_page,
                                             clock=clock))

    def tail_start_page(self, min_rows: int) -> int:
        """Index of the first page such that the pages from it onward
        hold at least ``min_rows`` live rows (0 when the whole table is
        needed).  Pure metadata — per-page live counts — so locating a
        recency window costs nothing before the tail pages are scanned.
        """
        if min_rows < 0:
            raise ValueError(f"min_rows must be >= 0, got {min_rows}")
        remaining = min_rows
        for idx in range(len(self._pages) - 1, -1, -1):
            remaining -= self._pages[idx].live_count
            if remaining <= 0:
                return idx
        return 0

    @staticmethod
    def _merge_column_batches(parts: list[list], rows: int
                              ) -> tuple[list, int]:
        if len(parts) == 1:
            return parts[0], rows
        width = len(parts[0])
        return ([TypedColumn.concat([p[i] for p in parts])
                 for i in range(width)], rows)

    def _merged_tail(self, start: int):
        """Typed columns for ``pages[start:]`` concatenated once, plus the
        cumulative live-row offset of each page — cached until the next
        mutation (``self._version`` keys the cache, mirroring how page
        versions key the per-page typed views).

        Returns ``((columns, page_starts, total_rows), view_hits)`` where
        ``view_hits`` is the per-page typed-cache hit flags when the merge
        was (re)built, or None on a cache hit (every page view was warm).
        """
        cached = self._merged_cache.get(start)
        if cached is not None and cached[0] == self._version:
            return cached[1], None
        pages = self._pages[start:]
        view_hits = [page.typed_cache_valid() for page in pages]
        starts: list[int] = []
        parts: list[list] = []
        total = 0
        for page in pages:
            starts.append(total)
            columns = page.typed_columns(self._dtypes)
            if columns:
                parts.append(columns)
                total += len(columns[0])
        merged = (self._merge_column_batches(parts, total)[0]
                  if parts else [])
        if len(self._merged_cache) >= 8 and start not in self._merged_cache:
            self._merged_cache.clear()
        payload = (merged, starts, total)
        self._merged_cache[start] = (self._version, payload)
        return payload, view_hits

    def _note_scan_page(self, page: HeapPage,
                        view_hits: list[bool] | None, idx: int,
                        clock: SimClock | None = None) -> None:
        self._touch_page(page.page_no, clock)
        if self._buffer_pool is not None:
            self._buffer_pool.note_view(
                self.name, True if view_hits is None else view_hits[idx])

    # -- internals ----------------------------------------------------------

    def _check_unique(self, row: tuple, exclude_rid: RecordId | None) -> None:
        for col_idx, uniq in self._unique_maps.items():
            value = row[col_idx]
            if value is None:
                continue
            existing = uniq.get(value)
            if existing is not None and existing != exclude_rid:
                col = self.schema.columns[col_idx].name
                raise ConstraintViolation(
                    f"duplicate value {value!r} for UNIQUE column "
                    f"{col!r} of table {self.name!r}")

    def _page_with_room(self, row_bytes: int) -> HeapPage:
        if self._pages and self._pages[-1].has_room(row_bytes):
            return self._pages[-1]
        page = HeapPage(len(self._pages))
        self._pages.append(page)
        return page

    def _touch_page(self, page_no: int,
                    clock: SimClock | None = None) -> None:
        if self._buffer_pool is not None:
            self._buffer_pool.access(self.name, page_no, clock=clock)

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None:
            self._clock.advance(seconds, category)
