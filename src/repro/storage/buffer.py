"""Buffer pool with LRU replacement and hit-ratio accounting.

The learned query optimizer consumes "buffer information depicting buffer
usage" (paper §4.2, Fig. 5) as part of its system-condition representation,
so the pool exposes per-table hit ratios and residency fractions.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common import categories as cat
from repro.common.errors import check_at_least
from repro.common.simtime import CostModel, SimClock


class BufferPool:
    """Tracks which (table, page_no) pages are memory-resident.

    Pages in this engine always have their Python objects in memory; the pool
    models which of them would be hot in a bounded buffer, charging
    virtual-time misses against the :class:`SimClock` so scans over cold
    tables cost more than scans over cached ones — the effect Fig. 5's
    "buffer info" feature captures.
    """

    def __init__(self, capacity_pages: int = 1024, clock: SimClock | None = None):
        self.capacity_pages = check_at_least("capacity_pages", capacity_pages)
        self.clock = clock if clock is not None else SimClock()
        self._lru: OrderedDict[tuple[str, int], None] = OrderedDict()
        self._hits = 0
        self._misses = 0
        # typed-view cache accounting: how often a columnar scan found a
        # page's TypedColumn view already built (version-valid) vs. had
        # to rebuild it after a mutation bumped the page version
        self._view_hits = 0
        self._view_rebuilds = 0
        self._table_view_rebuilds: dict[str, int] = {}

    def access(self, table: str, page_no: int,
               clock: SimClock | None = None) -> bool:
        """Record an access; returns True on hit.  Charges the clock.

        ``clock`` redirects the charge to a caller-supplied clock (the
        distributed scheduler's per-shard page clocks) without changing
        the hit/miss bookkeeping; the default remains the pool's own.
        """
        charge_clock = clock if clock is not None else self.clock
        key = (table, page_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            self._hits += 1
            charge_clock.advance(CostModel.PAGE_HIT, cat.BUFFER_HIT)
            return True
        self._misses += 1
        charge_clock.advance(CostModel.PAGE_READ, cat.BUFFER_MISS)
        self._lru[key] = None
        if len(self._lru) > self.capacity_pages:
            self._lru.popitem(last=False)
        return False

    def note_view(self, table: str, hit: bool) -> None:
        """Record whether a page's typed column view was served from its
        version-valid cache (``hit``) or rebuilt after invalidation.

        Pure accounting — the virtual-time cost of the underlying page
        access is already charged by :meth:`access`; this feeds the
        view-cache health fields of :meth:`snapshot` so the optimizer
        (and the cache-invalidation tests) can observe rebuild churn.
        """
        if hit:
            self._view_hits += 1
        else:
            self._view_rebuilds += 1
            self._table_view_rebuilds[table] = (
                self._table_view_rebuilds.get(table, 0) + 1)

    def view_hit_ratio(self) -> float:
        total = self._view_hits + self._view_rebuilds
        return self._view_hits / total if total else 1.0

    def table_view_rebuilds(self, table: str) -> int:
        return self._table_view_rebuilds.get(table, 0)

    def evict_table(self, table: str) -> int:
        """Drop every cached page of ``table`` (e.g. after DROP TABLE)."""
        victims = [k for k in self._lru if k[0] == table]
        for key in victims:
            del self._lru[key]
        return len(victims)

    @property
    def resident_pages(self) -> int:
        return len(self._lru)

    def hit_ratio(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 1.0

    def snapshot(self) -> dict[str, float]:
        """Summary used as the optimizer's buffer-info feature block."""
        return {
            "hit_ratio": self.hit_ratio(),
            "resident_pages": float(self.resident_pages),
            "capacity_pages": float(self.capacity_pages),
            "fill_fraction": self.resident_pages / self.capacity_pages,
            "view_hit_ratio": self.view_hit_ratio(),
            "view_rebuilds": float(self._view_rebuilds),
        }
