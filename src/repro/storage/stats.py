"""Table and column statistics: histograms, distinct counts, min/max.

These serve two masters: the classical cost-based optimizer (selectivity
estimation) and the learned query optimizer's "data statistics representing
each attribute's distribution" feature block (paper Fig. 5).  Statistics are
recomputed by ``ANALYZE``-style refresh and drift as data drifts, which is
exactly the signal the learned optimizer conditions on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

from repro.common.rng import stable_hash
from repro.storage.schema import TableSchema
from repro.storage.types import MAX_EXACT_FLOAT, DataType, is_numeric

HISTOGRAM_BINS = 16


@dataclass
class ColumnStats:
    """Statistics for one column."""

    name: str
    dtype: DataType
    row_count: int = 0
    null_count: int = 0
    distinct_count: int = 0
    min_value: float | None = None
    max_value: float | None = None
    histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(HISTOGRAM_BINS))
    bin_edges: np.ndarray | None = None
    most_common: list[tuple[Any, int]] = field(default_factory=list)

    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of rows equal to ``value``."""
        if self.row_count == 0:
            return 0.0
        for common_value, count in self.most_common:
            if common_value == value:
                return count / self.row_count
        if self.distinct_count <= 0:
            return 1.0 / max(1, self.row_count)
        return 1.0 / self.distinct_count

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of rows in [low, high] using the histogram."""
        if self.row_count == 0 or self.bin_edges is None:
            return 0.33  # classic default guess for an un-analyzed column
        total = self.histogram.sum()
        if total == 0:
            return 0.0
        counts, edges = self._bin_floats()
        lo = edges[0] if low is None else low
        hi = edges[-1] if high is None else high
        if hi < lo:
            return 0.0
        covered = 0.0
        for i, count in enumerate(counts):
            left, right = edges[i], edges[i + 1]
            if right < lo or left > hi:
                continue
            width = right - left
            if width <= 0:
                covered += count
                continue
            overlap = min(right, hi) - max(left, lo)
            covered += count * max(0.0, overlap) / width
        return float(min(1.0, covered / total))

    def _bin_floats(self) -> tuple[list[float], list[float]]:
        """The histogram's counts and bin edges as plain floats, copied
        once per pair of arrays: the bin loop above reads them one at a
        time, and a float64 array costs several times a list to index.
        The same doubles, so the estimate is bit-for-bit the same."""
        cached = self.__dict__.get("_bins")
        if (cached is None or cached[0] is not self.histogram
                or cached[1] is not self.bin_edges):
            cached = self._bins = (self.histogram, self.bin_edges,
                                   self.histogram.tolist(),
                                   self.bin_edges.tolist())
        return cached[2], cached[3]

    def feature_vector(self) -> np.ndarray:
        """Fixed-width numeric encoding for the learned optimizer.

        Layout: [normalized histogram (16), null_frac, log distinct,
        log row count, normalized min, normalized max] -> 21 floats.
        The live row count is what lets the learned optimizer react to
        drift-driven table growth that stale statistics miss.
        """
        hist = self.histogram.astype(np.float64)
        total = hist.sum()
        hist = hist / total if total > 0 else hist
        lo = self.min_value if self.min_value is not None else 0.0
        hi = self.max_value if self.max_value is not None else 0.0
        span = (hi - lo) or 1.0
        return np.concatenate([
            hist,
            [self.null_fraction(),
             np.log1p(self.distinct_count),
             np.log1p(self.row_count) / 20.0,
             lo / span,
             hi / span],
        ])


@dataclass
class TableStats:
    """Statistics for one table: row count plus per-column stats."""

    table_name: str
    row_count: int = 0
    page_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    version: int = 0

    def column_stats(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def compute_column_stats(name: str, dtype: DataType,
                         values: Iterable[Any]) -> ColumnStats:
    """Build :class:`ColumnStats` from a pass over the column's values.

    Values are counted in C: a numeric column whose float64 view shows
    no two equal values (:func:`_all_distinct`) needs no count at all,
    any other column goes through :class:`collections.Counter`, which
    keeps each value's first-seen key and order.  ``most_common`` lists
    the eight most frequent values, ties in first-seen order."""
    if not isinstance(values, (list, tuple)):
        values = list(values)
    stats = ColumnStats(name=name.lower(), dtype=dtype, row_count=len(values))
    non_null = ([v for v in values if v is not None] if None in values
                else values)
    stats.null_count = len(values) - len(non_null)
    if not non_null:
        return stats
    numeric = is_numeric(dtype)
    arr = np.asarray(non_null, dtype=np.float64) if numeric else None
    if numeric and _all_distinct(arr):
        stats.distinct_count = len(non_null)
        stats.most_common = [(v, 1) for v in non_null[:8]]
    else:
        counts = Counter(non_null)
        stats.distinct_count = len(counts)
        stats.most_common = counts.most_common(8)

    if numeric:
        stats.min_value = float(arr.min())
        stats.max_value = float(arr.max())
        # inf / NaN cells count above; a histogram has no bin for them
        finite = arr[np.isfinite(arr)]
        if finite.size:
            hist, edges = _histogram(finite)
            stats.histogram = hist.astype(np.float64)
            stats.bin_edges = edges
    else:
        # order strings/bools by hash bucket for a coarse distribution
        # sketch (stable_hash: the builtin is salted per process)
        buckets = np.zeros(HISTOGRAM_BINS)
        for v, count in counts.items():
            buckets[stable_hash(v, HISTOGRAM_BINS)] += count
        stats.histogram = buckets
    return stats


def _histogram(finite: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``HISTOGRAM_BINS`` equal-width bins over ``finite`` values.  Where
    their range is too narrow for that many distinct edges at their
    magnitude — every value one large number such as ``1e16``, whose
    ``+- 0.5`` rounds away — numpy refuses; the bins then cut the
    values' own ``[min, max]``, so edges repeat and a zero-width bin
    holds the values equal to it, which ``selectivity_range`` counts
    whole whenever the range asked about covers it."""
    try:
        return np.histogram(finite, bins=HISTOGRAM_BINS)
    except ValueError:            # "Too many bins for data range"
        edges = np.linspace(finite.min(), finite.max(), HISTOGRAM_BINS + 1)
        return np.histogram(finite, bins=edges)


def _all_distinct(arr: np.ndarray) -> bool:
    """Whether the numbers behind a float64 view are pairwise unequal,
    read off the sorted view — only when it can tell: no NaN (a NaN
    equals nothing, so a dict counts it by identity) and nothing at or
    past 2^53 (where float64 merges integers that differ)."""
    if arr.size < 2:
        return True
    ordered = np.sort(arr)
    if not (-ordered[0] < MAX_EXACT_FLOAT and ordered[-1] < MAX_EXACT_FLOAT):
        return False        # NaN sorts last and compares False
    return not (ordered[1:] == ordered[:-1]).any()


def compute_table_stats(schema: TableSchema,
                        rows: Iterable[tuple],
                        page_count: int = 0,
                        version: int = 0) -> TableStats:
    """Full ANALYZE over an iterable of rows."""
    rows = list(rows)
    stats = TableStats(table_name=schema.table_name,
                       row_count=len(rows),
                       page_count=page_count,
                       version=version)
    for idx, col in enumerate(schema.columns):
        stats.columns[col.name] = compute_column_stats(
            col.name, col.dtype, list(map(itemgetter(idx), rows)))
    return stats
