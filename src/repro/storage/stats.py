"""Table and column statistics: histograms, distinct counts, min/max.

These serve two masters: the classical cost-based optimizer (selectivity
estimation) and the learned query optimizer's "data statistics representing
each attribute's distribution" feature block (paper Fig. 5).  Statistics are
recomputed by ``ANALYZE``-style refresh and drift as data drifts, which is
exactly the signal the learned optimizer conditions on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.common.rng import stable_hash
from repro.storage.schema import TableSchema
from repro.storage.types import DataType, is_numeric

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
        lo = self.bin_edges[0] if low is None else low
        hi = self.bin_edges[-1] if high is None else high
        if hi < lo:
            return 0.0
        covered = 0.0
        for i in range(len(self.histogram)):
            left, right = self.bin_edges[i], self.bin_edges[i + 1]
            if right < lo or left > hi:
                continue
            width = right - left
            if width <= 0:
                covered += self.histogram[i]
                continue
            overlap = min(right, hi) - max(left, lo)
            covered += self.histogram[i] * max(0.0, overlap) / width
        return float(min(1.0, covered / total))

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
    """Build :class:`ColumnStats` from a pass over the column's values."""
    values = list(values)
    stats = ColumnStats(name=name.lower(), dtype=dtype, row_count=len(values))
    non_null = [v for v in values if v is not None]
    stats.null_count = len(values) - len(non_null)
    stats.distinct_count = len(set(non_null))

    counts: dict[Any, int] = {}
    for v in non_null:
        counts[v] = counts.get(v, 0) + 1
    stats.most_common = sorted(counts.items(), key=lambda kv: -kv[1])[:8]

    if non_null and is_numeric(dtype):
        arr = np.asarray(non_null, dtype=np.float64)
        stats.min_value = float(arr.min())
        stats.max_value = float(arr.max())
        # inf / NaN cells count above; a histogram has no bin for them
        finite = arr[np.isfinite(arr)]
        if finite.size:
            hist, edges = np.histogram(finite, bins=HISTOGRAM_BINS)
            stats.histogram = hist.astype(np.float64)
            stats.bin_edges = edges
    elif non_null:
        # order strings/bools by hash bucket for a coarse distribution
        # sketch (stable_hash: the builtin is salted per process)
        buckets = np.zeros(HISTOGRAM_BINS)
        for v, count in counts.items():
            buckets[stable_hash(v, HISTOGRAM_BINS)] += count
        stats.histogram = buckets
    return stats


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
            col.name, col.dtype, (row[idx] for row in rows))
    return stats
