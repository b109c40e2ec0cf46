"""Column batches for vectorized execution.

A :class:`RowBlock` is the unit of data flow in the batch engine: a fixed
:class:`~repro.exec.expr.RowLayout` plus one column per slot.  A column is
either a :class:`~repro.storage.types.TypedColumn` (the typed at-rest
representation scans produce: int64/float64/bool arrays with validity
bitmaps, dictionary-encoded strings) or a numpy ``object`` array holding
the *original* Python values (computed columns, row-engine adaptors).
Both round-trip to row tuples bit-identically; numeric views (``float64``
plus a null mask) come straight from the typed layout where one exists and
are derived lazily otherwise.  Selection (filtering) and slicing
fancy-index the arrays in C instead of looping per row in the interpreter.

The batch size is a throughput/latency trade-off: big enough to amortize
per-batch dispatch (numpy call overhead, one clock charge per batch), small
enough to stay cache-resident.  1024 follows the usual vectorized-engine
sweet spot (MonetDB/X100 uses ~1k values per vector).

Invariants every RowBlock maintains, which operators and the parallel
scheduler rely on:

* **Exact round-trip** — ``iter_rows()``/``to_rows()`` return the original
  Python objects, identity included; no conversion ever rewrites a stored
  value.  Numeric views are derived *copies* and NULLs live only in the
  null mask, never as sentinel values in the data.
* **Precision** — a column whose magnitude reaches 2^53 gets no float64
  view (``numeric()`` returns None), so integer comparisons never lose
  precision; TEXT columns never convert, so digit strings stay strings.
* **Immutability of shared arrays** — columns handed in by scan producers
  are shared snapshots of the columnar page cache; consumers only mask,
  slice, or read them.  ``select``/``slice`` build new blocks (and carry
  the derived-view caches along) rather than mutating in place.  This is
  what makes a block safe to hand to a morsel task, and to hand to it
  again on retry.
* **Order** — ``select`` and ``slice`` preserve row order; a block never
  reorders rows on its own.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.storage.types import MAX_EXACT_FLOAT, DataType, TypedColumn

DEFAULT_BATCH_SIZE = 1024


def object_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-D object array whose elements are exactly ``values``.

    ``np.array(values, dtype=object)`` is avoided: it inspects nested
    sequences and can build a 2-D array.  Allocate-then-assign never does.
    """
    arr = np.empty(len(values), dtype=object)
    if len(values):
        arr[:] = values
    return arr


def concat_columns(parts: Sequence["TypedColumn | np.ndarray"]
                   ) -> "TypedColumn | np.ndarray":
    """Block columns laid end to end: typed when every part is (see
    :meth:`TypedColumn.concat`), the object view otherwise."""
    if all(isinstance(part, TypedColumn) for part in parts):
        return TypedColumn.concat(parts)
    return np.concatenate([part.objects() if isinstance(part, TypedColumn)
                           else part for part in parts])


class RowBlock:
    """A batch of rows stored column-wise."""

    __slots__ = ("layout", "columns", "_length", "_numeric", "_null")

    def __init__(self, layout, columns: Sequence[np.ndarray], length: int):
        self.layout = layout
        self.columns = list(columns)
        self._length = length
        # per-column caches: slot index -> derived array (or None marker)
        self._numeric: dict[int, np.ndarray | None] = {}
        self._null: dict[int, np.ndarray] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, layout, rows: Sequence[tuple]) -> "RowBlock":
        """Transpose a list of row tuples into a block."""
        n = len(rows)
        width = len(layout)
        if n == 0:
            return cls(layout, [np.empty(0, dtype=object)
                                for _ in range(width)], 0)
        return cls(layout, [object_array(col) for col in zip(*rows)], n)

    @classmethod
    def concat(cls, blocks: Sequence["RowBlock"]) -> "RowBlock":
        """The rows of ``blocks`` (at least one), in order, as one block.
        Columns concatenate as :func:`concat_columns` does."""
        first = blocks[0]
        if len(blocks) == 1:
            return first
        columns = [concat_columns([block.columns[i] for block in blocks])
                   for i in range(len(first.columns))]
        return cls(first.layout, columns, sum(len(b) for b in blocks))

    @classmethod
    def from_columns(cls, layout,
                     columns: Sequence[Sequence[Any]]) -> "RowBlock":
        length = len(columns[0]) if columns else 0
        cols = [c if isinstance(c, TypedColumn)
                or (isinstance(c, np.ndarray) and c.dtype == object)
                else object_array(list(c)) for c in columns]
        return cls(layout, cols, length)

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # -- row access ---------------------------------------------------------

    def iter_rows(self) -> Iterator[tuple]:
        """Yield the rows as tuples of the original Python values."""
        if not self.columns:
            # zero-width layout still carries a row count (e.g. SELECT 1)
            return iter(() for _ in range(self._length))
        return zip(*(self.column(i) for i in range(len(self.columns))))

    def to_rows(self) -> list[tuple]:
        return list(self.iter_rows())

    def column(self, idx: int) -> np.ndarray:
        """The object-array view of the column at slot ``idx`` — exact
        Python values, ``None`` at NULLs (typed columns materialize their
        cached object view)."""
        col = self.columns[idx]
        if isinstance(col, TypedColumn):
            return col.objects()
        return col

    def dict_column(self, idx: int) -> TypedColumn | None:
        """The column at ``idx`` as a dictionary-encoded TypedColumn, or
        None — predicate fast paths compare int32 codes instead of
        strings when this is available."""
        col = self.columns[idx]
        if isinstance(col, TypedColumn) and col.kind == "dict":
            return col
        return None

    def values_list(self, idx: int, mask: np.ndarray | None = None) -> list:
        """Python values of the column (optionally masked) as a list,
        via the typed fast path where one exists."""
        col = self.columns[idx]
        if isinstance(col, TypedColumn):
            return col.values_list(mask)
        if mask is not None:
            col = col[mask]
        return col.tolist()

    # -- vectorization support ---------------------------------------------

    def null_mask(self, idx: int) -> np.ndarray:
        """Boolean mask, True where the column value is NULL."""
        mask = self._null.get(idx)
        if mask is None:
            col = self.columns[idx]
            if isinstance(col, TypedColumn):
                mask = col.null_mask()
                self._null[idx] = mask
                return mask
            # numeric() derives the mask for free on its fast path
            if idx not in self._numeric:
                self.numeric(idx)
                mask = self._null.get(idx)
            if mask is None:
                mask = np.fromiter((v is None for v in col), dtype=bool,
                                   count=self._length)
                self._null[idx] = mask
        return mask

    def numeric(self, idx: int) -> np.ndarray | None:
        """A float64 view of the number column at ``idx`` (NULLs read as
        0.0), or None for a TEXT column and for one holding a magnitude
        float64 cannot represent exactly.  The slot type comes from
        ``layout``, so no value is inspected to find out whether the
        column is numeric.  Cached per slot."""
        if idx not in self._numeric:
            text = self.layout.types[idx] is DataType.TEXT
            self._numeric[idx] = None if text else self._float64(idx)
        return self._numeric[idx]

    def _float64(self, idx: int) -> np.ndarray | None:
        col = self.columns[idx]
        if isinstance(col, TypedColumn):
            pair = col.float64()
            if pair is not None:
                values, self._null[idx] = pair
                return values
            if col.kind != "obj":
                return None                 # int64 past 2^53
            # NaN floats, out-of-range ints: derive from the raw values
            # exactly as an object column would
            col = col.objects()
        try:
            null = self._null.get(idx)
            if null is None:
                # one C call: astype maps None to NaN, so a NaN-free result
                # proves the column has no NULLs without a per-value scan
                values = col.astype(np.float64)
                if not np.isnan(values).any():
                    self._null[idx] = np.zeros(self._length, dtype=bool)
                    return None if _loses_precision(values) else values
                null = self._null[idx] = np.fromiter(
                    (v is None for v in col), dtype=bool, count=self._length)
            if null.any():
                col = col.copy()
                col[null] = 0.0
            values = col.astype(np.float64)
        except OverflowError:               # an int past float64's range
            return None
        return None if _loses_precision(values) else values

    # -- reshaping ----------------------------------------------------------

    def select(self, mask: np.ndarray) -> "RowBlock":
        """Rows where ``mask`` is True, preserving order.  Derived numeric
        views and null masks are filtered alongside the data so downstream
        operators don't recompute them."""
        count = int(np.count_nonzero(mask))
        if count == self._length:
            return self
        block = RowBlock(self.layout, [c[mask] for c in self.columns],
                         count)
        for idx, values in self._numeric.items():
            block._numeric[idx] = None if values is None else values[mask]
        for idx, null in self._null.items():
            block._null[idx] = null[mask]
        return block

    def take(self, indices: np.ndarray) -> "RowBlock":
        """The rows at ``indices`` (an integer array), in that order."""
        return RowBlock(self.layout, [c[indices] for c in self.columns],
                        len(indices))

    def slice(self, start: int, stop: int) -> "RowBlock":
        start = max(0, start)
        stop = min(self._length, stop)
        if start == 0 and stop == self._length:
            return self
        block = RowBlock(self.layout,
                         [c[start:stop] for c in self.columns],
                         max(0, stop - start))
        for idx, values in self._numeric.items():
            block._numeric[idx] = (None if values is None
                                   else values[start:stop])
        for idx, null in self._null.items():
            block._null[idx] = null[start:stop]
        return block



def _loses_precision(values: np.ndarray) -> bool:
    if not values.size:
        return False
    peak = np.abs(values).max()  # NaN propagates and compares False
    # >= because a lossy integer (2^53 + 1) can round DOWN onto 2^53;
    # nothing inexact can round below it
    return bool(peak >= MAX_EXACT_FLOAT)
