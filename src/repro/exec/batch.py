"""Column batches for vectorized execution.

A :class:`RowBlock` is the unit of data flow in the batch engine: a fixed
:class:`~repro.exec.expr.RowLayout` plus one
:class:`~repro.storage.types.TypedColumn` per slot.  Scans hand over the
typed at-rest columns (int64/float64/bool arrays with validity bitmaps,
dictionary-encoded strings); a computed value rides in the kind its
type names (``expr.compile_values_batch``), and aggregate results,
blocks built from row tuples (:meth:`RowBlock.from_rows`: index
fetches, DISTINCT survivors) and values the vector path declines ride
in the ``"obj"`` kind, an object array of the *original* Python values.
Every kind round-trips to row tuples bit-identically, and every kind
keeps its own derived views (``float64`` plus a null mask), built
lazily and carried through gathers and slices.  A selection is an
array of ascending row indices (:func:`selection`), found once per
block and gathered per column; gathers and slices run in C instead of
looping per row in the interpreter.

The batch size is a throughput/latency trade-off: big enough to amortize
per-batch dispatch (numpy call overhead, one clock charge per batch), small
enough to stay cache-resident.  1024 follows the usual vectorized-engine
sweet spot (MonetDB/X100 uses ~1k values per vector).

Invariants every RowBlock maintains, which operators and the parallel
scheduler rely on:

* **Exact round-trip** — ``iter_rows()`` returns the original
  Python objects, identity included; no conversion ever rewrites a stored
  value.  Numeric views are derived *copies* and NULLs live only in the
  null mask, never as sentinel values in the data.
* **Precision** — a column whose magnitude reaches 2^53 gets no float64
  view (``numeric()`` returns None), so integer comparisons never lose
  precision; TEXT columns never convert, so digit strings stay strings.
* **Immutability of shared arrays** — columns handed in by scan producers
  are shared snapshots of the columnar page cache; consumers only gather,
  slice, or read them.  ``select``/``take``/``slice`` build new blocks
  (whose columns carry the derived views along) rather than mutating in
  place.  This is what makes a block safe to hand to a morsel task, and
  to hand to it again on retry.
* **Order** — ``select`` and ``slice`` preserve row order; a block never
  reorders rows on its own.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.storage.types import DataType, TypedColumn

DEFAULT_BATCH_SIZE = 1024


def selection(mask: np.ndarray) -> np.ndarray | None:
    """A predicate mask as a deferred selection: the ascending indices
    of its True rows, or None when every row survives.  Gathering them
    per column beats boolean indexing, numpy's slow path at mid density,
    and returns the same elements in the same order."""
    rows = np.flatnonzero(mask)
    return None if len(rows) == len(mask) else rows


class RowBlock:
    """A batch of rows stored column-wise, one :class:`TypedColumn` per
    slot."""

    __slots__ = ("layout", "columns", "_length")

    def __init__(self, layout, columns: Sequence[TypedColumn], length: int):
        self.layout = layout
        self.columns = list(columns)
        self._length = length

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, layout, rows: Sequence[tuple]) -> "RowBlock":
        """Transpose a list of row tuples into a block of ``"obj"``
        columns."""
        columns = zip(*rows) if rows else [()] * len(layout)
        return cls(layout, [TypedColumn.from_objects(column)
                            for column in columns], len(rows))

    @classmethod
    def concat(cls, blocks: Sequence["RowBlock"]) -> "RowBlock":
        """The rows of ``blocks`` (at least one), in order, as one block,
        each column a :meth:`TypedColumn.concat`."""
        first = blocks[0]
        if len(blocks) == 1:
            return first
        columns = [TypedColumn.concat([block.columns[i] for block in blocks])
                   for i in range(len(first.columns))]
        return cls(first.layout, columns, sum(len(b) for b in blocks))

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # -- row access ---------------------------------------------------------

    def iter_rows(self) -> Iterator[tuple]:
        """Yield the rows as tuples of the original Python values: one
        zip over the columns' :meth:`TypedColumn.tolist`, not their object
        views."""
        if not self.columns:
            # zero-width layout still carries a row count (e.g. SELECT 1)
            return iter(() for _ in range(self._length))
        return zip(*(column.tolist() for column in self.columns))

    def column(self, idx: int) -> np.ndarray:
        """The object-array view of the column at slot ``idx`` — exact
        Python values, ``None`` at NULLs."""
        return self.columns[idx].objects()

    def dict_column(self, idx: int) -> TypedColumn | None:
        """The column at ``idx`` if it is dictionary-encoded, else None —
        predicate fast paths compare int32 codes instead of strings when
        this is available."""
        col = self.columns[idx]
        return col if col.kind == "dict" else None

    # -- vectorization support ---------------------------------------------

    def null_mask(self, idx: int) -> np.ndarray:
        """Boolean mask, True where the column value is NULL."""
        return self.columns[idx].null_mask()

    def numeric(self, idx: int) -> np.ndarray | None:
        """A float64 view of the number column at ``idx`` (NULLs read as
        0.0), or None for a TEXT column and for one holding a magnitude
        float64 cannot represent exactly (:meth:`TypedColumn.float64`).
        The slot type comes from ``layout``, so no value is inspected to
        find out whether the column is numeric."""
        pair = (None if self.layout.types[idx] is DataType.TEXT
                else self.columns[idx].float64())
        return None if pair is None else pair[0]

    # -- reshaping ----------------------------------------------------------

    def select(self, mask: np.ndarray) -> "RowBlock":
        """Rows where ``mask`` is True, preserving order: the block itself
        when every row survives, else a :meth:`take` of the survivors."""
        rows = selection(mask)
        return self if rows is None else self.take(rows)

    def take(self, indices: np.ndarray) -> "RowBlock":
        """The rows at ``indices`` (an integer array), in that order; each
        column carries its derived views along."""
        return RowBlock(self.layout, [c[indices] for c in self.columns],
                        len(indices))

    def slice(self, start: int, stop: int) -> "RowBlock":
        start = max(0, start)
        stop = min(self._length, stop)
        if start == 0 and stop == self._length:
            return self
        return RowBlock(self.layout, [c[start:stop] for c in self.columns],
                        max(0, stop - start))
