"""The streaming data loader.

Paper Fig. 2 shows a "Streaming Data Loader" feeding dispatchers, which run
"data pipelines ... for preprocessing, feature engineering" and push prepared
batches to AI runtimes "in a streaming and pipelining manner to minimize the
delay in the data preparation steps".

:class:`StreamingDataLoader` pulls from either a plain row iterator or a
:class:`ColumnTrainingSet` (column arrays produced by the batch execution
engine), hashes features, and yields ready-to-train (ids, targets) batches.
It maintains a bounded window of prepared batches (the paper's default
window is 80 batches of 4096 records).  The columnar path carries storage's
``TypedColumn`` objects unboxed, hashes a set once
(:meth:`ColumnTrainingSet.ids`) and slices the id matrix per batch, so no
per-row tuples — and no per-epoch hashing — stand between the storage engine
and the training matrix.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.ai.armnet import FeatureHasher
from repro.common import categories as cat
from repro.common.errors import check_at_least
from repro.common.simtime import CostModel, SimClock
from repro.exec.batch import RowBlock
from repro.exec.expr import RowLayout
from repro.exec.pipeline import table_blocks
from repro.storage.types import DataType, TypedColumn


class ColumnFeatures:
    """Materialized feature columns: the batch engine's hand-off format to
    the AI layer.

    ``columns`` is one ``TypedColumn`` per feature field — storage's
    typed kinds as scanned, the ``"obj"`` kind for inline values — in
    scan order.  The PREDICT path hands these straight to
    :meth:`~repro.ai.armnet.FeatureHasher.transform_columns`, so inputs
    never explode into per-row Python tuples between the storage engine
    and the id matrix.  ``rows()`` builds the tuple view lazily for the
    places that still need it (result-set assembly).
    """

    def __init__(self, columns: Sequence[TypedColumn]):
        self.columns = list(columns)
        self._length = len(self.columns[0]) if self.columns else 0
        for col in self.columns[1:]:
            if len(col) != self._length:
                raise ValueError("feature columns must have equal lengths")
        self._rows: list[tuple] | None = None

    @classmethod
    def from_rows(cls, rows: Sequence[tuple],
                  dtypes: Sequence[DataType]) -> "ColumnFeatures":
        """Inline rows as feature columns.  ``dtypes`` (the schema's, one
        per field) type a column whose cells are all NULL: its values
        cannot say whether it is numeric-kind, and the hasher must know."""
        columns = [TypedColumn.from_values(col, dtype)
                   if all(v is None for v in col)
                   else TypedColumn.from_objects(col)
                   for col, dtype in zip(zip(*rows) if rows
                                         else [()] * len(dtypes), dtypes)]
        out = cls(columns)
        out._rows = list(rows)
        return out

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def rows(self) -> list[tuple]:
        """Row-tuple view, built lazily for row-oriented consumers."""
        if self._rows is None:
            self._rows = (list(zip(*self.columns)) if self.columns
                          else [()] * self._length)
        return self._rows

    @classmethod
    def concat(cls, parts: Sequence["ColumnFeatures"]) -> "ColumnFeatures":
        """Concatenate several feature sets row-wise (micro-batch
        coalescing in the serving subsystem)."""
        if not parts:
            raise ValueError("concat needs at least one part")
        width = len(parts[0].columns)
        for part in parts[1:]:
            if len(part.columns) != width:
                raise ValueError("cannot concat feature sets of different "
                                 "widths")
        return cls([TypedColumn.concat([p.columns[i] for p in parts])
                    for i in range(width)])


class ColumnTrainingSet(ColumnFeatures):
    """Feature columns plus ``targets`` (a float64 array, one per row):
    what a training or fine-tune task streams."""

    def __init__(self, columns: Sequence[TypedColumn], targets: np.ndarray):
        super().__init__(columns)
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.columns and len(self.targets) != self._length:
            raise ValueError("feature columns and targets must have "
                             "equal lengths")
        self._length = len(self.targets)
        self._ids: tuple[int, np.ndarray] | None = None

    def ids(self, hasher: FeatureHasher) -> np.ndarray:
        """The set's (n, field_count) id matrix, hashed once: every batch
        of every epoch is a row slice of it."""
        if self._ids is None or self._ids[0] != hasher.buckets:
            self._ids = (hasher.buckets,
                         hasher.transform_columns(self.columns))
        return self._ids[1]

    def tail(self, rows: int) -> "ColumnTrainingSet":
        """The most recent ``rows`` rows (scan order = insertion order for
        the append-mostly heap) — the sliding recency window the serving
        subsystem's background refresh fine-tunes on.  Returns ``self``
        when the window already covers everything."""
        if rows < 1:
            raise ValueError(f"tail needs rows >= 1, got {rows}")
        n = len(self)
        if rows >= n:
            return self
        return ColumnTrainingSet([col[n - rows:] for col in self.columns],
                                 self.targets[n - rows:])


_END = object()             # marks an exhausted input of the row path


class StreamingDataLoader:
    """Windowed, batch-granularity loader over a row stream or column set.

    Args:
        rows: iterable of feature rows (raw values), or a
            :class:`ColumnTrainingSet` for the zero-copy columnar path.
        targets: parallel iterable of target values (ignored for a
            ``ColumnTrainingSet``, which carries its own).
        hasher: feature hasher shared with the model.
        batch_size: samples per emitted batch.
        window_batches: max prepared-but-unconsumed batches held.
    """

    def __init__(self, rows: "Iterable[Sequence[object]] | ColumnTrainingSet",
                 targets: Iterable[float], hasher: FeatureHasher,
                 batch_size: int = 4096, window_batches: int = 80):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if window_batches <= 0:
            raise ValueError("window_batches must be positive")
        self._columnar = rows if isinstance(rows, ColumnTrainingSet) else None
        self._cursor = 0
        self._rows = iter(() if self._columnar is not None else rows)
        self._targets = iter(() if self._columnar is not None else targets)
        self._hasher = hasher
        self.batch_size = batch_size
        self.window_batches = window_batches
        self._window: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._exhausted = False
        self._pulled = 0            # (row, target) pairs read so far

    # -- producer side -----------------------------------------------------

    def _prepare_one(self) -> bool:
        """Prepare one batch into the window; False when input is exhausted."""
        if self._exhausted:
            return False
        if self._columnar is not None:
            return self._prepare_columnar()
        raw_rows: list[Sequence[object]] = []
        raw_targets: list[float] = []
        for _ in range(self.batch_size):
            row = next(self._rows, _END)
            target = next(self._targets, _END)
            if row is _END or target is _END:
                self._exhausted = True
                if row is not target:
                    self._unequal_lengths(row is _END)
                break
            raw_rows.append(row)
            raw_targets.append(target)
            self._pulled += 1
        if not raw_rows:
            return False
        ids = self._hasher.transform(raw_rows)
        targets = np.asarray(raw_targets, dtype=np.float64)
        self._window.append((ids, targets))
        return True

    def _unequal_lengths(self, rows_ended: bool) -> None:
        """Raise for inputs of different lengths, once the first of them
        has run out; the other is counted to its end for the message."""
        rest = 1 + sum(1 for _ in (self._targets if rows_ended
                                   else self._rows))
        rows, targets = ((self._pulled, self._pulled + rest) if rows_ended
                         else (self._pulled + rest, self._pulled))
        raise ValueError(f"rows and targets differ in length: {rows} rows, "
                         f"{targets} targets")

    def _prepare_columnar(self) -> bool:
        """Slice the next batch straight out of the column arrays."""
        data = self._columnar
        start = self._cursor
        stop = min(start + self.batch_size, len(data))
        if stop <= start:
            self._exhausted = True
            return False
        self._cursor = stop
        ids = data.ids(self._hasher)[start:stop]
        targets = data.targets[start:stop].copy()
        self._window.append((ids, targets))
        return True

    def fill_window(self) -> None:
        """Prepare batches until the window is full or input runs dry."""
        while (len(self._window) < self.window_batches
               and self._prepare_one()):
            pass

    # -- consumer side ---------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            if not self._window:
                self.fill_window()
                if not self._window:
                    return
            yield self._window.popleft()


# rows per scan block of a PREDICT materialization (the paper's default
# loader batch): block boundaries set the per-block charge amounts, so
# the recorded PREDICT charges hold at this value
SCAN_BLOCK_ROWS = 4096


def map_scan_blocks(table, process: Callable[[RowBlock], object],
                    start_page: int = 0) -> list:
    """Apply ``process(block)`` to every scan batch of ``table``; returns
    the per-block results in scan order.  ``start_page`` skips earlier
    pages entirely (tail scans for recency windows).

    The single scan-shaping routine both AI materialization paths
    (training sets and prediction inputs) run on: the streaming column
    scan via :func:`~repro.exec.pipeline.table_blocks` (the same
    scan-block primitive the fused pipeline sources use), blocks of
    :data:`SCAN_BLOCK_ROWS` rows (the final one may be short) processed
    inline.  It has no fault-injection sites of its own (its fault
    surface is the storage layer); a PREDICT that fails transiently is
    retried whole by the statement-level ``retry_policy``.
    """
    layout = RowLayout.of_table(table.schema.table_name, table.schema)
    return [process(block)
            for block in table_blocks(table, layout, SCAN_BLOCK_ROWS,
                                      start_page)]


def _scan_columns(table, masks: Sequence[Callable], pick: Callable,
                  clock: SimClock | None, start_page: int = 0):
    """The one scan under every PREDICT materialization: charge
    :data:`~repro.common.simtime.CostModel.TUPLE_CPU` per scanned row
    (category ``predict-materialize``) when a ``clock`` is supplied, narrow
    each block by ``masks`` in order (vectorized ``RowBlock -> bool
    mask``; a later mask never sees a row an earlier one dropped), and lay
    the survivors' ``pick(block)`` columns end to end.  Returns None when
    no row survives.  No per-row tuple is ever built."""

    def materialize(block: RowBlock):
        if clock is not None:
            clock.advance_batch(CostModel.TUPLE_CPU, len(block),
                                cat.PREDICT_MATERIALIZE)
        for mask in masks:
            if not block:
                break
            block = block.select(mask(block))
        return pick(block) if block else None

    parts = [part for part in
             map_scan_blocks(table, materialize, start_page=start_page)
             if part is not None]
    if not parts:
        return None
    return [TypedColumn.concat(column) for column in zip(*parts)]


def table_training_set(table, feature_columns: list[str],
                       target_column: str,
                       block_predicate: Callable | None = None,
                       clock: SimClock | None = None,
                       start_page: int = 0) -> ColumnTrainingSet:
    """Materialize a heap table as a columnar training set: feature
    column arrays plus a float64 target array (see :func:`_scan_columns`
    for the scan and its charges).

    NULL-target rows are dropped *before* ``block_predicate`` (e.g. from
    :func:`~repro.exec.expr.compile_predicate_batch`) runs, so a
    predicate that would error on a NULL-target row never evaluates
    it.
    """
    schema = table.schema
    feature_idx = [schema.index_of(c) for c in feature_columns]
    target_idx = schema.index_of(target_column)
    masks = [lambda block: ~block.null_mask(target_idx)]
    if block_predicate is not None:
        masks.append(block_predicate)

    def pick(block: RowBlock) -> list:
        # typed scan blocks hand the target straight out of the float64
        # page layout (bit-identical to the object astype, no boxing);
        # the object fallback covers precision-declined columns
        target = block.numeric(target_idx)
        if target is None:
            target = block.column(target_idx).astype(np.float64)
        return ([block.columns[idx] for idx in feature_idx]
                + [TypedColumn("f8", target)])

    columns = _scan_columns(table, masks, pick, clock, start_page)
    if columns is None:
        columns = [TypedColumn.from_objects(())] * (len(feature_idx) + 1)
    return ColumnTrainingSet(columns[:-1], columns[-1].data)


def table_training_set_tail(table, feature_columns: list[str],
                            target_column: str, window: int,
                            clock: SimClock | None = None
                            ) -> ColumnTrainingSet:
    """Training set of the table's last ``window`` qualifying rows,
    scanning only the trailing pages — the recency-window feed for
    background refreshes.

    Starts from the pages covering ``window`` live rows
    (:meth:`~repro.storage.heap.HeapTable.tail_start_page`, pure
    metadata) and widens backward (doubling) while NULL-target rows
    leave fewer than ``window`` qualifying rows in the tail, so the
    result matches ``table_training_set(...).tail(window)`` exactly
    while the scan cost tracks the window, not the table history."""
    min_rows = check_at_least("window", window)
    while True:
        start = table.tail_start_page(min_rows)
        data = table_training_set(table, feature_columns, target_column,
                                  clock=clock, start_page=start)
        if len(data) >= window or start == 0:
            return data.tail(window) if len(data) else data
        min_rows *= 2


def table_feature_columns(table, feature_columns: list[str],
                          block_predicate: Callable | None = None,
                          target_column: str | None = None,
                          clock: SimClock | None = None):
    """Materialize PREDICT inference inputs: ``(ColumnFeatures, targets,
    target_null)`` — the feature columns of the rows the vectorized WHERE
    predicate keeps, plus, when ``target_column`` is given, those rows'
    raw target column and its NULL mask, which the serving subsystem uses
    to score predictions against ground truth where it exists.

    Charges are those of the training-set materialization (the same
    :func:`_scan_columns`), independent of ``target_column``.
    """
    schema = table.schema
    feature_idx = [schema.index_of(c) for c in feature_columns]
    width = len(feature_idx)
    target_idx = (schema.index_of(target_column)
                  if target_column is not None else None)

    picked = feature_idx + ([] if target_idx is None else [target_idx])

    def pick(block: RowBlock) -> list:
        return [block.columns[idx] for idx in picked]

    masks = [block_predicate] if block_predicate is not None else []
    columns = _scan_columns(table, masks, pick, clock)
    if columns is None:
        columns = [TypedColumn.from_objects(())] * (width + 1)
    if target_idx is None:
        return ColumnFeatures(columns[:width]), None, None
    target = columns[width]
    return ColumnFeatures(columns[:width]), target.objects(), target.null_mask()
