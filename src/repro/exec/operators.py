"""Physical operators: the row path and the block hooks.

Every operator carries two things over the same compiled state:

* ``__iter__`` — the Volcano path: one tuple at a time, per-row
  virtual-time charges.  The semantic reference every other engine is
  tested against.  The two scans also hand it out with record ids kept
  (``rid_rows()``): the victim stream of UPDATE / DELETE.
* *block hooks* — what the compiled pipelines of
  ``repro/exec/pipeline.py`` call, on :class:`~repro.exec.batch.RowBlock`
  column batches with virtual time charged once per block
  (``clock.advance_batch(cost, n)``): ``scan_block`` (scan + pushed
  predicate as a deferred mask), ``filter_mask`` (mask without the
  select), ``project_block`` (projection straight off a deferred mask),
  ``probe_block``, ``absorb_carrier``/``finish_state`` (aggregate sink),
  ``merge_runs`` (sort sink), ``limit_block`` (early-exit stage),
  ``distinct_block`` (order-sensitive stage).  Charged totals are
  identical to the row path, with one bounded exception: early
  termination (LIMIT) stops on block boundaries, so up to one block of
  upstream cost may be charged beyond where the row engine stops.  LIMIT
  pushes a row budget down to the scan (``max_batch_rows``) to keep that
  block small — exact parity for unfiltered chains, and divergence
  bounded by ``offset + limit + 1`` scanned rows otherwise.

Operators with no block decomposition — IndexScan, NestedLoopJoin,
EmptyRow — keep a ``batches()`` generator instead; the pipeline compiler
makes it the *source* of a pipeline.

The placed engines (``repro/exec/distributed.py``) run
the *worker hooks* as morsel tasks — inline, but re-executed when a
morsel is retried and accounted as if a phase's tasks overlapped: the
stateless block hooks above plus the worker half of each breaker's
``partial``/``merge`` pair (``partial_block`` before
``group_partials``/``finish_partials`` on aggregation; ``build_block``
before ``merge_build`` on hash join; ``sort_block`` before ``merge_runs``
on sort).  Contract for every worker hook: it charges all of its
virtual-time cost to the clock it is *passed* (a per-task shard), never
to ``self._clock``; it never touches ``self.rows_out`` (the driver
attributes output counts after reassembly, so a retried task does not
count twice); and running it again, or in another order, changes
nothing, because compiled state (``compile_expr_cached`` evaluators,
predicate batch evaluators) is effectively read-only after construction
— the one exception is ``BuildTable.buckets()``, built once under its
lock — and every :class:`RowBlock` is owned by one task at a time.
``AggregateOp.partial_block`` keeps, as arrays, what the serial
``absorb_carrier`` partitions a block into, and the merge is that
partitioner again over the partials' representative rows — one
partitioner serves every engine, on both sides of the breaker.
"""

from __future__ import annotations

from typing import Any, Iterator

import functools
import itertools
import operator
import threading

import numpy as np

from repro.common import categories as cat
from repro.common.errors import ExecutionError
from repro.common.simtime import CostModel, SimClock
from repro.exec.batch import (
    DEFAULT_BATCH_SIZE,
    RowBlock,
    concat_columns,
    object_array,
)
from repro.exec.expr import (
    NO_COLUMNS,
    RowLayout,
    compile_expr_cached,
    compile_predicate_batch,
    output_layout,
    to_bool,
)
from repro.plan import logical as plan
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.types import DataType, TypedColumn

# A value source for the batch path: either a direct column slot or a
# compiled row evaluator applied inside the block (an aggregate's result
# items may also read an aggregate call's slot).
_SLOT, _EVAL, _AGG = 0, 1, 2


def _value_source(expr: ast.Expr, layout: RowLayout):
    """(kind, payload): column passthrough when the expression is a bare
    column reference — values then keep their exact Python identity — and a
    row evaluator otherwise."""
    if isinstance(expr, ast.ColumnRef):
        return _SLOT, layout.resolve(expr.name, expr.table)
    return _EVAL, compile_expr_cached(expr, layout)


def _source_values(source, block: RowBlock) -> list:
    kind, payload = source
    if kind == _SLOT:
        return block.values_list(payload)
    return [payload(row) for row in block.iter_rows()]


def _key_arrays(column, ordered: bool = False) -> list[np.ndarray] | None:
    """:meth:`TypedColumn.key_arrays` of a block column; None selects the
    exact-object path (object arrays and ``"obj"`` columns: mixed types,
    NaN, out-of-range ints, computed values)."""
    if isinstance(column, TypedColumn):
        return column.key_arrays(ordered)
    return None


def _stable_order(arrays: list[np.ndarray]) -> np.ndarray:
    """Row indices in ascending lexicographic order of ``arrays`` (most
    significant first), ties in row order."""
    if len(arrays) > 1:
        return np.lexsort(arrays[::-1])
    keys = arrays[0]
    if keys.dtype.kind == "i" and keys.itemsize > 2 and len(keys):
        low = int(keys.min())
        if int(keys.max()) - low < 1 << 16:
            # 16-bit keys take numpy's radix sort: O(n), and stable
            keys = (keys - low).astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _segment_ids(lows: np.ndarray, lens: np.ndarray,
                 ids: np.ndarray) -> np.ndarray:
    """Per position, the id of the segment holding it, where segments
    ``lows[i] : lows[i] + lens[i]`` (id ``ids[i]``) tile the positions."""
    by_low = np.argsort(lows, kind="stable")
    return np.repeat(ids[by_low], lens[by_low])


def _traced_generator(method):
    """Wrap an operator's ``__iter__``/``batches`` so that, when a tracer
    is attached to the operator's clock, every ``next()`` — and every
    charge made while producing the item, including buffer-pool page
    charges inside a scan pull — attributes to this operator's span.
    With no tracer the original generator is returned untouched: the only
    overhead is one attribute check per *call*, never per row."""
    def wrapper(self):
        inner = method(self)
        tracer = self._clock.tracer
        if tracer is None:
            return inner
        return tracer.trace_iter(self, inner)
    wrapper.__name__ = method.__name__
    wrapper.__qualname__ = method.__qualname__
    wrapper.__doc__ = method.__doc__
    wrapper.__wrapped__ = method
    return wrapper


class Operator:
    """Base operator: a layout, the row iterator, and the block hooks the
    subclass defines."""

    def __init__(self, layout: RowLayout, clock: SimClock):
        self.layout = layout
        self._clock = clock
        self.rows_out = 0
        # the plan node this operator was built from; the pipeline
        # compiler reads its STREAMING/BREAKER annotations.  None for
        # synthetic operators (EmptyRow, block replays).
        self.plan_node: plan.PlanNode | None = None

    def __init_subclass__(cls, **kwargs):
        # Per-operator attribution for the interleaved row engine and
        # the ``batches()`` pipeline sources: subclass iterators are
        # wrapped once, at class creation, so no operator needs tracing
        # code of its own.
        super().__init_subclass__(**kwargs)
        for name in ("__iter__", "batches", "rid_rows"):
            if name in cls.__dict__:
                setattr(cls, name, _traced_generator(cls.__dict__[name]))

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def _emit(self, row: tuple) -> tuple:
        self.rows_out += 1
        return row

    def _emit_block(self, block: RowBlock) -> RowBlock:
        self.rows_out += len(block)
        return block


class SeqScanOp(Operator):
    def __init__(self, node: plan.SeqScan, catalog: Catalog, clock: SimClock):
        table = catalog.table(node.table)
        layout = RowLayout.of_table(node.binding, table.schema)
        super().__init__(layout, clock)
        self.plan_node = node
        self._table = table
        # LIMIT push-down shrinks this so early termination doesn't pay
        # for a full batch of rows the row engine would never scan
        self.max_batch_rows = DEFAULT_BATCH_SIZE
        if node.predicate is not None:
            self._predicate = compile_expr_cached(node.predicate, layout)
            self._predicate_batch = compile_predicate_batch(node.predicate,
                                                            layout)
        else:
            self._predicate = None
            self._predicate_batch = None

    def __iter__(self) -> Iterator[tuple]:
        predicate = self._predicate
        for _, row in self._table.scan():
            self._clock.advance(CostModel.TUPLE_CPU, cat.SCAN)
            if predicate is not None:
                self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
                if not to_bool(predicate(row)):
                    continue
            yield self._emit(row)

    def rid_rows(self) -> Iterator[tuple]:
        """``(rid, row)`` of every row ``__iter__`` yields: UPDATE /
        DELETE's victim stream.  Same charges, made once per scan, not
        once per row: DML has no charge-parity contract with another
        engine, and two clock calls a row double an unindexed UPDATE."""
        predicate = self._predicate
        examined = 0
        try:
            for item in self._table.scan():
                examined += 1
                if predicate is None or to_bool(predicate(item[1])):
                    self.rows_out += 1
                    yield item
        finally:
            self._clock.advance_batch(CostModel.TUPLE_CPU, examined, cat.SCAN)
            if predicate is not None:
                self._clock.advance_batch(CostModel.EVAL_PREDICATE, examined,
                                          cat.FILTER)

    def make_block(self, columns, n: int) -> RowBlock:
        """Materialize one scan morsel/batch as a block (no charges)."""
        return RowBlock(self.layout, columns, n)

    def scan_block(self, block: RowBlock, clock: SimClock
                   ) -> tuple[RowBlock, np.ndarray | None] | None:
        """Fused hook: charge one scanned block (and its pushed-down
        predicate) and return ``(block, mask)`` with the selection
        *deferred* — downstream fused stages apply the mask only to the
        columns they actually touch.  ``mask`` is None when no predicate
        is pushed down; the result is None when every row is rejected."""
        n = len(block)
        if self._predicate_batch is None:
            clock.advance_batch(CostModel.TUPLE_CPU, n, cat.SCAN)
            return block, None
        clock.advance_charges(((CostModel.TUPLE_CPU, n, cat.SCAN),
                               (CostModel.EVAL_PREDICATE, n, cat.FILTER)))
        mask = self._predicate_batch(block)
        if not mask.any():
            return None
        return block, mask


class IndexScanOp(Operator):
    def __init__(self, node: plan.IndexScan, catalog: Catalog,
                 clock: SimClock):
        table = catalog.table(node.table)
        layout = RowLayout.of_table(node.binding, table.schema)
        super().__init__(layout, clock)
        self.plan_node = node
        self._table = table
        self._node = node
        self.max_batch_rows = DEFAULT_BATCH_SIZE
        entry = next((e for e in catalog.indexes_on(node.table)
                      if e.name == node.index_name), None)
        if entry is None:
            raise ExecutionError(f"index {node.index_name!r} missing")
        self._index = entry.index
        self._kind = entry.kind
        if node.residual is not None:
            self._residual = compile_expr_cached(node.residual, layout)
            self._residual_batch = compile_predicate_batch(node.residual,
                                                           layout)
        else:
            self._residual = None
            self._residual_batch = None

    def _fetch(self) -> Iterator[tuple]:
        """``(rid, row)`` of every live row the index names; no charges."""
        node = self._node
        if node.eq is not None:
            rids = self._index.search(node.eq)
        elif self._kind != "btree":
            raise ExecutionError("range scan requires a btree index")
        else:
            rids = (rid for _, rid in self._index.range_scan(
                node.low, node.high, node.include_low, node.include_high))
        for rid in rids:
            row = self._table.read(rid)
            if row is not None:
                yield rid, row

    def rid_rows(self) -> Iterator[tuple]:
        """The row path, record ids kept: SELECT's ``__iter__`` drops
        them, UPDATE / DELETE address their victims by them."""
        self._clock.advance(CostModel.INDEX_DESCENT, cat.INDEX)
        for item in self._fetch():
            self._clock.advance(CostModel.TUPLE_CPU, cat.INDEX)
            if self._residual is not None:
                self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
                if not to_bool(self._residual(item[1])):
                    continue
            self.rows_out += 1
            yield item

    def __iter__(self) -> Iterator[tuple]:
        return map(operator.itemgetter(1), self.rid_rows())

    def batches(self) -> Iterator[RowBlock]:
        self._clock.advance(CostModel.INDEX_DESCENT, cat.INDEX)
        buffer: list[tuple] = []
        for _, row in self._fetch():
            buffer.append(row)
            if len(buffer) >= self.max_batch_rows:
                block = self._filtered_block(buffer)
                buffer = []
                if block:
                    yield self._emit_block(block)
        if buffer:
            block = self._filtered_block(buffer)
            if block:
                yield self._emit_block(block)

    def _filtered_block(self, rows: list[tuple]) -> RowBlock:
        n = len(rows)
        self._clock.advance_batch(CostModel.TUPLE_CPU, n, cat.INDEX)
        block = RowBlock.from_rows(self.layout, rows)
        if self._residual_batch is not None:
            self._clock.advance_batch(CostModel.EVAL_PREDICATE, n, cat.FILTER)
            block = block.select(self._residual_batch(block))
        return block


class FilterOp(Operator):
    def __init__(self, node: plan.Filter, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._predicate = compile_expr_cached(node.predicate, child.layout)
        self._predicate_batch = compile_predicate_batch(node.predicate,
                                                        child.layout)

    def __iter__(self) -> Iterator[tuple]:
        for row in self._child:
            self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
            if to_bool(self._predicate(row)):
                yield self._emit(row)

    def filter_mask(self, block: RowBlock,
                    clock: SimClock) -> np.ndarray | None:
        """Fused hook: evaluate the predicate over one (materialized)
        block as a selection mask, charging ``clock``, without building
        the selected block — the pipeline defers the copy to whichever
        stage materializes.  None when every row is rejected."""
        clock.advance_batch(CostModel.EVAL_PREDICATE, len(block), cat.FILTER)
        mask = self._predicate_batch(block)
        return mask if mask.any() else None


class ProjectOp(Operator):
    def __init__(self, node: plan.Project, child: Operator, clock: SimClock):
        evaluators = []
        sources = []
        for item in node.items:
            if isinstance(item.expr, ast.Star):
                for slot_idx, (binding, _) in enumerate(child.layout.slots):
                    if item.expr.table and binding != item.expr.table.lower():
                        continue
                    evaluators.append(
                        lambda row, j=slot_idx: row[j])
                    sources.append((_SLOT, slot_idx))
                continue
            evaluators.append(compile_expr_cached(item.expr, child.layout))
            sources.append(_value_source(item.expr, child.layout))
        super().__init__(output_layout(node.items, child.layout), clock)
        self.plan_node = node
        self._child = child
        self._evaluators = evaluators
        self._sources = sources

    def __iter__(self) -> Iterator[tuple]:
        for row in self._child:
            self._clock.advance(CostModel.TUPLE_CPU, cat.PROJECT)
            yield self._emit(tuple(e(row) for e in self._evaluators))

    def project_block(self, block: RowBlock, mask: np.ndarray | None,
                      count: int, clock: SimClock) -> RowBlock:
        """Fused hook: project one block whose selection may still be
        deferred as ``mask`` (``count`` = surviving rows, what the charge
        and the output length must reflect).  Column-passthrough items
        apply the mask per projected column — unprojected columns are
        never copied; computed items materialize the selected rows once."""
        clock.advance_batch(CostModel.TUPLE_CPU, count, cat.PROJECT)
        columns = []
        rows: list[tuple] | None = None
        for kind, payload in self._sources:
            if kind == _SLOT:
                # raw column (typed or object) so typed-ness survives
                # straight-through projections
                col = block.columns[payload]
                columns.append(col if mask is None else col[mask])
            else:
                if rows is None:
                    filtered = block if mask is None else block.select(mask)
                    rows = filtered.to_rows()
                columns.append([payload(row) for row in rows])
        return RowBlock.from_columns(self.layout, columns)


class NestedLoopJoinOp(Operator):
    # cap on materialized candidate pairs per emitted block
    _PAIR_CHUNK = 8192

    def __init__(self, node: plan.NestedLoopJoin, left: Operator,
                 right: Operator, clock: SimClock):
        layout = left.layout.concat(right.layout)
        super().__init__(layout, clock)
        self.plan_node = node
        self._left = left
        self._right = right
        if node.condition is not None:
            self._condition = compile_expr_cached(node.condition, layout)
            self._condition_batch = compile_predicate_batch(node.condition,
                                                            layout)
        else:
            self._condition = None
            self._condition_batch = None

    def __iter__(self) -> Iterator[tuple]:
        right_rows = list(self._right)
        condition = self._condition
        for lrow in self._left:
            for rrow in right_rows:
                self._clock.advance(CostModel.TUPLE_CPU, cat.JOIN)
                combined = lrow + rrow
                if condition is not None:
                    self._clock.advance(CostModel.EVAL_PREDICATE, cat.JOIN)
                    if not to_bool(condition(combined)):
                        continue
                yield self._emit(combined)

    def batches(self) -> Iterator[RowBlock]:
        right = RowBlock.from_rows(
            self._right.layout,
            [row for block in self._right.batches()
             for row in block.iter_rows()])
        m = len(right)
        if m == 0:
            # still drain the left side so its operators charge the same
            # virtual time as the row path would
            for _ in self._left.batches():
                pass
            return
        condition = self._condition_batch
        # chunk the left side so each materialized cross-product block
        # stays bounded regardless of the right side's size
        rows_per_chunk = max(1, self._PAIR_CHUNK // m)
        for lblock in self._left.batches():
            for start in range(0, len(lblock), rows_per_chunk):
                chunk = lblock.slice(start, start + rows_per_chunk)
                n = len(chunk)
                pairs = n * m
                self._clock.advance_batch(CostModel.TUPLE_CPU, pairs, cat.JOIN)
                columns = [np.repeat(chunk.column(i), m)
                           for i in range(len(chunk.columns))]
                columns += [np.tile(right.column(i), n)
                            for i in range(len(right.columns))]
                block = RowBlock(self.layout, columns, pairs)
                if condition is not None:
                    self._clock.advance_batch(CostModel.EVAL_PREDICATE,
                                              pairs, cat.JOIN)
                    block = block.select(condition(block))
                if block:
                    yield self._emit_block(block)


class HashJoinOp(Operator):
    def __init__(self, node: plan.HashJoin, left: Operator, right: Operator,
                 clock: SimClock):
        layout = left.layout.concat(right.layout)
        super().__init__(layout, clock)
        self.plan_node = node
        self._left = left
        self._right = right
        # the planner only ever joins on bare column references
        self._left_slot = left.layout.resolve(node.left_key.name,
                                              node.left_key.table)
        self._right_slot = right.layout.resolve(node.right_key.name,
                                                node.right_key.table)
        if node.residual is not None:
            self._residual = compile_expr_cached(node.residual, layout)
            self._residual_batch = compile_predicate_batch(node.residual,
                                                           layout)
        else:
            self._residual = None
            self._residual_batch = None

    def __iter__(self) -> Iterator[tuple]:
        buckets: dict[Any, list[tuple]] = {}
        build_rows = 0
        for lrow in self._left:
            self._clock.advance(CostModel.HASH_BUILD_ROW, cat.JOIN)
            build_rows += 1
            key = lrow[self._left_slot]
            if key is not None:
                buckets.setdefault(key, []).append(lrow)
        probe_factor = self._spill(build_rows)
        for rrow in self._right:
            self._clock.advance(CostModel.HASH_PROBE_ROW * probe_factor,
                                cat.JOIN)
            key = rrow[self._right_slot]
            if key is None:
                continue
            for lrow in buckets.get(key, ()):
                self._clock.advance(CostModel.TUPLE_CPU, cat.JOIN)
                combined = lrow + rrow
                if self._residual is not None:
                    self._clock.advance(CostModel.EVAL_PREDICATE, cat.JOIN)
                    if not to_bool(self._residual(combined)):
                        continue
                yield self._emit(combined)

    def _spill(self, build_rows: int,
               clock: SimClock | None = None) -> float:
        """Charge the hybrid-hash spill surcharge; returns the probe-side
        cost factor."""
        clock = clock if clock is not None else self._clock
        spilled = build_rows > CostModel.HASH_SPILL_ROWS
        if spilled:
            # hybrid hash join ran out of work_mem: repartition the build
            # side to disk; every probe re-reads its partition
            clock.advance(build_rows * CostModel.HASH_BUILD_ROW
                          * (CostModel.HASH_SPILL_FACTOR - 1), cat.SPILL)
        return CostModel.HASH_SPILL_FACTOR / 2 if spilled else 1.0

    def build_block(self, block: RowBlock, clock: SimClock
                    ) -> tuple[int, RowBlock, "TypedColumn | np.ndarray"]:
        """Build-side parallel hook: ``(row_count, rows, keys)`` for one
        block — its rows with a non-NULL key, still columnar, beside
        their key column — charging ``clock``.  ``row_count`` is the
        *input* count (NULL keys included) so the spill decision sees
        the same build size as the serial engines."""
        n = len(block)
        clock.advance_batch(CostModel.HASH_BUILD_ROW, n, cat.JOIN)
        keys = block.columns[self._left_slot]
        null = block.null_mask(self._left_slot)
        if null.any():
            block, keys = block.select(~null), keys[~null]
        return n, block, keys

    def part_units(self, part: tuple) -> int:
        """Modeled exchange size of one build part: the scalar leaves of
        the ``(row_count, [(key, row), ...])`` it stands for."""
        return 1 + (len(part[1]) * (1 + len(self._left.layout)) or 1)

    def merge_build(self, parts: list[tuple], clock: SimClock) -> BuildTable:
        """Concatenate per-block build parts — in block order, so equal
        keys list their build rows in exactly the row engine's insertion
        order — and charge any spill surcharge to ``clock``."""
        build_rows = sum(part[0] for part in parts)
        parts = [part for part in parts if len(part[1])]
        block = keys = None
        if parts:
            block = RowBlock.concat([part[1] for part in parts])
            keys = concat_columns([part[2] for part in parts])
        return BuildTable(block, keys, build_rows,
                          self._spill(build_rows, clock))

    def probe_block(self, block: RowBlock, build: BuildTable,
                    clock: SimClock) -> RowBlock | None:
        """Probe-side parallel hook: join one probe block against the
        (read-only) build table, charging ``clock``; None when no row
        survives.  The output is one ``take`` per column over the
        matching ``(build row, probe row)`` index pairs."""
        clock.advance_batch(CostModel.HASH_PROBE_ROW * build.probe_factor,
                            len(block), cat.JOIN)
        pairs = build.match(block.columns[self._right_slot])
        if pairs is None:
            return None
        build_idx, probe_idx = pairs
        candidates = len(build_idx)
        clock.advance_batch(CostModel.TUPLE_CPU, candidates, cat.JOIN)
        out = RowBlock(self.layout,
                       [c[build_idx] for c in build.block.columns]
                       + [c[probe_idx] for c in block.columns],
                       candidates)
        if self._residual_batch is not None:
            clock.advance_batch(CostModel.EVAL_PREDICATE, candidates,
                                cat.JOIN)
            out = out.select(self._residual_batch(out))
        return out if out else None


class BuildTable:
    """The finished build side of a hash join: the build rows with a
    non-NULL key as one columnar ``block`` (``rows`` counts the input,
    NULL keys included).  A typed key column is kept as a stably sorted
    array — ``keys[i]`` is the key of block row ``order[i]``, equal keys
    in insertion order — and probed with ``searchsorted`` by columns of
    the same representation.  Object keys, and probe columns of another
    representation (object values, text against numbers, ints against
    floats), go through ``buckets()``, built on first use."""

    def __init__(self, block: RowBlock | None, key_column, rows: int,
                 probe_factor: float):
        self.block = block            # None when no build row has a key
        self.rows = rows
        self.probe_factor = probe_factor
        self._key_column = key_column
        self._buckets: dict[Any, list[int]] | None = None
        self._lock = threading.Lock()
        self.keys = self.order = None
        arrays = None if block is None else _key_arrays(key_column)
        if arrays is not None:
            data = arrays[-1]         # keys are NULL-free: the value array
            if data.dtype == bool:
                data = data.astype(np.int64)
            self.order = np.argsort(data, kind="stable")
            self.keys = data[self.order]

    def buckets(self) -> dict[Any, list[int]]:
        """Block row indices per key, in insertion order."""
        with self._lock:
            if self._buckets is None:
                buckets: dict[Any, list[int]] = {}
                for i, key in enumerate(self._key_column.tolist()):
                    buckets.setdefault(key, []).append(i)
                self._buckets = buckets
        return self._buckets

    def payload_units(self) -> int:
        """Modeled exchange size: the scalar leaves of the ``{key: [row,
        ...]}`` table this stands for."""
        if self.block is None:
            return 1
        distinct = (len(self.buckets()) if self.keys is None else
                    1 + np.count_nonzero(self.keys[1:] != self.keys[:-1]))
        return distinct + len(self.block) * len(self.block.columns)

    def match(self, probe) -> tuple[np.ndarray, np.ndarray] | None:
        """``(build rows, probe rows)`` of every key match between the
        table and one probe key column, probe-row-major and
        build-insertion-minor — the order the row engine's bucket walk
        emits — or None when nothing matches."""
        if self.block is None:
            return None
        spans = self._spans(probe)
        if spans is None:
            buckets = self.buckets()
            build_idx: list[int] = []
            probe_idx: list[int] = []
            for i, key in enumerate(probe.tolist()):
                hits = buckets.get(key)
                if hits:
                    build_idx += hits
                    probe_idx += [i] * len(hits)
            if not build_idx:
                return None
            return (np.array(build_idx, dtype=np.intp),
                    np.array(probe_idx, dtype=np.intp))
        lo, counts = spans
        total = int(counts.sum())
        if not total:
            return None
        # match j of probe row i is sorted slot lo[i] + (j - first[i])
        first = np.cumsum(counts) - counts
        slots = np.arange(total) - np.repeat(first - lo, counts)
        return self.order[slots], np.repeat(np.arange(len(counts)), counts)

    def _spans(self, probe) -> tuple[np.ndarray, np.ndarray] | None:
        """Per probe row, the start and length of its run of equal keys
        in the sorted key array; None when the comparison needs Python
        equality."""
        if self.keys is None or not isinstance(probe, TypedColumn):
            return None
        if probe.kind == "dict" and self._key_column.kind == "dict":
            # probe codes in the build dictionary; a string it lacks and
            # NULL (code -1: the last slot) match nothing
            codes = [self._key_column.code_of(s) for s in probe.dictionary]
            lut = np.array([-1 if code is None else code for code in codes]
                           + [-1], dtype=np.int32)
            values = lut[probe.data]
        else:
            values = (probe.data.astype(np.int64) if probe.kind == "bool"
                      else probe.data)
            if values.dtype != self.keys.dtype:
                return None       # objects, text vs number, int vs float
        lo = np.searchsorted(self.keys, values, "left")
        counts = np.searchsorted(self.keys, values, "right") - lo
        if probe.valid is not None:
            counts[~probe.valid] = 0
        return lo, counts


class _Accumulator:
    """One aggregate function instance (per group): the row engine's
    state, and a batch sink's for a call that does not fold in arrays
    (see :class:`_CallFold`)."""

    def __init__(self, func: ast.FuncCall, arg):
        # arg: the compiled argument evaluator, None for COUNT(*)
        self.name = func.name
        self.distinct = func.distinct
        self._seen: set | None = set() if func.distinct else None
        self._arg = arg
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None

    def add(self, row: tuple) -> None:
        if self._arg is None:  # COUNT(*)
            self.count += 1
            return
        value = self._arg(row)
        if value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self.count += 1
        self.total = value if self.total is None else self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def add_values(self, values: list, clean: bool = False) -> None:
        """Batch-path accumulation of pre-extracted argument values.

        Mirrors :meth:`add` exactly — same NULL skipping, same first-seen
        DISTINCT order, same left-to-right addition order — so totals are
        bit-identical to the row path.  ``clean`` promises the caller
        already knows no NULLs are present (e.g. from the block's null
        mask), skipping the filter pass."""
        live = values if clean else [v for v in values if v is not None]
        if self._seen is not None:
            seen = self._seen
            fresh = []
            for value in live:
                if value not in seen:
                    seen.add(value)
                    fresh.append(value)
            live = fresh
        if not live:
            return
        self.count += len(live)
        name = self.name
        if name in ("sum", "avg"):
            # a left fold seeded with the running total is the row path's
            # addition order (builtin sum is not: from Python 3.12 it
            # compensates float rounding)
            if self.total is None:
                self.total = functools.reduce(operator.add, live[1:], live[0])
            else:
                self.total = functools.reduce(operator.add, live, self.total)
        elif name == "min":
            # builtin min / max fold left to right with the row path's
            # own comparison; seeded with the running extreme the fold
            # does not restart at a block boundary (NaN compares false
            # both ways, so a per-block min would depend on the blocks)
            self.minimum = min(live) if self.minimum is None \
                else min(itertools.chain((self.minimum,), live))
        elif name == "max":
            self.maximum = max(live) if self.maximum is None \
                else max(itertools.chain((self.maximum,), live))

    def result(self) -> Any:
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            return self.total / self.count if self.count else None
        if self.name == "min":
            return self.minimum
        return self.maximum                 # max: the call was typed


# The column kind a sum / avg folds in arrays, by argument type, and what
# its totals start from: -0.0 + x is x bit for bit, -0.0 itself included,
# so a seeded total is the row engine's first value, then the adds
_TOTALS = {DataType.INT: ("i8", 0), DataType.FLOAT: ("f8", -0.0)}


class _CallFold:
    """One aggregate call's state in a batch sink, for groups numbered
    densely in first-seen order.

    ``count`` and non-DISTINCT ``sum`` / ``avg`` of an INT or FLOAT column
    keep a count array and, for the last two, a total array: ``np.add.at``
    adds in index order, so each group's total is the row engine's
    left-to-right sum.  A ``sum`` / ``avg`` folds a batch in arrays only
    while it is a :class:`TypedColumn` of the totals' kind (not ``"obj"``)
    and, for int64, while a running bound proves no total overflows; the
    first batch that fails turns the totals into per-group
    :class:`_Accumulator` s for good — exactly, since the array totals are
    the Python totals.  Everything else keeps accumulators from the
    start."""

    __slots__ = ("name", "_call", "_arg", "_kind", "_seed", "counts",
                 "totals", "_bound", "accs")

    def __init__(self, call: ast.FuncCall, arg, dtype: DataType | None):
        self.name = call.name
        self._call, self._arg = call, arg
        self._kind, self._seed = (_TOTALS.get(dtype, (None, None))
                                  if self.name in ("sum", "avg")
                                  else (None, None))
        self.counts = np.zeros(0, dtype=np.int64)
        self.totals = np.full(0, self._seed)
        self._bound = 0                 # >= every |int64 total|, so far
        # COUNT(*) counts rows, DISTINCT or not, as the row engine does
        arrays = arg is None or not call.distinct and (
            self.name == "count" or self._kind)
        self.accs: list[_Accumulator] | None = None if arrays else []

    def grow(self, groups: int) -> None:
        """Open groups up to id ``groups - 1``."""
        if self.accs is not None:
            self.accs += [_Accumulator(self._call, self._arg)
                          for _ in range(groups - len(self.accs))]
            return
        extra = groups - len(self.counts)
        if extra:
            self.counts = np.concatenate(
                (self.counts, np.zeros(extra, dtype=np.int64)))
            if self._kind:
                self.totals = np.concatenate(
                    (self.totals, np.full(extra, self._seed)))

    def fold_arrays(self, column, clean: bool, gids: np.ndarray) -> bool:
        """Add argument value ``i`` of ``column`` (None: COUNT(*)) to
        group ``gids[i]``; False when the call is on the exact path."""
        if self.accs is not None:
            return False
        live = None
        if column is not None and not clean:
            live = ~(column.null_mask() if isinstance(column, TypedColumn)
                     else np.equal(column, None))
            gids = gids[live]
        if self._kind:
            data = self._addends(column, live)
            if data is None:
                self._to_accumulators()
                return False
            np.add.at(self.totals, gids, data)
        self.counts += np.bincount(gids, minlength=len(self.counts))
        return True

    def _addends(self, column, live: np.ndarray | None):
        """The non-NULL values of ``column`` as an array the totals add
        exactly, or None."""
        if not (isinstance(column, TypedColumn) and column.kind == self._kind):
            return None
        data = column.data if live is None else column.data[live]
        if self._kind == "i8" and len(data):
            self._bound += max(int(data.max()), -int(data.min())) * len(data)
            if self._bound >= 1 << 63:
                return None
        return data

    def _to_accumulators(self) -> None:
        self.accs = []
        for count, total in zip(self.counts.tolist(), self.totals.tolist()):
            acc = _Accumulator(self._call, self._arg)
            acc.count, acc.total = count, total if count else None
            self.accs.append(acc)

    def results(self) -> list:
        """Per-group results, by group id."""
        if self.accs is not None:
            return [acc.result() for acc in self.accs]
        counts = self.counts.tolist()
        if self.name == "count":
            return counts
        totals = self.totals.tolist()
        if self.name == "avg":
            return [total / count if count else None
                    for total, count in zip(totals, counts)]
        return [total if count else None
                for total, count in zip(totals, counts)]


class AggPartial:
    """One morsel's aggregation, kept columnar: one entry per group of
    the morsel, in first-seen order.  ``reps`` holds the groups'
    representative (first) rows; entry ``g`` owns positions ``lows[g] :
    lows[g] + lens[g]`` of every value column; ``columns`` has, per
    aggregate call, None for COUNT(*) or ``(values, clean)`` — the
    argument column arranged by the partition, still a TypedColumn or
    object array, and whether it is provably NULL-free.  ``rows`` is the
    morsel's row count, ``len()`` its entry count."""

    __slots__ = ("reps", "lows", "lens", "rows", "columns")

    def __init__(self, reps: RowBlock, lows: np.ndarray, lens: np.ndarray,
                 rows: int, columns: list):
        self.reps = reps
        self.lows = lows
        self.lens = lens
        self.rows = rows
        self.columns = columns

    def __len__(self) -> int:
        return len(self.reps)


class PartialGroups:
    """The entries of ``partials`` — numbered in morsel order, ``block``
    their representatives laid end to end — partitioned into the merged
    groups, as both partitioners answer."""

    __slots__ = ("partials", "block", "keys", "firsts", "rows", "lows",
                 "highs")

    def __init__(self, partials: list[AggPartial], block: RowBlock,
                 grouped: tuple):
        self.partials = partials
        self.block = block
        self.keys, self.firsts, self.rows, self.lows, self.highs = grouped

    def of_entries(self) -> np.ndarray:
        """The merged group (an index into ``keys``) of every entry."""
        ids = _segment_ids(self.lows, self.highs - self.lows,
                           np.arange(len(self.lows)))
        if self.rows is None:             # a global aggregate: one group
            return ids
        out = np.empty_like(ids)
        out[self.rows] = ids
        return out


class AggState:
    """The streaming sink's aggregation so far: ``index`` numbers the
    group keys in first-seen order, ``reps`` holds the groups'
    representative (first) rows as blocks in that order, and ``folds``
    one :class:`_CallFold` per aggregate call."""

    __slots__ = ("index", "reps", "folds")

    def __init__(self, folds: list[_CallFold]):
        self.index: dict[Any, int] = {}
        self.reps: list[RowBlock] = []
        self.folds = folds


class AggregateOp(Operator):
    """Hash aggregation with optional GROUP BY.

    Select items may mix group-by expressions and aggregate calls; each item
    is rewritten so aggregates pull from their per-group results and
    non-aggregates evaluate against the group's representative row.
    """

    def __init__(self, node: plan.Aggregate, child: Operator,
                 clock: SimClock):
        super().__init__(output_layout(node.items, child.layout), clock)
        self.plan_node = node
        self._child = child
        self._node = node
        self._group_evals = [compile_expr_cached(g, child.layout)
                             for g in node.group_by]
        self._group_sources = [_value_source(g, child.layout)
                               for g in node.group_by]
        # collect every aggregate call across all select items
        self._agg_calls: list[ast.FuncCall] = []
        for item in node.items:
            self._collect_aggs(item.expr)
        self._agg_sources = [
            None if (not call.args or isinstance(call.args[0], ast.Star))
            else _value_source(call.args[0], child.layout)
            for call in self._agg_calls]
        # compiled once here, not once per group (typing the items above
        # already refused sum(*) and its kin)
        self._agg_args = [
            None if source is None
            else compile_expr_cached(call.args[0], child.layout)
            for call, source in zip(self._agg_calls, self._agg_sources)]
        self._item_evals = [self._compile_item(item.expr)
                            for item in node.items]
        # what a batch result column is read from: an aggregate call's
        # results, a representative column, or the per-group evaluator
        self._item_columns = [self._item_column(item.expr)
                              for item in node.items]
        # deferred-mask absorption is safe only when every group key and
        # aggregate argument is a plain column passthrough: row evaluators
        # must never see rows the mask already rejected
        self._slot_only = (
            all(s[0] == _SLOT for s in self._group_sources)
            and all(s is None or s[0] == _SLOT for s in self._agg_sources))

    def _collect_aggs(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            self._agg_calls.append(expr)
            return
        if isinstance(expr, ast.BinaryOp):
            self._collect_aggs(expr.left)
            self._collect_aggs(expr.right)
        elif isinstance(expr, ast.UnaryOp):
            self._collect_aggs(expr.operand)

    def _new_accs(self) -> list[_Accumulator]:
        return [_Accumulator(call, arg)
                for call, arg in zip(self._agg_calls, self._agg_args)]

    def __iter__(self) -> Iterator[tuple]:
        groups: dict[tuple, tuple[list[_Accumulator], tuple]] = {}
        for row in self._child:
            self._clock.advance(CostModel.HASH_BUILD_ROW, cat.AGG)
            key = tuple(e(row) for e in self._group_evals)
            if key not in groups:
                groups[key] = (self._new_accs(), row)
            for acc in groups[key][0]:
                acc.add(row)
        yield from self._result_rows(groups)

    # -- sink hooks --------------------------------------------------------

    def _new_folds(self) -> list[_CallFold]:
        types = self._child.layout.types
        return [_CallFold(call, arg, None if source is None
                          or source[0] != _SLOT else types[source[1]])
                for call, arg, source in zip(
                    self._agg_calls, self._agg_args, self._agg_sources)]

    def new_state(self) -> AggState:
        """Fresh serial state."""
        return AggState(self._new_folds())

    def absorb_carrier(self, block: RowBlock, mask: np.ndarray | None,
                       count: int, state: AggState,
                       clock: SimClock) -> None:
        """Sink hook: fold the ``count`` surviving rows of ``(block,
        mask)`` into the accumulation state, charging ``clock``, without
        materializing the selection (see :meth:`_partition`).  Groups not
        seen before get the next ids, their first rows as
        representatives."""
        clock.advance_batch(CostModel.HASH_BUILD_ROW, count, cat.AGG)
        block, (keys, firsts, rows, lows, highs) = self._partition(
            block, mask, count)
        index = state.index
        ids = list(map(index.get, keys))
        if None in ids:
            fresh = [g for g, gid in enumerate(ids) if gid is None]
            for gid, g in enumerate(fresh, len(index)):
                index[keys[g]] = ids[g] = gid
            state.reps.append(block.take(firsts[fresh]))
        self._fold_groups(state.folds, len(index),
                          self._call_arrays(block, rows),
                          _segment_ids(lows, highs - lows,
                                       np.array(ids, dtype=np.intp)))

    def finish_state(self, state: AggState) -> RowBlock | None:
        """Sink hook: emit the result block (rows_out attributed), or
        None when a grouped query saw no rows."""
        return self._result_block(
            state.folds, RowBlock.concat(state.reps) if state.reps else None)

    def _call_arrays(self, block: RowBlock, rows: np.ndarray | None = None):
        """(values array, clean) per aggregate call, arranged by the
        partition's ``rows`` when given; None for COUNT(*)."""
        arrays: list[tuple[np.ndarray, bool] | None] = []
        for source in self._agg_sources:
            if source is None:
                arrays.append(None)
                continue
            kind, payload = source
            if kind == _SLOT:
                # raw column: TypedColumn keeps its C-speed tolist/take
                # paths; both kinds support [mask], [i], and .tolist()
                column = block.columns[payload]
                clean = not block.null_mask(payload).any()
            else:
                column = np.empty(len(block), dtype=object)
                column[:] = [payload(row) for row in block.iter_rows()]
                clean = False
            arrays.append((column if rows is None else column[rows], clean))
        return arrays

    # Both partitioners answer with ``(keys, firsts, rows, lows, highs)``:
    # ``rows`` selects the block's surviving rows (None: all, as they
    # are), arranged so that group ``g`` — keys in first-seen order, first
    # seen on row ``firsts[g]`` — owns positions ``lows[g]:highs[g]`` of
    # the selection, in row order.  All but ``keys`` are arrays.

    def _partition(self, block: RowBlock, mask: np.ndarray | None,
                   count: int):
        """``(block, grouped)``: the ``count`` surviving rows of ``(block,
        mask)`` partitioned into groups — by the array partitioner when
        every group key is a typed column and by the exact-object one
        otherwise (computed keys, ``"obj"`` columns); a global aggregate
        is one group.  When every key/argument is a column passthrough a
        deferred mask rides along; otherwise the returned block is the
        selection, taken once, so row evaluators only ever see surviving
        rows."""
        if mask is not None and not self._slot_only:
            block = block.select(mask)
            mask = None
        key_columns = [block.columns[payload] if kind == _SLOT else None
                       for kind, payload in self._group_sources]
        key_arrays = [_key_arrays(column) for column in key_columns]
        if not key_columns:
            first = 0 if mask is None else int(mask.argmax())
            return block, ([()], np.array([first]), mask,
                           np.array([0]), np.array([count]))
        if all(arrays is not None for arrays in key_arrays):
            return block, self._group_typed(
                mask, key_columns, [a for arrays in key_arrays for a in arrays])
        if mask is not None:
            block = block.select(mask)
        return block, self._group_exact(block)

    def _group_typed(self, mask, key_columns, arrays):
        """GROUP BY over typed key columns, without a per-row step: one
        stable argsort of the key arrays brings each group's rows
        together in row order, group boundaries fall where any key array
        changes, and first-seen group order is the order of the groups'
        first rows.  A deferred ``mask`` only narrows the row set:
        rejected rows are never materialized."""
        if mask is not None:
            selected = np.flatnonzero(mask)
            arrays = [a[selected] for a in arrays]
        n = len(arrays[0])
        if not n:
            return ([],) + (np.empty(0, dtype=np.intp),) * 4
        order = _stable_order(arrays)
        changed = np.zeros(n - 1, dtype=bool)
        for a in arrays:
            ordered = a[order]
            changed |= ordered[1:] != ordered[:-1]
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
        rows = order if mask is None else selected[order]
        firsts = rows[starts]             # stable: a group's earliest row
        seen = np.argsort(firsts)         # groups in first-seen order
        firsts = firsts[seen]
        key_lists = [column[firsts].tolist() for column in key_columns]
        # single-column keys stay raw so both partitioners can interleave
        # across blocks without splitting groups
        keys = (key_lists[0] if len(key_lists) == 1
                else list(zip(*key_lists)))
        return (keys, firsts, rows, starts[seen],
                np.concatenate((starts[1:], [n]))[seen])

    def _group_exact(self, block):
        """Exact-object GROUP BY (a computed key, or a key column that is
        not typed: mixed types, NaN, out-of-range ints): per-row dict
        partition under Python equality."""
        key_columns = [_source_values(source, block)
                       for source in self._group_sources]
        keys = (key_columns[0] if len(key_columns) == 1
                else list(zip(*key_columns)))
        partition: dict[Any, list[int]] = {}
        for i, key in enumerate(keys):
            bucket = partition.get(key)
            if bucket is None:
                partition[key] = [i]
            else:
                bucket.append(i)
        sizes = np.fromiter(map(len, partition.values()), dtype=np.intp,
                            count=len(partition))
        highs = np.cumsum(sizes)
        rows = np.fromiter(itertools.chain.from_iterable(partition.values()),
                           dtype=np.intp, count=len(keys))
        firsts = np.array([bucket[0] for bucket in partition.values()],
                          dtype=np.intp)
        return list(partition), firsts, rows, highs - sizes, highs

    def _fold_groups(self, folds: list[_CallFold], groups: int,
                     columns: list, gids: np.ndarray) -> None:
        """The one fold, behind both the streaming sink and the placed
        merge: value ``i`` of every call's column (``columns`` as
        :meth:`_call_arrays` gives them) belongs to group ``gids[i]``, and
        each group's values come in row order.  Calls that fold in arrays
        add in that order (:class:`_CallFold`); the rest get each group's
        values as one row-ordered slice through ``add_values`` — so float
        sums stay left-to-right and DISTINCT keeps first-seen order, as in
        the row engine."""
        exact = []
        for fold, entry in zip(folds, columns):
            fold.grow(groups)
            column, clean = (None, True) if entry is None else entry
            if not fold.fold_arrays(column, clean, gids):
                exact.append((fold.accs, column, clean))
        if not exact:
            return
        if groups == 1:                 # one group: the list is its slice
            for accs, column, clean in exact:
                accs[0].add_values(column.tolist(), clean)
            return
        order = _stable_order([gids])
        sizes = np.bincount(gids, minlength=groups)
        ends = np.cumsum(sizes)
        bounds = list(zip((ends - sizes).tolist(), ends.tolist()))
        for accs, column, clean in exact:
            values = column[order].tolist()
            for acc, (low, high) in zip(accs, bounds):
                acc.add_values(values[low:high], clean)

    # -- worker hooks ------------------------------------------------------
    #
    # A morsel partial (:class:`AggPartial`) is the partition above kept
    # as arrays.  It keeps raw values instead of collapsed totals so the
    # merge can accumulate in global morsel order: float sums and DISTINCT
    # first-seen order come out bit-identical to the serial engines no
    # matter how morsels were distributed across workers.
    #
    # The merge is the same partitioner again.  group_partials lays the
    # partials' representatives end to end, in morsel order, and
    # partitions *that* block: a representative carries its group's key
    # and the partition is stable, so a merged group lists its entries in
    # morsel order and merged groups come out in global first-seen order,
    # the first entry's representative standing for the group as the
    # serial engines' first matching row would.  finish_partials then lays
    # the partials' value columns end to end in morsel order, gives every
    # value its merged group's id, and runs the streaming sink's fold once
    # over the lot: the same values, in the same order per group.  Neither
    # step charges anything: every per-row cost was already charged in a
    # worker (see docs/parallel.md).

    def partial_block(self, block: RowBlock, mask: np.ndarray | None,
                      count: int, clock: SimClock) -> "AggPartial":
        """Thread-local worker hook: partial-aggregate the ``count``
        (>= 1) surviving rows of ``(block, mask)``, charging ``clock`` —
        what the serial :meth:`absorb_carrier` is handed, partitioned by
        the same :meth:`_partition`, so group discovery order within the
        morsel, the representative rows, the typed fast paths and the
        deferred selection are the serial engines' own."""
        clock.advance_batch(CostModel.HASH_BUILD_ROW, count, cat.AGG)
        block, (_, firsts, rows, lows, highs) = self._partition(
            block, mask, count)
        return AggPartial(block.take(firsts), lows, highs - lows, count,
                          self._call_arrays(block, rows))

    def group_partials(self, partials: "list[AggPartial]"
                       ) -> "PartialGroups | None":
        """Serial-lane hook: group the entries of ``partials`` (in morsel
        order) by running the partitioner over their representatives.
        None for an empty list, which is valid: a global aggregate over
        zero rows still yields its default row."""
        if not partials:
            return None
        reps = RowBlock.concat([partial.reps for partial in partials])
        return PartialGroups(partials,
                             *self._partition(reps, None, len(reps)))

    def finish_partials(self, groups: "PartialGroups | None"
                        ) -> RowBlock | None:
        """Serial-lane hook: fold grouped partials and emit the result
        block, or None when there is nothing to emit (grouped query over
        zero rows)."""
        folds = self._new_folds()
        if groups is None:
            return self._result_block(folds, None)
        partials = groups.partials
        # entry e's values sit at entry_low[e] : + lens[e] of the
        # partials' value columns laid end to end
        bases = np.cumsum([0] + [p.rows for p in partials[:-1]])
        entry_low = np.concatenate(
            [p.lows + base for p, base in zip(partials, bases)])
        gids = _segment_ids(entry_low,
                            np.concatenate([p.lens for p in partials]),
                            groups.of_entries())
        columns = [
            None if source is None else
            (concat_columns([p.columns[slot][0] for p in partials]),
             all(p.columns[slot][1] for p in partials))
            for slot, source in enumerate(self._agg_sources)]
        self._fold_groups(folds, len(groups.keys), columns, gids)
        return self._result_block(folds, groups.block.take(groups.firsts))

    # The distributed placement models what a partial would put on the
    # wire as 8 bytes per scalar leaf of the nested form it stands for:
    #   {key: [representative, [("count", n) | ("values", [...], clean)]]}
    # Only it reads PARTITION_MIN_KEYS: partials whose widest morsel stays
    # at or under this many groups are modeled as gathered whole, wider
    # ones as hash-repartitioned by group key first.
    PARTITION_MIN_KEYS = 32

    def entry_units(self, groups: int, rows: int, stamped: bool = False) -> int:
        """Modeled exchange size of ``groups`` partial entries carrying
        ``rows`` rows between them; a shuffled entry is ``stamped`` with
        its position in the morsel."""
        calls = len(self._agg_calls)
        per_group = (max(1, len(self._group_sources))
                     + max(1, len(self._child.layout))
                     + (2 * calls or 1) + stamped)
        return groups * per_group + rows * sum(
            source is not None for source in self._agg_sources)

    def merged_units(self, groups: int) -> int:
        """Modeled exchange size of ``groups`` merged groups: the leaves
        of ``{key: (accumulators, representative, (morsel, position))}``."""
        return groups * (max(1, len(self._group_sources))
                         + max(1, len(self._agg_calls))
                         + max(1, len(self._child.layout)) + 2)

    def _result_block(self, folds: list[_CallFold],
                      reps: RowBlock | None) -> RowBlock | None:
        """The result block of the groups ``folds`` finished, one per row
        of ``reps`` (their representatives; None when no row was seen),
        built by column; rows_out attributed.  None when a grouped query
        saw no rows."""
        if reps is None:
            if self._node.group_by:
                return None
            row = self._result_row(self._new_accs(), ())
            return self._emit_block(RowBlock.from_rows(self.layout, [row]))
        results = [fold.results() for fold in folds]
        per_group = None
        columns = []
        for (kind, payload), evaluate in zip(self._item_columns,
                                             self._item_evals):
            if kind == _AGG:
                columns.append(object_array(results[payload]))
            elif kind == _SLOT:
                columns.append(reps.columns[payload])
            else:
                if per_group is None:
                    per_group = list(zip(
                        reps.to_rows(),
                        zip(*results) if results else itertools.repeat(())))
                columns.append(object_array(
                    [evaluate(row, out) for row, out in per_group]))
        return self._emit_block(RowBlock(self.layout, columns, len(reps)))

    def _result_rows(self, groups: dict) -> Iterator[tuple]:
        """The row engine's result rows, in ``groups``' (first-seen)
        insertion order."""
        if not groups and not self._node.group_by:
            groups[()] = (self._new_accs(), ())
        for accs, representative in groups.values():
            yield self._emit(self._result_row(accs, representative))

    def _result_row(self, accs: list, representative: tuple) -> tuple:
        results = [acc.result() for acc in accs]
        return tuple(item(representative, results)
                     for item in self._item_evals)

    def _item_column(self, expr: ast.Expr) -> tuple[int, int | None]:
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            return _AGG, next(i for i, call in enumerate(self._agg_calls)
                              if call is expr)
        if isinstance(expr, ast.ColumnRef):
            return _SLOT, self._child.layout.resolve(expr.name, expr.table)
        return _EVAL, None

    def _compile_item(self, expr: ast.Expr):
        """One select item as ``fn(representative row, aggregate
        results)``: an aggregate call reads its slot of the results,
        arithmetic over items is NULL-propagating, anything else
        evaluates against the group's representative row."""
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            slot = next(i for i, call in enumerate(self._agg_calls)
                        if call is expr)
            return lambda row, results: results[slot]
        if isinstance(expr, ast.BinaryOp):
            left = self._compile_item(expr.left)
            right = self._compile_item(expr.right)
            op = _ITEM_OPS.get(expr.op)

            def binary(row, results):
                a, b = left(row, results), right(row, results)
                if a is None or b is None or op is None:
                    return None
                return op(a, b)
            return binary
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            operand = self._compile_item(expr.operand)

            def negate(row, results):
                value = operand(row, results)
                return None if value is None else -value
            return negate
        evaluator = compile_expr_cached(expr, self._child.layout)
        return lambda row, results: evaluator(row) if row else None


_ITEM_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": lambda a, b: a / b if b else None}


class _Descending:
    """Inverts the comparison of a wrapped sort key.

    Lets a multi-key composite mix ASC and DESC components in one tuple:
    ``reverse=True`` cannot flip individual keys, and numeric negation
    cannot flip strings.  Only ``__lt__``/``__eq__`` are needed — tuple
    comparison and the k-way merge heap use nothing else."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: "_Descending") -> bool:
        return other.key == self.key


class SortOp(Operator):
    def __init__(self, node: plan.Sort, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._keys = [(compile_expr_cached(k.expr, child.layout),
                       k.descending) for k in node.keys]
        self._key_sources = [(_value_source(k.expr, child.layout),
                              k.descending) for k in node.keys]

    def _composite_key(self, row: tuple) -> tuple:
        """Total-order composite sort key for one row — the row engine's
        sort, and the block engines' exact-object fallback.

        A single stable sort on this tuple is equivalent to the classic
        per-key reversed stable-sort cascade *because* ``_sort_key`` is a
        total order (the NaN bucketing guarantees it); a DESC key flips
        NULLs-first too, exactly as ``reverse=True`` did."""
        return tuple(
            _Descending(_sort_key(evaluator(row))) if descending
            else _sort_key(evaluator(row))
            for evaluator, descending in self._keys)

    @staticmethod
    def _sort_cost(n: int) -> float:
        """Virtual cost of sorting ``n`` rows; zero when there is nothing
        to order (n <= 1), on every path alike."""
        if n <= 1:
            return 0.0
        import math
        return n * math.log2(n) * CostModel.SORT_ROW_LOG

    def __iter__(self) -> Iterator[tuple]:
        rows = list(self._child)
        cost = self._sort_cost(len(rows))
        if cost:
            self._clock.advance(cost, cat.SORT)
        rows.sort(key=self._composite_key)
        for row in rows:
            yield self._emit(row)

    # -- block hooks -------------------------------------------------------
    #
    # One stable argsort over key arrays: each key that is a typed column
    # contributes ``TypedColumn.key_arrays(ordered=True)`` — a NULL flag
    # (if it has NULLs) ahead of the values or dictionary ranks, i.e.
    # ``_sort_key``'s buckets restricted to what one typed column holds —
    # flipped as a whole under DESC, so NULLs lead as ``_Descending``
    # makes them; stability gives the row engine's tie order.  If any key
    # is not a typed column the sort compares ``_composite_key`` tuples.
    #
    # The placed engines sort each block into a *run* on a worker
    # (sort_block) and the runs, concatenated in morsel order, on the
    # serial lane (merge_runs).  Each run pays its own n_i*log2(n_i) and
    # the merge the remainder n*log2(n) - sum(n_i*log2(n_i)) — about
    # n*log2(k), the k-way merge cost — so the total is the serial
    # engines' single charge.

    def _order(self, block: RowBlock) -> np.ndarray:
        """The stable sort permutation of ``block``'s rows."""
        arrays: list[np.ndarray] = []
        for (kind, payload), descending in self._key_sources:
            typed = (_key_arrays(block.columns[payload], ordered=True)
                     if kind == _SLOT else None)
            if typed is None:
                keys = [self._composite_key(row) for row in block.iter_rows()]
                return np.array(sorted(range(len(keys)),
                                       key=keys.__getitem__), dtype=np.intp)
            if descending:
                # -x for floats, ~x (= -x - 1, no overflow) for the rest
                typed = [-a if a.dtype.kind == "f" else ~a for a in typed]
            arrays += typed
        return _stable_order(arrays)

    def sort_block(self, block: RowBlock, clock: SimClock) -> RowBlock:
        """Parallel hook: sort one morsel's rows into a run, charging
        ``clock`` the run's share of the sort cost."""
        cost = self._sort_cost(len(block))
        if cost:
            clock.advance(cost, cat.SORT)
        return block.take(self._order(block))

    def run_units(self, run: RowBlock) -> int:
        """Modeled exchange size of one run: the scalar leaves of the
        ``[(composite key, row), ...]`` list it stands for (an ASC key
        is a two-slot ``_sort_key``, a DESC key one wrapped slot)."""
        return len(run) * (len(run.columns) + sum(
            1 if descending else 2 for _, descending in self._keys))

    def merge_runs(self, runs: list[RowBlock], clock: SimClock,
                   paid: bool = True,
                   top: int | None = None) -> list[RowBlock]:
        """Serial-lane hook: one stable sort over ``runs`` concatenated
        in order, cut into batch-size blocks.  Charges ``clock`` the whole
        sort less what the runs' own sorts ``paid`` (the serial sink's
        unsorted blocks paid nothing).  ``top`` (a LIMIT directly above)
        cuts the permutation before any row is gathered.  Does not touch
        ``rows_out``."""
        cost = self._sort_cost(sum(len(run) for run in runs))
        if paid:
            cost -= sum(self._sort_cost(len(run)) for run in runs)
        if cost > 0:
            clock.advance(cost, cat.SORT)
        if not runs:
            return []
        merged = RowBlock.concat(runs)
        out = merged.take(self._order(merged)[:top])
        return [out.slice(start, start + DEFAULT_BATCH_SIZE)
                for start in range(0, len(out), DEFAULT_BATCH_SIZE)]


def _is_nan(value: Any) -> bool:
    """True for float NaN (the one value that defeats ``==``/``<`` total
    ordering).  The ``isinstance`` guard keeps exotic ``__ne__``
    implementations from being mistaken for NaN."""
    return isinstance(value, float) and value != value


def _sort_key(value: Any) -> tuple:
    """Total-order sort key: numbers, then NaN, then strings, then NULLs.

    NULLs sort last (ascending); mixed types fall back to repr order.  NaN
    gets its own deterministic bucket ``(0.5, "")`` between numbers and
    strings — mirroring the NULLs-last rule — because a raw NaN defeats
    Python's sort comparisons and would make the output input-order-
    dependent (and a k-way run merge non-deterministic)."""
    if value is None:
        return (2, "")
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        if _is_nan(value):
            return (0.5, "")
        return (0, value)
    return (1, str(value))


class LimitOp(Operator):
    def __init__(self, node: plan.Limit, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._limit = node.limit
        self._offset = node.offset
        if node.limit is not None:
            # push the row budget down to the originating scan through
            # row-streaming operators, so the batch engine scans (and
            # charges) the same rows the row engine would: offset + limit
            # produced rows plus the one probe row that triggers the stop
            target = child
            while isinstance(target, (FilterOp, ProjectOp, DistinctOp)):
                target = target._child
            if isinstance(target, (SeqScanOp, IndexScanOp)):
                hint = max(1, node.offset + node.limit + 1)
                target.max_batch_rows = min(target.max_batch_rows, hint)

    def __iter__(self) -> Iterator[tuple]:
        produced = 0
        skipped = 0
        for row in self._child:
            if skipped < self._offset:
                skipped += 1
                continue
            if self._limit is not None and produced >= self._limit:
                return
            produced += 1
            yield self._emit(row)

    # -- fused-pipeline hooks ----------------------------------------------

    def limit_state(self) -> dict:
        """Fresh streaming state for one execution."""
        return {"produced": 0, "skipped": 0}

    def limit_block(self, block: RowBlock,
                    state: dict) -> tuple[RowBlock | None, bool]:
        """Fused stage hook: apply OFFSET/LIMIT to one block.  Returns
        ``(trimmed block or None, done)`` — ``done`` means the limit is
        satisfied and the caller must stop driving the source pipeline
        (the early-exit contract).  Charges nothing, like the row path."""
        if state["skipped"] < self._offset:
            drop = min(len(block), self._offset - state["skipped"])
            state["skipped"] += drop
            block = block.slice(drop, len(block))
            if not block:
                return None, False
        if self._limit is not None:
            remaining = self._limit - state["produced"]
            if remaining <= 0:
                return None, True
            if len(block) > remaining:
                block = block.slice(0, remaining)
        state["produced"] += len(block)
        done = (self._limit is not None
                and state["produced"] >= self._limit)
        return block, done


class DistinctOp(Operator):
    def __init__(self, node: plan.Distinct, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child

    def __iter__(self) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self._child:
            self._clock.advance(CostModel.HASH_BUILD_ROW, cat.DISTINCT)
            if row in seen:
                continue
            seen.add(row)
            yield self._emit(row)

    def distinct_block(self, block: RowBlock, seen: set,
                       clock: SimClock) -> RowBlock | None:
        """Fused stage hook: the streaming DISTINCT step for one block —
        charge ``clock``, keep first-seen rows in order, None when the
        whole block is duplicates.  Order-sensitive (the shared ``seen``
        set), so the parallel engine runs it on the serial lane."""
        clock.advance_batch(CostModel.HASH_BUILD_ROW, len(block), cat.DISTINCT)
        fresh: list[tuple] = []
        for row in block.iter_rows():
            if row not in seen:
                seen.add(row)
                fresh.append(row)
        if not fresh:
            return None
        return RowBlock.from_rows(self.layout, fresh)


class EmptyRowOp(Operator):
    """A single empty row, for table-less SELECTs."""

    def __init__(self, clock: SimClock):
        super().__init__(NO_COLUMNS, clock)

    def __iter__(self) -> Iterator[tuple]:
        yield self._emit(())

    def batches(self) -> Iterator[RowBlock]:
        yield self._emit_block(RowBlock.from_rows(self.layout, [()]))
