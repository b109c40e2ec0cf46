"""Physical operators: the block hooks the compiled pipelines run.

An operator holds one plan node's compiled state; it runs nothing by
itself.  The compiled pipelines of ``repro/exec/pipeline.py`` call its
*block hooks* on :class:`~repro.exec.batch.RowBlock` column batches, with
virtual time charged once per block (``clock.advance_batch(cost, n)``):
``scan_block`` (scan + pushed predicate as a deferred selection),
``filter_mask`` (mask without the select), ``project_block`` (projection
straight off a deferred selection), ``probe_block``, ``cross_block``
(each left block against the nested-loop join's collected right side),
``partial_block``/``fold_partial``/``finish_state`` (aggregate sink),
``merge_runs`` (sort sink), ``limit_block`` (early-exit stage),
``distinct_block`` (order-sensitive stage).  A block hook reads columns
only — ``compile_predicate_batch`` masks and ``compile_values_batch``
columns; only ``distinct_block`` walks rows.  Each charges its per-row
cost times the rows it handled, so a plan's charges do not depend on
how its rows were cut into blocks, with one bounded exception: early
termination (LIMIT) stops on block boundaries, so up to one block of
upstream cost may be charged beyond the rows LIMIT needed.  How big that
block is, the pipeline compiler decides (``repro/exec/pipeline.py``,
``_break_limit``); building an operator tree decides nothing about it.

The contract the hooks keep, whatever the engine (``docs/execution.md``):
rows in scan order through scans, filters and projections; a hash join's
output probe-row-major, equal build keys in build insertion order; a
cross join left-row-major; groups in first-seen order, each group's sums
added left to right in row order, DISTINCT aggregates keeping each
value's first occurrence; a stable sort under ``_sort_key``'s total
order.

The leaves that are not table scans — IndexScan, EmptyRow — hand the
pipeline compiler a ``blocks(clock, batch_rows)`` generator instead: the
*source* of their pipeline, charging the clock it is passed.  The two
scans also hand out their rows one at a time with record ids kept
(``rid_rows()``): the victim stream of UPDATE / DELETE.

The placed engines (``repro/exec/distributed.py``) run
the *worker hooks* as morsel tasks — inline, but re-executed when a
morsel is retried and accounted as if a phase's tasks overlapped: the
stateless block hooks above plus the worker half of each breaker's
``partial``/``merge`` pair (``partial_block`` before ``fold_partial`` on
aggregation; ``build_block`` before ``merge_build`` on hash join;
``sort_block`` before ``merge_runs`` on sort).  The streaming aggregate
sink runs the same two steps per block that the placed engines split
between a task and the serial lane.  Contract for every worker hook: it
charges all of its virtual-time cost to the clock it is *passed* (a
per-task shard), never to ``self._clock``; it never touches
``self.rows_out`` (the driver attributes output counts after
reassembly, so a retried task does not count twice); and running it
again, or in another order, changes nothing, because compiled state
(predicate and value batch evaluators) is effectively read-only after
construction — the one exception is ``BuildTable.buckets()``, a cache
built on first use whose contents do not depend on which task builds
it — and every :class:`RowBlock` is owned by one task at a time.
"""

from __future__ import annotations

from typing import Any, Iterator

import functools
import itertools
import operator

import numpy as np

from repro.common import categories as cat
from repro.common.errors import ExecutionError
from repro.common.simtime import CostModel, SimClock
from repro.exec.batch import RowBlock, selection
from repro.exec.expr import (
    NO_COLUMNS,
    RowLayout,
    compile_expr_cached,
    compile_predicate_batch,
    compile_values_batch,
    expr_type,
    output_layout,
    split_aggregates,
    to_bool,
)
from repro.plan import logical as plan
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.types import DataType, TypedColumn


def _compiled(exprs, layout: RowLayout) -> list:
    """``exprs`` (None stays None) as column functions."""
    return [None if e is None else compile_values_batch(e, layout)
            for e in exprs]


def _computed(exprs) -> bool:
    """Whether any of ``exprs`` computes a value: a hook that does takes a
    deferred selection first, so computed values see surviving rows only."""
    return any(not isinstance(e, (ast.ColumnRef, ast.Star, type(None)))
               for e in exprs)


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
    """Wrap a scan's ``rid_rows`` so that, when a tracer is attached to
    the operator's clock, every ``next()`` — and every charge made while
    producing the item, including buffer-pool page charges — attributes
    to this operator's span.
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
    """Base operator: a layout, and the block hooks the subclass
    defines."""

    def __init__(self, layout: RowLayout, clock: SimClock):
        self.layout = layout
        self._clock = clock
        self.rows_out = 0
        # the plan node this operator was built from (span labels,
        # EXPLAIN ANALYZE, exchange records).  None for the synthetic
        # EmptyRow.
        self.plan_node: plan.PlanNode | None = None

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
        if node.predicate is not None:
            self._predicate = compile_expr_cached(node.predicate, layout)
            self._predicate_batch = compile_predicate_batch(node.predicate,
                                                            layout)
        else:
            self._predicate = None
            self._predicate_batch = None

    @_traced_generator
    def rid_rows(self) -> Iterator[tuple]:
        """``(rid, row)`` of every row the scan keeps: UPDATE / DELETE's
        victim stream.  A SELECT's charges, made once per scan, not once
        per row: two clock calls a row would double an unindexed
        UPDATE."""
        predicate = self._predicate
        examined = 0
        try:
            for item in self._table.scan(self._clock):
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
        predicate) and return ``(block, rows)`` with the selection
        *deferred* as row indices — downstream fused stages gather only
        the columns they actually touch.  ``rows`` is None when every row
        survives; the result is None when every row is rejected."""
        n = len(block)
        if self._predicate_batch is None:
            clock.advance_batch(CostModel.TUPLE_CPU, n, cat.SCAN)
            return block, None
        clock.advance_charges(((CostModel.TUPLE_CPU, n, cat.SCAN),
                               (CostModel.EVAL_PREDICATE, n, cat.FILTER)))
        mask = self._predicate_batch(block)
        if not mask.any():
            return None
        return block, selection(mask)


class IndexScanOp(Operator):
    def __init__(self, node: plan.IndexScan, catalog: Catalog,
                 clock: SimClock):
        table = catalog.table(node.table)
        layout = RowLayout.of_table(node.binding, table.schema)
        super().__init__(layout, clock)
        self.plan_node = node
        self._table = table
        self._node = node
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

    def _fetch(self, clock: SimClock) -> Iterator[tuple]:
        """``(rid, row)`` of every live row the index names; the heap
        charges its page touches to ``clock``, nothing else is charged."""
        node = self._node
        if node.eq is not None:
            rids = self._index.search(node.eq)
        elif self._kind != "btree":
            raise ExecutionError("range scan requires a btree index")
        else:
            rids = (rid for _, rid in self._index.range_scan(
                node.low, node.high, node.include_low, node.include_high))
        for rid in rids:
            row = self._table.read(rid, clock)
            if row is not None:
                yield rid, row

    @_traced_generator
    def rid_rows(self) -> Iterator[tuple]:
        """``(rid, row)`` of every row the scan keeps, charged row by row:
        UPDATE / DELETE address their victims by record id."""
        self._clock.advance(CostModel.INDEX_DESCENT, cat.INDEX)
        for item in self._fetch(self._clock):
            self._clock.advance(CostModel.TUPLE_CPU, cat.INDEX)
            if self._residual is not None:
                self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
                if not to_bool(self._residual(item[1])):
                    continue
            self.rows_out += 1
            yield item

    def blocks(self, clock: SimClock, batch_rows: int) -> Iterator[RowBlock]:
        """The pipeline source: the fetched rows in blocks of at most
        ``batch_rows``, charging ``clock``."""
        clock.advance(CostModel.INDEX_DESCENT, cat.INDEX)
        rows = map(operator.itemgetter(1), self._fetch(clock))
        while buffer := list(itertools.islice(rows, batch_rows)):
            block = self._filtered_block(buffer, clock)
            if block:
                yield self._emit_block(block)

    def _filtered_block(self, rows: list[tuple],
                        clock: SimClock) -> RowBlock:
        n = len(rows)
        clock.advance_batch(CostModel.TUPLE_CPU, n, cat.INDEX)
        block = RowBlock.from_rows(self.layout, rows)
        if self._residual_batch is not None:
            clock.advance_batch(CostModel.EVAL_PREDICATE, n, cat.FILTER)
            block = block.select(self._residual_batch(block))
        return block


class FilterOp(Operator):
    def __init__(self, node: plan.Filter, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._predicate_batch = compile_predicate_batch(node.predicate,
                                                        child.layout)

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
        values = []
        for item in node.items:
            if isinstance(item.expr, ast.Star):
                for slot_idx, (binding, _) in enumerate(child.layout.slots):
                    if item.expr.table and binding != item.expr.table.lower():
                        continue
                    values.append(
                        lambda block, j=slot_idx: block.columns[j])
                continue
            values.append(compile_values_batch(item.expr, child.layout))
        super().__init__(output_layout(node.items, child.layout), clock)
        self.plan_node = node
        self._child = child
        self._values = values
        self._computed = _computed(item.expr for item in node.items)

    def project_block(self, block: RowBlock, rows: np.ndarray | None,
                      count: int, clock: SimClock) -> RowBlock:
        """Fused hook: project one block whose selection may still be
        deferred as row indices ``rows`` (``count`` = surviving rows, what
        the charge and the output length must reflect).  A projection of
        columns only gathers ``rows`` per projected column — unprojected
        columns are never copied; one that computes a value takes the
        selection first."""
        clock.advance_batch(CostModel.TUPLE_CPU, count, cat.PROJECT)
        if rows is not None and self._computed:
            block, rows = block.take(rows), None
        columns = [values(block) for values in self._values]
        if rows is not None:
            columns = [column[rows] for column in columns]
        return RowBlock(self.layout, columns, count)


class NestedLoopJoinOp(Operator):
    # cap on the candidate pairs built (and condition-tested) at once
    _PAIR_CHUNK = 8192

    def __init__(self, node: plan.NestedLoopJoin, left: Operator,
                 right: Operator, clock: SimClock):
        layout = left.layout.concat(right.layout)
        super().__init__(layout, clock)
        self.plan_node = node
        self._left = left
        self._right = right
        self._condition_batch = (
            None if node.condition is None
            else compile_predicate_batch(node.condition, layout))

    def cross_block(self, block: RowBlock, right: RowBlock,
                    clock: SimClock) -> Iterator[RowBlock]:
        """Worker hook: every pair of one left block's rows with the
        whole right side (``right``, collected before the left side
        runs), left rows outer and the condition applied, charging
        ``clock``.  Yields the surviving pairs chunk by chunk, each
        built from at most ``_PAIR_CHUNK`` pairs (or one left row's),
        so no block grows with the cross product and a consumer that
        stops pulling leaves the rest unbuilt and uncharged."""
        m = len(right)
        if m == 0:
            return
        condition = self._condition_batch
        rows_per_chunk = max(1, self._PAIR_CHUNK // m)
        for start in range(0, len(block), rows_per_chunk):
            stop = min(start + rows_per_chunk, len(block))
            pairs = (stop - start) * m
            clock.advance_batch(CostModel.TUPLE_CPU, pairs, cat.JOIN)
            # pair i is left row start + i // m beside right row i % m
            lefts = np.repeat(np.arange(start, stop), m)
            rights = np.tile(np.arange(m), stop - start)
            out = RowBlock(self.layout,
                           [c[lefts] for c in block.columns]
                           + [c[rights] for c in right.columns], pairs)
            if condition is not None:
                clock.advance_batch(CostModel.EVAL_PREDICATE, pairs,
                                    cat.JOIN)
                out = out.select(condition(out))
            if out:
                yield out


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
        self._residual_batch = (
            None if node.residual is None
            else compile_predicate_batch(node.residual, layout))

    @staticmethod
    def _spill(build_rows: int, clock: SimClock) -> float:
        """Charge the hybrid-hash spill surcharge to ``clock``; returns the
        probe-side cost factor."""
        spilled = build_rows > CostModel.HASH_SPILL_ROWS
        if spilled:
            # hybrid hash join ran out of work_mem: repartition the build
            # side to disk; every probe re-reads its partition
            clock.advance(build_rows * CostModel.HASH_BUILD_ROW
                          * (CostModel.HASH_SPILL_FACTOR - 1), cat.SPILL)
        return CostModel.HASH_SPILL_FACTOR / 2 if spilled else 1.0

    def build_block(self, block: RowBlock, clock: SimClock
                    ) -> tuple[int, RowBlock, TypedColumn]:
        """Build-side parallel hook: ``(row_count, rows, keys)`` for one
        block — its rows with a non-NULL key, still columnar, beside
        their key column — charging ``clock``.  ``row_count`` is the
        *input* count (NULL keys included) so the spill decision sees
        the same build size as the serial engines."""
        n = len(block)
        clock.advance_batch(CostModel.HASH_BUILD_ROW, n, cat.JOIN)
        null = block.null_mask(self._left_slot)
        if null.any():
            block = block.select(~null)
        return n, block, block.columns[self._left_slot]

    def part_units(self, part: tuple) -> int:
        """Modeled exchange size of one build part: the scalar leaves of
        the ``(row_count, [(key, row), ...])`` it stands for."""
        return 1 + (len(part[1]) * (1 + len(self._left.layout)) or 1)

    def merge_build(self, parts: list[tuple], clock: SimClock) -> BuildTable:
        """Concatenate per-block build parts — in block order, so equal
        keys list their build rows in insertion order — and charge any
        spill surcharge to ``clock``."""
        build_rows = sum(part[0] for part in parts)
        parts = [part for part in parts if len(part[1])]
        block = keys = None
        if parts:
            block = RowBlock.concat([part[1] for part in parts])
            keys = TypedColumn.concat([part[2] for part in parts])
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
    the same representation.  ``"obj"`` keys, and probe columns of another
    representation (``"obj"`` values, text against numbers, ints against
    floats), go through ``buckets()``, built on first use."""

    def __init__(self, block: RowBlock | None, key_column, rows: int,
                 probe_factor: float):
        self.block = block            # None when no build row has a key
        self.rows = rows
        self.probe_factor = probe_factor
        self._key_column = key_column
        self._buckets: dict[Any, list[int]] | None = None
        self.keys = self.order = None
        arrays = None if block is None else key_column.key_arrays()
        if arrays is not None:
            data = arrays[-1]         # keys are NULL-free: the value array
            if data.dtype == bool:
                data = data.astype(np.int64)
            self.order = _stable_order([data])
            self.keys = data[self.order]

    def buckets(self) -> dict[Any, list[int]]:
        """Block row indices per key, in insertion order."""
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
        build-insertion-minor — the join's output order — or None when
        nothing matches."""
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
        if self.keys is None:
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
    """One aggregate call's state for one group, in a batch sink, for a
    call that does not fold in arrays (see :class:`_CallFold`)."""

    def __init__(self, func: ast.FuncCall):
        self.name = func.name
        self._seen: set | None = set() if func.distinct else None
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None

    def add_values(self, values: list, clean: bool = False) -> None:
        """Accumulate one group's argument values, in row order: NULLs
        skipped, DISTINCT keeping each value's first occurrence, sums
        added left to right.  ``clean`` promises the caller already knows
        no NULLs are present (e.g. from the block's null mask), skipping
        the filter pass."""
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
            # a left fold seeded with the running total adds left to
            # right (builtin sum does not: from Python 3.12 it
            # compensates float rounding)
            if self.total is None:
                self.total = functools.reduce(operator.add, live[1:], live[0])
            else:
                self.total = functools.reduce(operator.add, live, self.total)
        elif name == "min":
            # builtin min / max fold left to right with Python's ``<`` /
            # ``>``; seeded with the running extreme the fold does not
            # restart at a block boundary (NaN compares false both ways,
            # so a per-block min would depend on the blocks)
            self.minimum = min(live) if self.minimum is None \
                else min(itertools.chain((self.minimum,), live))
        elif name == "max":
            self.maximum = max(live) if self.maximum is None \
                else max(itertools.chain((self.maximum,), live))

    def result(self) -> Any:
        if self.name == "count":
            return self.count
        if self.name == "sum":
            # the sum of one BOOL is an int, as the sum of two is
            return int(self.total) if type(self.total) is bool else self.total
        if self.name == "avg":
            return self.total / self.count if self.count else None
        if self.name == "min":
            return self.minimum
        return self.maximum                 # max: the call was typed


# The column kind a sum / avg folds in arrays, by argument type, and what
# its totals start from: -0.0 + x is x bit for bit, -0.0 itself included,
# so a seeded total is the group's first value, then the adds
_TOTALS = {DataType.INT: ("i8", 0), DataType.FLOAT: ("f8", -0.0)}


class _CallFold:
    """One aggregate call's state in a batch sink, for groups numbered
    densely in first-seen order.

    ``count`` and non-DISTINCT ``sum`` / ``avg`` of an INT or FLOAT column
    keep a count array and, for the last two, a total array: ``np.add.at``
    adds in index order, so each group's total is its left-to-right sum.  A ``sum`` / ``avg`` folds a batch in arrays only
    while its column is of the totals' kind (not ``"obj"``)
    and, for int64, while a running bound proves no total overflows; the
    first batch that fails turns the totals into per-group
    :class:`_Accumulator` s for good — exactly, since the array totals are
    the Python totals.  Everything else keeps accumulators from the
    start."""

    __slots__ = ("name", "_call", "_kind", "_seed", "counts", "totals",
                 "_bound", "accs")

    def __init__(self, call: ast.FuncCall, counts_rows: bool,
                 dtype: DataType | None):
        self.name = call.name
        self._call = call
        self._kind, self._seed = (_TOTALS.get(dtype, (None, None))
                                  if self.name in ("sum", "avg")
                                  else (None, None))
        self.counts = np.zeros(0, dtype=np.int64)
        self.totals = np.full(0, self._seed)
        self._bound = 0                 # >= every |int64 total|, so far
        # COUNT(*) counts rows, DISTINCT or not
        arrays = counts_rows or not call.distinct and (
            self.name == "count" or self._kind)
        self.accs: list[_Accumulator] | None = None if arrays else []

    def grow(self, groups: int) -> None:
        """Open groups up to id ``groups - 1``."""
        if self.accs is not None:
            self.accs += [_Accumulator(self._call)
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
            live = ~column.null_mask()
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
        if column.kind != self._kind:
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
            acc = _Accumulator(self._call)
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
    """One block's aggregation, kept columnar: one entry per group of
    the block, in first-seen order.  ``keys`` are the groups' keys, and
    rows ``firsts`` of ``block`` their representative (first) rows, taken
    only for the groups a fold has not seen; entry ``g`` owns positions
    ``lows[g] : lows[g] + lens[g]`` of every value column; ``columns``
    has, per aggregate call, None for COUNT(*) or ``(values, clean)`` —
    the argument column arranged by the partition, still a TypedColumn
    of its kind, and whether it is provably NULL-free.  ``rows`` is
    the block's surviving row count, ``len()`` the entry count."""

    __slots__ = ("keys", "block", "firsts", "lows", "lens", "rows",
                 "columns")

    def __init__(self, keys: list, block: RowBlock, firsts: np.ndarray,
                 lows: np.ndarray, lens: np.ndarray, rows: int,
                 columns: list):
        self.keys = keys
        self.block = block
        self.firsts = firsts
        self.lows = lows
        self.lens = lens
        self.rows = rows
        self.columns = columns

    def __len__(self) -> int:
        return len(self.firsts)


class AggState:
    """An aggregation so far, folded from partials in hand-over order:
    ``index`` numbers the group keys in first-seen order, ``reps`` holds
    the groups' representative (first) rows as blocks in that order, and
    ``folds`` one :class:`_CallFold` per aggregate call."""

    __slots__ = ("index", "reps", "folds")

    def __init__(self, folds: list[_CallFold]):
        self.index: dict[Any, int] = {}
        self.reps: list[RowBlock] = []
        self.folds = folds


class AggregateOp(Operator):
    """Hash aggregation with optional GROUP BY.

    Select items may mix group-by expressions and aggregate calls: each
    item is rewritten (:func:`~repro.exec.expr.split_aggregates`) into an
    expression over the group's representative row followed by one slot
    per aggregate call, and evaluates as any other expression does.
    """

    def __init__(self, node: plan.Aggregate, child: Operator,
                 clock: SimClock):
        super().__init__(output_layout(node.items, child.layout), clock)
        self.plan_node = node
        self._child = child
        self._node = node
        layout = child.layout
        self._agg_calls, items, self._results = split_aggregates(node.items,
                                                                 layout)
        # COUNT(*)'s argument is None
        args = [None if not call.args or isinstance(call.args[0], ast.Star)
                else call.args[0] for call in self._agg_calls]
        self._key_values = _compiled(node.group_by, layout)
        self._arg_values = _compiled(args, layout)
        self._arg_types = [None if arg is None else expr_type(arg, layout)
                           for arg in args]
        self._item_values = _compiled(items, self._results)
        self._computed = _computed((*node.group_by, *args))

    # -- sink hooks --------------------------------------------------------

    def _new_folds(self) -> list[_CallFold]:
        return [_CallFold(call, values is None, dtype)
                for call, values, dtype in zip(
                    self._agg_calls, self._arg_values, self._arg_types)]

    def new_state(self) -> AggState:
        """Fresh state, for :meth:`fold_partial` to fold partials into."""
        return AggState(self._new_folds())

    def finish_state(self, state: AggState) -> RowBlock | None:
        """Sink hook: emit the result block (rows_out attributed), or
        None when a grouped query saw no rows."""
        return self._result_block(
            state.folds, RowBlock.concat(state.reps) if state.reps else None)

    def _call_arrays(self, block: RowBlock, rows: np.ndarray | None = None):
        """(values column, clean) per aggregate call, arranged by the
        partition's ``rows`` when given; None for COUNT(*)."""
        arrays: list[tuple[TypedColumn, bool] | None] = []
        for values in self._arg_values:
            if values is None:
                arrays.append(None)
                continue
            column = values(block)
            arrays.append((column if rows is None else column[rows],
                           not column.null_mask().any()))
        return arrays

    # Both partitioners answer with ``(keys, firsts, rows, lows, highs)``:
    # ``rows`` selects the block's surviving rows (None: all, as they
    # are), arranged so that group ``g`` — keys in first-seen order, first
    # seen on row ``firsts[g]`` — owns positions ``lows[g]:highs[g]`` of
    # the selection, in row order.  All but ``keys`` are arrays.

    def _partition(self, block: RowBlock, rows: np.ndarray | None,
                   count: int):
        """``(block, grouped)``: the ``count`` surviving rows of ``(block,
        rows)`` partitioned into groups — by the array partitioner when
        every group key column is typed and by the exact-object one
        otherwise (``"obj"`` columns); a global aggregate is one group.
        When every key and argument is a column a deferred selection
        rides along; otherwise the returned block is the selection, taken
        once, first."""
        if rows is not None and self._computed:
            block, rows = block.take(rows), None
        key_columns = [values(block) for values in self._key_values]
        if not key_columns:
            first = 0 if rows is None else int(rows[0])
            return block, ([()], np.array([first]), rows,
                           np.array([0]), np.array([count]))
        key_arrays = [column.key_arrays() for column in key_columns]
        if all(arrays is not None for arrays in key_arrays):
            return block, self._group_typed(
                rows, key_columns, [a for arrays in key_arrays for a in arrays])
        if rows is not None:
            block = block.take(rows)
            key_columns = [column[rows] for column in key_columns]
        return block, self._group_exact(key_columns)

    def _group_typed(self, selected, key_columns, arrays):
        """GROUP BY over typed key columns, without a per-row step: one
        stable argsort of the key arrays brings each group's rows
        together in row order, group boundaries fall where any key array
        changes, and first-seen group order is the order of the groups'
        first rows.  A deferred selection (``selected`` row indices) only
        narrows the row set: rejected rows are never materialized."""
        if selected is not None:
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
        rows = order if selected is None else selected[order]
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

    def _group_exact(self, key_columns: list[TypedColumn]):
        """Exact-object GROUP BY (a key column that is not typed: mixed
        types, NaN, out-of-range ints): per-row dict partition of the
        key columns' values under Python equality."""
        values = [column.tolist() for column in key_columns]
        keys = values[0] if len(values) == 1 else list(zip(*values))
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
        """The fold under :meth:`fold_partial`: value ``i`` of every
        call's column (``columns`` as :meth:`_call_arrays` gives them)
        belongs to group ``gids[i]``, and
        each group's values come in row order.  Calls that fold in arrays
        add in that order (:class:`_CallFold`); the rest get each group's
        values as one row-ordered slice through ``add_values`` — so float
        sums stay left-to-right and DISTINCT keeps first-seen order."""
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

    # -- the breaker's two steps -------------------------------------------
    #
    # Every engine aggregates a block in two steps: partial_block
    # partitions it into an AggPartial, and fold_partial folds that into
    # an AggState.  The streaming sink runs both per block.  The placed
    # engines run partial_block per morsel as a task and fold_partial on
    # the serial lane, in morsel order.  A partial keeps raw values, not
    # collapsed totals, so folding in hand-over order gives the serial
    # engines' float sums, DISTINCT first-seen order and first-seen group
    # order bit for bit, whatever worker ran which morsel.  Only
    # partial_block charges: every per-row cost is paid there, in a task
    # on the placed engines (see docs/parallel.md).

    def partial_block(self, block: RowBlock, rows: np.ndarray | None,
                      count: int, clock: SimClock) -> AggPartial:
        """Worker hook: partial-aggregate the ``count`` (>= 1) surviving
        rows of ``(block, rows)`` (deferred row indices, None for all),
        charging ``clock``; the selection is materialized only for a
        computed key or argument."""
        clock.advance_batch(CostModel.HASH_BUILD_ROW, count, cat.AGG)
        block, (keys, firsts, rows, lows, highs) = self._partition(
            block, rows, count)
        return AggPartial(keys, block, firsts, lows, highs - lows, count,
                          self._call_arrays(block, rows))

    def fold_partial(self, state: AggState, partial: AggPartial
                     ) -> np.ndarray:
        """Fold one partial into ``state`` — keys not seen before get the
        next group ids and keep their representative rows — and return
        each entry's group id.  Charges nothing."""
        index, keys = state.index, partial.keys
        ids = list(map(index.get, keys))
        if None in ids:
            fresh = [g for g, gid in enumerate(ids) if gid is None]
            for gid, g in enumerate(fresh, len(index)):
                index[keys[g]] = ids[g] = gid
            state.reps.append(partial.block.take(partial.firsts[fresh]))
        ids = np.array(ids, dtype=np.intp)
        self._fold_groups(state.folds, len(index), partial.columns,
                          _segment_ids(partial.lows, partial.lens, ids))
        return ids

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
        per_group = (max(1, len(self._key_values))
                     + max(1, len(self._child.layout))
                     + (2 * calls or 1) + stamped)
        return groups * per_group + rows * sum(
            values is not None for values in self._arg_values)

    def merged_units(self, groups: int) -> int:
        """Modeled exchange size of ``groups`` merged groups: the leaves
        of ``{key: (accumulators, representative, (morsel, position))}``."""
        return groups * (max(1, len(self._key_values))
                         + max(1, len(self._agg_calls))
                         + max(1, len(self._child.layout)) + 2)

    def _result_block(self, folds: list[_CallFold],
                      reps: RowBlock | None) -> RowBlock | None:
        """The result block of the groups ``folds`` finished, one per row
        of ``reps`` (their representatives; None when no row was seen),
        built by column; rows_out attributed.  None when a grouped query
        saw no rows; a global aggregate over no rows is one group whose
        representative is all NULL (its literals still evaluate) and
        whose folds saw nothing."""
        if reps is None:
            if self._node.group_by:
                return None
            reps = RowBlock.from_rows(
                self._child.layout, [(None,) * len(self._child.layout)])
            folds = self._new_folds()
            for fold in folds:
                fold.grow(1)
        results = [TypedColumn.from_objects(fold.results()) for fold in folds]
        block = RowBlock(self._results, reps.columns + results, len(reps))
        return self._emit_block(RowBlock(
            self.layout, [values(block) for values in self._item_values],
            len(reps)))


class SortOp(Operator):
    def __init__(self, node: plan.Sort, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._key_values = [(compile_values_batch(k.expr, child.layout),
                             k.descending) for k in node.keys]

    @staticmethod
    def _sort_cost(n: int) -> float:
        """Virtual cost of sorting ``n`` rows; zero when there is nothing
        to order (n <= 1), on every path alike."""
        if n <= 1:
            return 0.0
        import math
        return n * math.log2(n) * CostModel.SORT_ROW_LOG

    # -- block hooks -------------------------------------------------------
    #
    # One stable argsort over key arrays: each key that is a typed column
    # contributes ``TypedColumn.key_arrays(ordered=True)`` — a NULL flag
    # (if it has NULLs) ahead of the values or dictionary ranks, i.e.
    # ``_sort_key``'s buckets restricted to what one typed column holds —
    # flipped as a whole under DESC, so NULLs lead a descending key;
    # stability keeps ties in input order.  A key column that is not
    # typed contributes its values' dense ranks under ``_sort_key``
    # (``_ranks``), the same total order.
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
        for values, descending in self._key_values:
            column = values(block)
            typed = (column.key_arrays(ordered=True)
                     or [_ranks(column.tolist())])
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
            1 if descending else 2 for _, descending in self._key_values))

    def merge_runs(self, runs: list[RowBlock], clock: SimClock,
                   paid: bool = True,
                   top: int | None = None) -> RowBlock | None:
        """Serial-lane hook: one stable sort over ``runs`` concatenated
        in order, as one block (None for no rows): only a LIMIT or the
        result reads a sort's output.  Charges ``clock`` the whole sort
        less what the runs' own sorts ``paid`` (the serial sink's
        unsorted blocks paid nothing).  ``top`` (a LIMIT directly above)
        cuts the permutation before any row is gathered.  Does not touch
        ``rows_out``."""
        cost = self._sort_cost(sum(len(run) for run in runs))
        if paid:
            cost -= sum(self._sort_cost(len(run)) for run in runs)
        if cost > 0:
            clock.advance(cost, cat.SORT)
        if not runs:
            return None
        merged = RowBlock.concat(runs)
        out = merged.take(self._order(merged)[:top])
        return out if len(out) else None


def _ranks(values: list) -> np.ndarray:
    """Dense ranks of ``values`` in ``_sort_key``'s total order: equal
    keys share a rank."""
    keys = list(map(_sort_key, values))
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.intp)


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
        if value != value:                  # NaN
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

    # -- fused-pipeline hooks ----------------------------------------------

    def limit_state(self) -> dict:
        """Fresh streaming state for one execution."""
        return {"produced": 0, "skipped": 0}

    def limit_block(self, block: RowBlock,
                    state: dict) -> tuple[RowBlock | None, bool]:
        """Fused stage hook: apply OFFSET/LIMIT to one block.  Returns
        ``(trimmed block or None, done)`` — ``done`` means the limit is
        satisfied and the caller must stop driving the source pipeline
        (the early-exit contract).  Charges nothing."""
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

    def blocks(self, clock: SimClock, batch_rows: int) -> Iterator[RowBlock]:
        """The pipeline source: the one row as a block (no charges)."""
        yield self._emit_block(RowBlock.from_rows(self.layout, [()]))
