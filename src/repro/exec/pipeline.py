"""Fused pipeline execution: plans compiled into pipelines of streaming
stages, split at pipeline breakers — and the code that interprets a
compiled program, written once for every batch-family engine.

* :func:`compile_pipelines` walks an operator tree (consulting the
  ``STREAMING``/``BREAKER`` annotations on the plan nodes the operators
  were built from, see ``repro/plan/logical.py``) and produces a
  :class:`PipelineProgram`: a DAG of :class:`Pipeline` objects split at
  breakers (aggregate, sort, hash-join build, nested-loop join), each a
  *source* (scan, breaker output, or serial operator) plus a chain of
  fused :class:`PipelineStage` steps (filter, project, hash-join probe,
  distinct, limit) ending in a :class:`PipelineSink` (or the program
  output).
* Within a pipeline, one :class:`BlockCarrier` flows per source block
  through every stage with **zero intermediate materialization**: a
  filter (or a scan's pushed-down predicate) evaluates its mask against
  the scan block's columns directly, turns it once into the survivors'
  row indices and *defers* the selection on the carrier; a downstream
  projection gathers only the columns it actually projects.
* :class:`BlockPass` is the one per-block pass (source count -> stages
  -> counts, under the operators' spans when a tracer is attached).
  The streaming driver runs it per source block; every placed task runs
  it per morsel.
* :func:`run_program` is the streaming driver: the batch engine's drive
  loop, and the serial lane of the placed engines for LIMIT plans.
* :class:`~repro.exec.distributed.DistributedScheduler` is the placed
  engines' phased walk over the same program (inputs -> one task per
  morsel through the parallel-safe stage prefix -> serial tail -> sink
  fold), every task one :meth:`BlockPass.task`.  The AI loader's PREDICT
  materialization feeds from :func:`table_blocks`, the scan-block
  primitive.

Charge parity
-------------
Every stage charges the clock it is handed exactly what the row
operator charges for the same rows, in the same order (see
``SimClock.advance_charges``): scan ``TUPLE_CPU`` + pushed-predicate
``EVAL_PREDICATE`` per scanned row, filter ``EVAL_PREDICATE`` per input
row, project ``TUPLE_CPU`` per *surviving* row, probe per the hash-join
hooks.  Deferring a selection never changes a charge because charges are
keyed to row counts, not to copies.  The parity suite
(`tests/test_batch_parity.py`, `tests/test_pipeline.py`) holds the row
engine and every driver of this module to identical rows and charged
totals.

LIMIT early exit
----------------
A satisfied :class:`LimitStage` reports ``done`` and the streaming
driver stops pulling the source pipeline — the contract that lets a
LIMIT above a join probe stop the probe-side scan mid-table.  Placed
engines run LIMIT plans through the same streaming driver on their
serial lane: eager morsel dispatch would scan (and charge) rows the
serial engines never touch.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.batch import RowBlock, selection
from repro.exec.expr import RowLayout


def table_blocks(table, layout: RowLayout, batch_size: int,
                 start_page: int = 0) -> Iterator[RowBlock]:
    """Stream a heap table as :class:`RowBlock`\\ s — the shared scan
    primitive under pipeline sources and the AI loader's PREDICT
    materialization.  Charges nothing; buffer-pool accounting happens
    inside the storage scan, per page, exactly as ``scan()`` would.
    ``start_page`` skips earlier pages entirely (tail scans)."""
    for columns, n in table.scan_column_batches(batch_size, start_page):
        yield RowBlock(layout, columns, n)


class BlockSource(ops.Operator):
    """Stands in for ``child`` under a serially-executed operator
    (NestedLoopJoin, ...), replaying the blocks of the pipeline compiled
    from it — a pre-computed list, or a lazy generator that produces them
    on demand (single use).  Charges nothing and counts nothing itself:
    the blocks' producers charge their cost and attribute their row
    counts as the blocks are produced.  The replaced operator stays
    reachable as ``_child``, so tree walkers (EXPLAIN ANALYZE's
    annotation pass) still find the subtree.
    """

    def __init__(self, child: ops.Operator, blocks, clock: SimClock):
        super().__init__(child.layout, clock)
        self._child = child
        self._blocks = blocks

    def batches(self):
        yield from self._blocks


class BlockCarrier:
    """One block flowing through a pipeline, its selection possibly
    deferred: ``rows`` (when set) are the ascending indices of the
    surviving rows of ``block``, not yet gathered.  Stages that work off
    the indices (projection, aggregate partials) gather only the columns
    they read; :meth:`materialize` gathers at most once per pass."""

    __slots__ = ("block", "rows")

    def __init__(self, block: RowBlock, rows: np.ndarray | None = None):
        self.block = block
        self.rows = rows

    @property
    def count(self) -> int:
        """Surviving row count (without materializing)."""
        return len(self.block) if self.rows is None else len(self.rows)

    def materialize(self) -> RowBlock:
        """Gather any deferred selection (once); the concrete block."""
        if self.rows is not None:
            self.block = self.block.take(self.rows)
            self.rows = None
        return self.block


# -- stages -------------------------------------------------------------------


class PipelineStage:
    """One fused streaming step: carrier in, carrier (or None) out.

    ``parallel_safe`` stages are stateless after construction and may run
    concurrently on morsel workers (the worker-hook contract in
    ``repro/exec/operators.py``); unsafe ones carry order-sensitive state
    (Distinct's seen set, Limit's counters) and run serially.  Stages
    never touch ``rows_out`` — the driver attributes counts.
    """

    parallel_safe = True

    def __init__(self, op: ops.Operator):
        self.op = op

    def apply(self, carrier: BlockCarrier,
              clock: SimClock) -> BlockCarrier | None:
        raise NotImplementedError


class FilterStage(PipelineStage):
    """Evaluates the predicate mask against the (materialized) input
    block and defers the selection on the carrier as row indices."""

    def apply(self, carrier, clock):
        block = carrier.materialize()
        mask = self.op.filter_mask(block, clock)
        if mask is None:
            return None
        return BlockCarrier(block, selection(mask))


class ProjectStage(PipelineStage):
    """Projects straight off the carrier: a deferred selection is
    gathered only from the columns the projection actually outputs."""

    def apply(self, carrier, clock):
        out = self.op.project_block(carrier.block, carrier.rows,
                                    carrier.count, clock)
        return BlockCarrier(out)


class ProbeStage(PipelineStage):
    """Hash-join probe against a :class:`BuildSink`'s finished build
    table (read-only by the time any probe runs)."""

    def __init__(self, op: ops.HashJoinOp, build: "BuildSink"):
        super().__init__(op)
        self.build = build

    def apply(self, carrier, clock):
        out = self.op.probe_block(carrier.materialize(), self.build.table,
                                  clock)
        return BlockCarrier(out) if out is not None else None


class DistinctStage(PipelineStage):
    """Streaming DISTINCT: order-sensitive shared state, serial only."""

    parallel_safe = False

    def __init__(self, op: ops.DistinctOp):
        super().__init__(op)
        self._seen: set = set()

    def apply(self, carrier, clock):
        out = self.op.distinct_block(carrier.materialize(), self._seen,
                                     clock)
        return BlockCarrier(out) if out is not None else None


class LimitStage(PipelineStage):
    """OFFSET/LIMIT as the pipeline-terminating early-exit stage: once
    ``done`` is set the driver stops pulling the source pipeline instead
    of scanning the rest of the table."""

    parallel_safe = False

    def __init__(self, op: ops.LimitOp):
        super().__init__(op)
        self._state = op.limit_state()
        self.done = False

    def apply(self, carrier, clock):
        out, self.done = self.op.limit_block(carrier.materialize(),
                                             self._state)
        return BlockCarrier(out) if out is not None else None


# -- sinks --------------------------------------------------------------------


class PipelineSink:
    """A breaker endpoint: absorbs the pipeline's materialized blocks and
    produces ``result_blocks`` for the next pipeline once finished."""

    def __init__(self, op: ops.Operator | None):
        self.op = op
        self.result_blocks: list[RowBlock] = []

    def absorb(self, block: RowBlock, clock: SimClock) -> None:
        raise NotImplementedError

    def absorb_carrier(self, carrier: BlockCarrier, clock: SimClock) -> None:
        """Absorb one carrier.  The default materializes (applying any
        deferred selection) and delegates to :meth:`absorb`; sinks that
        can consume ``(block, rows)`` directly override this so the
        whole-block gather never happens (the aggregate sink)."""
        self.absorb(carrier.materialize(), clock)

    def finish(self, clock: SimClock) -> None:
        """Called once, after the last absorb (or immediately for an
        empty input)."""


class CollectSink(PipelineSink):
    """Plain collection — feeds serial operators' replay children."""

    def absorb(self, block, clock):
        self.result_blocks.append(block)


class AggregateSink(PipelineSink):
    def __init__(self, op: ops.AggregateOp):
        super().__init__(op)
        self._state = op.new_state()

    def absorb_carrier(self, carrier, clock):
        """Partial-aggregate the carrier and fold it in — the placed
        engines' two steps, run per block.  The deferred selection is
        consumed directly, so a filtered scan feeding an aggregate never
        materializes a selected block at all."""
        op = self.op
        op.fold_partial(self._state, op.partial_block(
            carrier.block, carrier.rows, carrier.count, clock))

    def finish(self, clock):
        out = self.op.finish_state(self._state)
        if out is not None:
            self.result_blocks.append(out)


class SortSink(PipelineSink):
    """Collects blocks; the sort is one stable argsort at finish.
    ``top`` is set at compile time when a LIMIT sits directly above: only
    the first ``offset + limit`` sorted rows are ever gathered."""

    def __init__(self, op: ops.SortOp):
        super().__init__(op)
        self._blocks: list[RowBlock] = []
        self.top: int | None = None

    def absorb(self, block, clock):
        self._blocks.append(block)

    def finish(self, clock):
        self.result_blocks = self.op.merge_runs(self._blocks, clock,
                                                paid=False, top=self.top)
        self.op.rows_out += sum(len(block) for block in self._blocks)


class BuildSink(PipelineSink):
    """Hash-join build side: per-block build parts in input order,
    merged — with the spill surcharge — into ``table`` at finish.  The
    placed walk merges per-morsel parts into it instead; either way the
    probe stage reads the same :class:`~repro.exec.operators.BuildTable`."""

    def __init__(self, op: ops.HashJoinOp):
        super().__init__(op)
        self._parts: list[tuple] = []
        self.table: ops.BuildTable | None = None

    def absorb(self, block, clock):
        self._parts.append(self.op.build_block(block, clock))

    def finish(self, clock):
        self.table = self.op.merge_build(self._parts, clock)


# -- sources ------------------------------------------------------------------


class PipelineSource:
    """Where a pipeline's carriers come from.  Every source but
    :class:`ScanSource` counts its own ``rows_out`` (operators driven
    through ``batches()``, finished sinks); a scan's output is counted by
    the :class:`BlockPass` that consumes it."""

    op: ops.Operator

    def carriers(self, clock: SimClock) -> Iterator[BlockCarrier]:
        raise NotImplementedError


# The streaming driver touches each block a fixed number of times however
# large it is, so it runs scans at coarse granularity (16 default batches)
# to amortize per-block dispatch.  Scan blocks are array views sliced out
# of the table's merged typed columns, never value copies, so coarse
# blocks cost no extra memory.  Plans that can stop early (any LIMIT
# anywhere, marked at compile time) keep the operator's own
# ``max_batch_rows`` instead: early exit stops on block boundaries, so a
# bigger block would scan — and charge — rows the row engine never
# touches beyond the pushed-down budget.  Full-scan plans are
# granularity-neutral on charges (every row is charged per row either way).
FUSED_SCAN_ROWS = 16384


class ScanSource(PipelineSource):
    """SeqScan: streams table blocks through the scan's fused hook — the
    pushed-down predicate becomes a deferred selection on the carrier."""

    def __init__(self, op: ops.SeqScanOp):
        self.op = op
        # set by compile_pipelines when the program contains a LIMIT:
        # early exit must stop on the pushed-down block boundaries
        self.early_exit = False

    def scan_rows(self) -> int:
        if self.early_exit:
            return self.op.max_batch_rows
        return max(self.op.max_batch_rows, FUSED_SCAN_ROWS)

    def morsel_carrier(self, morsel, clock: SimClock) -> BlockCarrier | None:
        """One ``(columns, row_count)`` scan morsel through the scan's
        fused hook; None when the pushed-down predicate rejects every
        row.  Runs inside a morsel task in the placed engines."""
        out = self.op.scan_block(self.op.make_block(*morsel), clock)
        return None if out is None else BlockCarrier(*out)

    def carriers(self, clock):
        for morsel in self.op._table.scan_column_batches(self.scan_rows()):
            carrier = self.morsel_carrier(morsel, clock)
            if carrier is not None:
                yield carrier


class OperatorSource(PipelineSource):
    """Wraps an operator's own serial ``batches()`` (IndexScan, EmptyRow):
    it charges the driving clock and attributes its own counts."""

    def __init__(self, op: ops.Operator):
        self.op = op

    def carriers(self, clock):
        self.op._clock = clock
        for block in self.op.batches():
            yield BlockCarrier(block)


class SerialOpSource(PipelineSource):
    """Operators without a fused decomposition (NestedLoopJoin, unknown
    breakers): their child subtrees compile to their own pipelines; this
    source swaps the children for block replays and drives the
    operator's unchanged serial path.

    Two replay modes.  :meth:`carriers` (the placed walk) expects the
    child pipelines already run into their :class:`CollectSink`\\ s.
    :meth:`lazy_carriers` (the streaming driver) hands the operator
    *generators* that drive the child pipelines on demand — the
    operator's own pull order decides what actually runs, so a LIMIT
    above a NestedLoopJoin stops the lazily-pulled side mid-scan, like
    the row engine's generator laziness."""

    def __init__(self, op: ops.Operator,
                 children: list[tuple[str, "Pipeline"]]):
        self.op = op
        self.children = children

    def _replay(self, clock: SimClock, blocks_for) -> Iterator[BlockCarrier]:
        self.op._clock = clock
        for attr, child_pipeline in self.children:
            child = getattr(self.op, attr)
            setattr(self.op, attr,
                    BlockSource(child, blocks_for(child_pipeline), clock))
        for block in self.op.batches():
            yield BlockCarrier(block)

    def carriers(self, clock):
        return self._replay(clock, lambda cp: cp.sink.result_blocks)

    def lazy_carriers(self, clock):
        return self._replay(clock, lambda cp: _drive(cp, clock))


class SinkSource(PipelineSource):
    """Replays a finished breaker sink's result blocks (already charged
    and attributed by the sink)."""

    def __init__(self, sink: PipelineSink):
        self.sink = sink
        self.op = sink.op

    def carriers(self, clock):
        for block in self.sink.result_blocks:
            yield BlockCarrier(block)


# -- pipelines ----------------------------------------------------------------


class Pipeline:
    """One streaming chain: source -> fused stages -> sink (or output).

    ``inputs`` are the pipelines that must run to their sinks before this
    one starts (hash-join builds, breaker inputs, serial-op children).
    """

    def __init__(self, source: PipelineSource):
        self.source = source
        self.stages: list[PipelineStage] = []
        self.sink: PipelineSink | None = None
        self.inputs: list[Pipeline] = []

    @property
    def stopped(self) -> bool:
        """True once an early-exit stage (LIMIT) is satisfied."""
        return any(getattr(stage, "done", False) for stage in self.stages)

    def describe(self) -> str:
        parts = [type(self.source).__name__.replace("Source", "")]
        parts += [type(s).__name__.replace("Stage", "") for s in self.stages]
        if self.sink is not None:
            parts.append(type(self.sink).__name__.replace("Sink", "") + "!")
        return "→".join(parts)


class PipelineProgram:
    """A compiled plan: pipelines in dependency order, the last one
    producing the query result."""

    def __init__(self, root: Pipeline, pipelines: list[Pipeline]):
        self.root = root
        self.pipelines = pipelines

    @property
    def has_limit(self) -> bool:
        return any(isinstance(stage, LimitStage)
                   for p in self.pipelines for stage in p.stages)

    def describe(self) -> list[str]:
        return [p.describe() for p in self.pipelines]


def compile_pipelines(op: ops.Operator) -> PipelineProgram:
    """Compile an operator tree into a pipeline DAG, splitting at the
    plan-level ``BREAKER`` annotations and fusing ``STREAMING`` nodes into
    their child's pipeline.  Pure inspection: operators are not mutated
    until the program runs."""
    pipelines: list[Pipeline] = []
    root = _compile(op, pipelines)
    pipelines.append(root)
    program = PipelineProgram(root, pipelines)
    if program.has_limit:
        # LIMIT can stop any pipeline mid-stream; scans must keep the
        # operators' own (pushed-down) block boundaries so early exit
        # stays within its documented bound (see ScanSource.scan_rows)
        for pipeline in pipelines:
            if isinstance(pipeline.source, ScanSource):
                pipeline.source.early_exit = True
    return program


def _close(pipeline: Pipeline, sink: PipelineSink,
           pipelines: list[Pipeline]) -> Pipeline:
    pipeline.sink = sink
    pipelines.append(pipeline)
    return pipeline


# how each STREAMING plan node's operator fuses into its child pipeline
_STREAMING_STAGES: dict[type, type] = {
    ops.FilterOp: FilterStage,
    ops.ProjectOp: ProjectStage,
}


def _break_at_sink(op: ops.Operator, sink_cls,
                   pipelines: list[Pipeline]) -> Pipeline:
    """Full breaker: the child subtree becomes its own pipeline feeding a
    sink; the breaker's output starts the next pipeline."""
    feeder = _close(_compile(op._child, pipelines), sink_cls(op), pipelines)
    out = Pipeline(SinkSource(feeder.sink))
    out.inputs.append(feeder)
    return out


def _break_hash_join(op: ops.HashJoinOp,
                     pipelines: list[Pipeline]) -> Pipeline:
    """HashJoin: the build (left) side is the breaker; the probe fuses
    into the right child's pipeline as a streaming stage."""
    build = _close(_compile(op._left, pipelines), BuildSink(op), pipelines)
    probe = _compile(op._right, pipelines)
    probe.inputs.append(build)
    probe.stages.append(ProbeStage(op, build.sink))
    return probe


def _break_as_stage(stage_cls):
    """Order-sensitive breakers (Distinct's seen set, Limit's early-exit
    counter) ride the pipeline as serial stages: they end fusion for the
    parallel engine but stream in place serially."""
    def handler(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
        p = _compile(op._child, pipelines)
        p.stages.append(stage_cls(op))
        return p
    return handler


def _break_limit(op: ops.LimitOp, pipelines: list[Pipeline]) -> Pipeline:
    """Limit rides as a serial stage; directly above a sort it also tells
    the sort sink how many rows will ever be read (top-k)."""
    p = _break_as_stage(LimitStage)(op, pipelines)
    if (len(p.stages) == 1 and op._limit is not None
            and isinstance(p.source, SinkSource)
            and isinstance(p.source.sink, SortSink)):
        p.source.sink.top = op._offset + op._limit
    return p


# how each BREAKER plan node's operator splits the pipeline; an
# unregistered breaker gets the conservative serial fallback below
_BREAKER_HANDLERS = {
    ops.AggregateOp: lambda op, ps: _break_at_sink(op, AggregateSink, ps),
    ops.SortOp: lambda op, ps: _break_at_sink(op, SortSink, ps),
    ops.HashJoinOp: _break_hash_join,
    ops.DistinctOp: _break_as_stage(DistinctStage),
    ops.LimitOp: _break_limit,
}


def _compile(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
    """One subtree -> one pipeline, dispatching on the plan-level
    STREAMING/BREAKER annotations (``repro/plan/logical.py``); sources
    and anything unannotated — or annotated but with no registered
    handler — fall through to the conservative serial paths."""
    node = op.plan_node
    if node is not None:
        if type(node).STREAMING:
            stage_cls = _STREAMING_STAGES.get(type(op))
            if stage_cls is not None:
                p = _compile(op._child, pipelines)
                p.stages.append(stage_cls(op))
                return p
        elif type(node).BREAKER:
            handler = _BREAKER_HANDLERS.get(type(op))
            if handler is not None:
                return handler(op, pipelines)

    # sources: scans (fused hook) and self-contained leaves
    if isinstance(op, ops.SeqScanOp):
        return Pipeline(ScanSource(op))
    if not any(isinstance(getattr(op, attr, None), ops.Operator)
               for attr in ("_child", "_left", "_right")):
        # leaf without a fused decomposition (IndexScan, EmptyRow): its
        # own serial batches() path is the source
        return Pipeline(OperatorSource(op))

    # conservative serial fallback (NestedLoopJoin, unregistered breaker
    # or streaming nodes): children become their own pipelines; the
    # operator replays their blocks through its unchanged serial path
    children: list[tuple[str, Pipeline]] = []
    inputs: list[Pipeline] = []
    for attr in ("_child", "_left", "_right"):
        child = getattr(op, attr, None)
        if isinstance(child, ops.Operator):
            cp = _close(_compile(child, pipelines), CollectSink(child),
                        pipelines)
            inputs.append(cp)
            children.append((attr, cp))
    p = Pipeline(SerialOpSource(op, children))
    p.inputs = inputs
    return p


# -- the per-block pass -------------------------------------------------------


def under_span(tracer, op: ops.Operator, fn):
    """``fn`` wrapped so its charges attribute to ``op``'s span; ``fn``
    itself when no tracer is attached."""
    if tracer is None:
        return fn
    span = tracer.operator_span(op)

    def traced(*args):
        tracer.push(span)
        try:
            return fn(*args)
        finally:
            tracer.pop()

    return traced


class BlockPass:
    """One pipeline pass over one block: source count -> stages ->
    counts, each stage under its operator's span when a tracer is
    attached.  The one place a carrier is pushed through a stage chain —
    the streaming driver calls :meth:`run` per source carrier, the placed
    walk dispatches :meth:`task` per unit and runs :meth:`run` on its
    serial lane.

    ``scan`` is the pipeline's :class:`ScanSource`, if that is where the
    carriers come from: the pass then counts the scan's output too (every
    other source attributes its own rows).  A ``deferred`` pass's tasks
    hand their survivor on as the carrier, selection still pending, for a
    sink hook that takes row indices (aggregate partials).  The pass never
    touches ``rows_out``: it returns the per-operator counts and the
    caller hands them to :meth:`credit` once the task has succeeded,
    which keeps a retried or lost attempt from counting twice.
    """

    def __init__(self, stages: list[PipelineStage], tracer,
                 scan: "ScanSource | None" = None, deferred: bool = False):
        self.stages = stages
        self.scan = scan
        self.deferred = deferred
        self.ops = ([scan.op] if scan is not None else []) \
            + [stage.op for stage in stages]
        self._tracer = tracer
        self._spans = (None if tracer is None else
                       [tracer.operator_span(stage.op) for stage in stages])

    def run(self, carrier: BlockCarrier | None, clock: SimClock
            ) -> tuple[list[int], BlockCarrier | None]:
        """Push one carrier through the chain; returns the counts (aligned
        with ``ops``) and the surviving carrier, its selection still
        deferred wherever the stages allow — None once a stage (or the
        source) rejects every row."""
        lens = [0] * len(self.ops)
        if carrier is None:
            return lens, None
        at = 0 if self.scan is None else 1    # the stages' offset in ops
        if at:
            lens[0] = carrier.count
        tracer, spans = self._tracer, self._spans
        for j, stage in enumerate(self.stages):
            if spans is not None:
                tracer.push(spans[j])
            try:
                carrier = stage.apply(carrier, clock)
            finally:
                if spans is not None:
                    tracer.pop()
            if carrier is None:
                break
            lens[at + j] = carrier.count
        return lens, carrier

    def task(self, unit, clock: SimClock
             ) -> tuple[list[int], RowBlock | BlockCarrier | None]:
        """One placed task: admit the unit — a scan morsel through the
        scan's fused hook (under the scan's span), or an already
        produced block — run the chain, and materialize the survivor
        (unless the pass is ``deferred``)."""
        if self.scan is not None:
            carrier = under_span(self._tracer, self.scan.op,
                                  self.scan.morsel_carrier)(unit, clock)
        else:
            carrier = BlockCarrier(unit)
        lens, out = self.run(carrier, clock)
        if out is not None and not self.deferred:
            out = out.materialize()
        return lens, out

    def credit(self, lens: list[int]) -> None:
        for op, n_out in zip(self.ops, lens):
            op.rows_out += n_out


# -- streaming driver ---------------------------------------------------------


def run_program(program: PipelineProgram,
                clock: SimClock) -> Iterator[RowBlock]:
    """Drive a compiled program on ``clock``, yielding the root
    pipeline's output blocks lazily (so budget enforcement and
    row-at-a-time consumers see charges as they accrue, and a satisfied
    LIMIT stops the scan)."""
    yield from _drive(program.root, clock)


def _drive(pipeline: Pipeline, clock: SimClock) -> Iterator[RowBlock]:
    """Program-output drive: every surviving carrier materialized."""
    for carrier in _drive_carriers(pipeline, clock):
        yield carrier.materialize()


def _drive_carriers(pipeline: Pipeline,
                    clock: SimClock) -> Iterator[BlockCarrier]:
    """One :class:`BlockPass` per source block.  The source pull runs
    under the source operator's span (so a scan's charges — including
    its pushed-down predicate and the buffer pool's page charges — land
    on the scan).  Carriers are yielded with any remaining selection
    still deferred — sinks that take row indices consume them as-is."""
    source = pipeline.source
    if isinstance(source, SerialOpSource):
        # the operator's child pipelines are driven lazily through its
        # own pull order (so early exit can abandon them); only other
        # inputs (e.g. a hash-join build upstream) run eagerly
        lazy = {child_pipeline for _, child_pipeline in source.children}
        for dep in pipeline.inputs:
            if dep not in lazy:
                _run_to_sink(dep, clock)
        carriers = source.lazy_carriers(clock)
    else:
        for dep in pipeline.inputs:
            _run_to_sink(dep, clock)
        carriers = source.carriers(clock)
    tracer = clock.tracer
    scan = source if isinstance(source, ScanSource) else None
    if tracer is not None and scan is not None:
        carriers = tracer.trace_iter(scan.op, carriers)
    block_pass = BlockPass(pipeline.stages, tracer, scan)
    for carrier in carriers:
        lens, out = block_pass.run(carrier, clock)
        block_pass.credit(lens)
        if out is not None:
            yield out
        if pipeline.stopped:
            break


def _run_to_sink(pipeline: Pipeline, clock: SimClock) -> None:
    sink = pipeline.sink
    absorb = under_span(clock.tracer, sink.op, sink.absorb_carrier)
    for carrier in _drive_carriers(pipeline, clock):
        absorb(carrier, clock)
    under_span(clock.tracer, sink.op, sink.finish)(clock)
