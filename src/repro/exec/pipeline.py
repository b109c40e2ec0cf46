"""Fused pipeline execution: plans compiled into pipelines of streaming
stages, split at pipeline breakers — and the code that interprets a
compiled program, written once for every batch-family engine.

* :func:`compile_pipelines` walks an operator tree — one registered
  handler per operator class, doing what the ``STREAMING``/``BREAKER``
  annotation of its plan node says (``repro/plan/logical.py``); an
  operator with no handler is an error — and produces a
  :class:`PipelineProgram`: a DAG of :class:`Pipeline` objects split at
  breakers (aggregate, sort, hash-join build, nested-loop join right
  side), each a *source* (scan, breaker output, or another leaf's block
  generator) plus a chain of fused :class:`PipelineStage` steps (filter,
  project, hash-join probe, nested-loop cross, distinct, limit) ending
  in a :class:`PipelineSink` (or the program output).  Compiling and
  running never change the operator tree.
* Within a pipeline, one :class:`BlockCarrier` flows per source block
  (past a nested-loop cross, one per pair chunk) through every stage
  with **zero intermediate materialization**: a
  filter (or a scan's pushed-down predicate) evaluates its mask against
  the scan block's columns directly, turns it once into the survivors'
  row indices and *defers* the selection on the carrier; a downstream
  projection gathers only the columns it actually projects.
* :class:`BlockPass` is the one per-block pass (source count -> stages
  -> counts, under the operators' spans when a tracer is attached).
  The streaming driver runs it per source block; every placed task runs
  it per morsel.
* :func:`run_program` is the streaming driver: the batch engine's drive
  loop, and the placed engines' for LIMIT plans and budgeted runs.
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
row, project ``TUPLE_CPU`` per *surviving* row, probe and cross per the
join hooks.  Deferring a selection never changes a charge because charges are
keyed to row counts, not to copies.  The parity suite
(`tests/test_batch_parity.py`, `tests/test_pipeline.py`) holds the row
engine and every driver of this module to identical rows and charged
totals.

LIMIT early exit
----------------
A satisfied :class:`LimitStage` reports ``done`` and the streaming
driver stops pulling the source pipeline — the contract that lets a
LIMIT above a hash-join probe or a nested-loop cross stop the scan it
rides on mid-table.  Early exit stops on source-block boundaries, so
the compiler sizes the blocks of that one pipeline small (see
:func:`_break_limit`); every other pipeline of the program runs to its
end and scans :data:`FUSED_SCAN_ROWS` at a time.  The placed engines
run LIMIT plans through the same streaming driver: eager morsel
dispatch would scan (and charge) rows the serial engines never touch.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.batch import DEFAULT_BATCH_SIZE, RowBlock, selection
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


class CrossStage(PipelineStage):
    """Nested-loop join: crosses each left block with an
    :class:`InnerSink`'s finished right block (read-only by the time any
    left block arrives).  The one stage that fans out: :meth:`split`
    hands the rest of the chain one carrier per pair chunk, built only
    when pulled."""

    def __init__(self, op: ops.NestedLoopJoinOp, inner: "InnerSink"):
        super().__init__(op)
        self.inner = inner

    def split(self, carrier: BlockCarrier,
              clock: SimClock) -> Iterator[BlockCarrier]:
        return map(BlockCarrier, self.op.cross_block(
            carrier.materialize(), self.inner.block, clock))


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
        out = self.op.merge_runs(self._blocks, clock, paid=False,
                                 top=self.top)
        if out is not None:
            self.result_blocks.append(out)
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


class InnerSink(PipelineSink):
    """Nested-loop join right side: its blocks collected whole — the row
    engine's ``list(right)`` — then made one ``block`` at finish, which
    every :class:`CrossStage` pass reads.  Charges nothing."""

    def __init__(self, op: ops.NestedLoopJoinOp):
        super().__init__(op)
        self.block: RowBlock | None = None

    def absorb(self, block, clock):
        self.result_blocks.append(block)

    def finish(self, clock):
        self.block = (RowBlock.concat(self.result_blocks)
                      if self.result_blocks
                      else RowBlock.from_rows(self.op._right.layout, []))


# -- sources ------------------------------------------------------------------


# The streaming driver touches each block a fixed number of times however
# large it is, so a source runs at coarse granularity (16 default batches)
# to amortize per-block dispatch.  Scan blocks are array views sliced out
# of the table's merged typed columns, never value copies, so coarse
# blocks cost no extra memory.  A full pass charges every row either way,
# so the block size moves no charge — except in the one pipeline a
# satisfied LIMIT stops, which :func:`_break_limit` sizes down.
FUSED_SCAN_ROWS = 16384


class PipelineSource:
    """Where a pipeline's carriers come from.  Every source but
    :class:`ScanSource` counts its own ``rows_out`` (leaves' block
    generators, finished sinks); a scan's output is counted by the
    :class:`BlockPass` that consumes it.  ``block_rows`` is how many
    rows a leaf produces per block, decided by the compiler alone."""

    def __init__(self, op: ops.Operator):
        self.op = op
        self.block_rows = FUSED_SCAN_ROWS

    def carriers(self, clock: SimClock) -> Iterator[BlockCarrier]:
        raise NotImplementedError

    def traced(self, items: Iterator, clock: SimClock) -> Iterator:
        """``items`` with each pull — and every charge made during it,
        the buffer pool's page charges included — attributed to the
        source operator's span when ``clock`` carries a tracer."""
        tracer = clock.tracer
        return items if tracer is None else tracer.trace_iter(self.op, items)


class ScanSource(PipelineSource):
    """SeqScan: streams table blocks through the scan's fused hook — the
    pushed-down predicate becomes a deferred selection on the carrier.
    Page touches charge the driving clock."""

    def morsel_carrier(self, morsel, clock: SimClock) -> BlockCarrier | None:
        """One ``(columns, row_count)`` scan morsel through the scan's
        fused hook; None when the pushed-down predicate rejects every
        row.  Runs inside a morsel task in the placed engines."""
        out = self.op.scan_block(self.op.make_block(*morsel), clock)
        return None if out is None else BlockCarrier(*out)

    def carriers(self, clock):
        morsels = self.op._table.scan_column_batches(self.block_rows,
                                                     clock=clock)
        carriers = (self.morsel_carrier(morsel, clock) for morsel in morsels)
        return self.traced((c for c in carriers if c is not None), clock)


class OperatorSource(PipelineSource):
    """A leaf's own block generator (IndexScan, EmptyRow), charging the
    driving clock under the leaf's span; it attributes its own counts."""

    def carriers(self, clock):
        return map(BlockCarrier, self.traced(
            self.op.blocks(clock, self.block_rows), clock))


class SinkSource(PipelineSource):
    """Replays a finished breaker sink's result blocks (already charged
    and attributed by the sink)."""

    def __init__(self, sink: PipelineSink):
        super().__init__(sink.op)
        self.sink = sink

    def carriers(self, clock):
        return map(BlockCarrier, self.sink.result_blocks)


# -- pipelines ----------------------------------------------------------------


class Pipeline:
    """One streaming chain: source -> fused stages -> sink (or output).

    ``inputs`` are the pipelines that must run to their sinks before this
    one starts (hash-join builds, nested-loop right sides, breaker
    inputs).  ``limit`` is the pipeline's :class:`LimitStage`, if it
    holds one.
    """

    def __init__(self, source: PipelineSource):
        self.source = source
        self.stages: list[PipelineStage] = []
        self.sink: PipelineSink | None = None
        self.inputs: list[Pipeline] = []
        self.limit: LimitStage | None = None

    @property
    def stopped(self) -> bool:
        """True once the pipeline's LIMIT is satisfied."""
        return self.limit is not None and self.limit.done

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
        return any(p.limit is not None for p in self.pipelines)

    def describe(self) -> list[str]:
        return [p.describe() for p in self.pipelines]


def compile_pipelines(op: ops.Operator) -> PipelineProgram:
    """Compile an operator tree into a pipeline DAG, splitting at the
    breakers and fusing the streaming operators into their child's
    pipeline.  Pure inspection: neither compiling nor running the
    program mutates an operator."""
    pipelines: list[Pipeline] = []
    root = _compile(op, pipelines)
    pipelines.append(root)
    return PipelineProgram(root, pipelines)


def _close(pipeline: Pipeline, sink: PipelineSink,
           pipelines: list[Pipeline]) -> Pipeline:
    pipeline.sink = sink
    pipelines.append(pipeline)
    return pipeline


def _source(source_cls):
    """Leaves start a pipeline: a SeqScan through its fused hook, the
    other leaves through their own block generators."""
    return lambda op, pipelines: Pipeline(source_cls(op))


def _as_stage(stage_cls):
    """Filter and Project fuse into their child's pipeline as streaming
    stages; the order-sensitive breakers (Distinct's seen set, Limit's
    early-exit counter) ride it as serial stages, which end fusion for
    the placed engines but stream in place serially."""
    def handler(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
        p = _compile(op._child, pipelines)
        p.stages.append(stage_cls(op))
        return p
    return handler


def _break_at_sink(sink_cls):
    """Full breaker: the child subtree becomes its own pipeline feeding a
    sink; the breaker's output starts the next pipeline."""
    def handler(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
        feeder = _close(_compile(op._child, pipelines), sink_cls(op),
                        pipelines)
        out = Pipeline(SinkSource(feeder.sink))
        out.inputs.append(feeder)
        return out
    return handler


def _break_hash_join(op: ops.HashJoinOp,
                     pipelines: list[Pipeline]) -> Pipeline:
    """HashJoin: the build (left) side is the breaker; the probe fuses
    into the right child's pipeline as a streaming stage."""
    build = _close(_compile(op._left, pipelines), BuildSink(op), pipelines)
    probe = _compile(op._right, pipelines)
    probe.inputs.append(build)
    probe.stages.append(ProbeStage(op, build.sink))
    return probe


def _break_nested_loop(op: ops.NestedLoopJoinOp,
                       pipelines: list[Pipeline]) -> Pipeline:
    """NestedLoopJoin, the hash join's sides swapped: the right side is
    collected before the left one streams, so the right side is the
    breaker and the cross fuses into the left child's pipeline as a
    streaming stage.  The left side runs whatever the right side holds
    (an empty one still charges the left side's scan), and a LIMIT above
    stops it mid-scan."""
    inner = _close(_compile(op._right, pipelines), InnerSink(op), pipelines)
    outer = _compile(op._left, pipelines)
    # the right side runs before any of the left side's own inputs
    outer.inputs.insert(0, inner)
    outer.stages.append(CrossStage(op, inner.sink))
    return outer


def _break_limit(op: ops.LimitOp, pipelines: list[Pipeline]) -> Pipeline:
    """Limit rides as a serial stage and sizes the source blocks of its
    pipeline, the one it stops on a block boundary: ``offset + limit +
    1`` rows (what a row-at-a-time pull would read, the probe row that
    stops it included — exact charges for an unfiltered chain) where only
    Filter / Project / Distinct stand between a scan and the LIMIT, the
    default batch elsewhere.  Directly above a sort it also tells the
    sort sink how many rows will ever be read (top-k)."""
    p = _as_stage(LimitStage)(op, pipelines)
    p.limit = p.stages[-1]
    p.source.block_rows = DEFAULT_BATCH_SIZE
    if op._limit is None:
        return p
    if (isinstance(p.source.op, (ops.SeqScanOp, ops.IndexScanOp))
            and all(isinstance(stage, (FilterStage, ProjectStage,
                                       DistinctStage))
                    for stage in p.stages[:-1])):
        p.source.block_rows = op._offset + op._limit + 1
    elif (len(p.stages) == 1 and isinstance(p.source, SinkSource)
            and isinstance(p.source.sink, SortSink)):
        p.source.sink.top = op._offset + op._limit
    return p


# how each operator compiles; the plan nodes' STREAMING / BREAKER
# annotations (repro/plan/logical.py) name which kind of handler it has
_HANDLERS = {
    ops.SeqScanOp: _source(ScanSource),
    ops.IndexScanOp: _source(OperatorSource),
    ops.EmptyRowOp: _source(OperatorSource),
    ops.FilterOp: _as_stage(FilterStage),
    ops.ProjectOp: _as_stage(ProjectStage),
    ops.AggregateOp: _break_at_sink(AggregateSink),
    ops.SortOp: _break_at_sink(SortSink),
    ops.HashJoinOp: _break_hash_join,
    ops.NestedLoopJoinOp: _break_nested_loop,
    ops.DistinctOp: _as_stage(DistinctStage),
    ops.LimitOp: _break_limit,
}


def _compile(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
    """One subtree -> one pipeline, by its root operator's handler."""
    handler = _HANDLERS.get(type(op))
    if handler is None:
        raise ExecutionError(
            f"no pipeline handler for operator {type(op).__name__}")
    return handler(op, pipelines)


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
    hand their survivors on as carriers, selection still pending, for a
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
            ) -> tuple[list[int], Iterator[BlockCarrier]]:
        """Push one carrier through the chain.  Returns the per-operator
        counts (aligned with ``ops``, filled in as the survivors are
        pulled) and the survivors, their selections still deferred
        wherever the stages allow — none once a stage (or the source)
        rejects every row.  One carrier in is at most one out, except
        past a :class:`CrossStage`: each of its chunks runs the rest of
        the chain before the next one is built, so a consumer that stops
        pulling (a satisfied LIMIT) leaves the rest of the cross unbuilt
        and uncharged."""
        lens = [0] * len(self.ops)
        if carrier is None:
            return lens, iter(())
        if self.scan is not None:
            lens[0] = carrier.count
        return lens, self._push(carrier, 0, clock, lens)

    def _push(self, carrier: BlockCarrier, first: int, clock: SimClock,
              lens: list[int]) -> Iterator[BlockCarrier]:
        """Stages ``first`` onwards over one carrier (see :meth:`run`)."""
        at = 0 if self.scan is None else 1    # the stages' offset in ops
        tracer, spans = self._tracer, self._spans
        stages = self.stages
        for j in range(first, len(stages)):
            stage = stages[j]
            if isinstance(stage, CrossStage):
                parts = stage.split(carrier, clock)
                if tracer is not None:
                    parts = tracer.trace_iter(stage.op, parts)
                for part in parts:
                    lens[at + j] += part.count
                    yield from self._push(part, j + 1, clock, lens)
                return
            if spans is not None:
                tracer.push(spans[j])
            try:
                carrier = stage.apply(carrier, clock)
            finally:
                if spans is not None:
                    tracer.pop()
            if carrier is None:
                return
            lens[at + j] += carrier.count
        yield carrier

    def task(self, unit, clock: SimClock
             ) -> tuple[list[int], list[RowBlock | BlockCarrier]]:
        """One placed task: admit the unit — a scan morsel through the
        scan's fused hook (under the scan's span), or an already
        produced block — run the chain, and materialize the survivors
        (unless the pass is ``deferred``)."""
        if self.scan is not None:
            carrier = under_span(self._tracer, self.scan.op,
                                  self.scan.morsel_carrier)(unit, clock)
        else:
            carrier = BlockCarrier(unit)
        lens, outs = self.run(carrier, clock)
        outs = list(outs)
        if not self.deferred:
            outs = [out.materialize() for out in outs]
        return lens, outs

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
    for carrier in _drive_carriers(program.root, clock):
        yield carrier.materialize()


def _drive_carriers(pipeline: Pipeline,
                    clock: SimClock) -> Iterator[BlockCarrier]:
    """Inputs to their sinks, then one :class:`BlockPass` per source
    block.  Carriers are yielded with any remaining selection still
    deferred — sinks that take row indices consume them as-is."""
    for dep in pipeline.inputs:
        _run_to_sink(dep, clock)
    source = pipeline.source
    block_pass = BlockPass(pipeline.stages, clock.tracer,
                           source if isinstance(source, ScanSource) else None)
    for carrier in source.carriers(clock):
        lens, outs = block_pass.run(carrier, clock)
        try:
            for out in outs:
                yield out
                if pipeline.stopped:
                    break
        finally:
            block_pass.credit(lens)
        if pipeline.stopped:
            break


def _run_to_sink(pipeline: Pipeline, clock: SimClock) -> None:
    sink = pipeline.sink
    absorb = under_span(clock.tracer, sink.op, sink.absorb_carrier)
    for carrier in _drive_carriers(pipeline, clock):
        absorb(carrier, clock)
    under_span(clock.tracer, sink.op, sink.finish)(clock)
