"""Placed execution: one scheduler for modeled workers and virtual nodes.

A :class:`RowBlock` is a self-contained unit of work, so a compiled
pipeline program (:func:`~repro.exec.pipeline.compile_pipelines`)
decomposes the way Leis et al.'s morsel-driven scheduler does: a scan is
split into *morsels* (``morsel_rows`` rows) and each is pushed through a
whole pipeline pass (:class:`~repro.exec.pipeline.BlockPass`) as one
task.  :class:`DistributedScheduler` is the one dispatcher for cores and
nodes alike; the node is a morsel's locality tag.  Each shard of a
:class:`~repro.storage.sharded.ShardedTable` is pinned to node
``shard % nodes`` and its scan->filter->partial fragment runs there;
merged breaker state, serial operators and the result live on the
coordinator, node 0.  ``engine="parallel"`` is the one-node case.
Between fragments, data moves through **exchanges** over the
:class:`~repro.common.simtime.NetworkModel`, all of them empty at one
node:

* **shuffle** — wide GROUP BY repartitions per-morsel aggregate partials
  by group-key hash across the nodes (a process-independent
  :func:`~repro.common.rng.stable_hash` of each distinct key names its
  owner, every key hashed in one vectorized
  :func:`~repro.common.rng.stable_hashes` pass), each node merges its
  partition, and the merged partitions funnel to the coordinator for
  final reassembly;
* **broadcast** — a hash join's built table, or a nested-loop join's
  collected right side, ships once from the coordinator to every node
  that runs scan fragments of the other side;
* **gather** — shard-local results (scan output blocks, sort runs, build
  parts, narrow aggregate partials) funnel to the coordinator.

The contract, which ``tests/test_parallel.py``, ``tests/
test_distributed.py`` and the parity sweep in ``tests/
test_batch_parity.py`` enforce (``docs/parallel.md`` states it in full):

* **Ordering / determinism** — no thread is started.  Tasks run inline in
  canonical shard-major morsel order at every ``workers`` and ``nodes``,
  so result rows (values, Python types, order) and ``rows_out`` are
  bit-identical to the serial engines.  Aggregate float state replays raw
  values in global morsel order (``AggregateOp.partial_block``), never
  adds subtotals.
* **Charges** — every task attempt charges a fresh task clock
  (``clock.shard()``), every shard's page touches a per-shard page clock,
  merges and serial operators the coordinator's ``lane``.  :meth:`finish`
  folds them all into the query's shared clock in creation order, a pure
  function of the plan and the data, so per-category compute totals are
  bit-identical across every node/worker configuration and equal the
  serial engines' (each per-row cost is charged once, wherever the row
  ran; the aggregate merge is free because every per-row cost was already
  charged in a task).  Only the network categories vary with ``nodes``.
* **Makespan** — modeled, not charged twice: per phase each node serially
  performs its shards' page I/O, then its tasks are list-scheduled onto
  ``workers`` lanes (:class:`~repro.common.simtime.LaneSchedule`, the
  pull-the-next-morsel dispatch); the phase costs the slowest node.
  Exchanges add the network model's NIC-placement makespan and the lane
  its full time.  ``modeled_speedup`` is charged total over makespan.
* **Scope** — every pipeline's ``parallel_safe`` stage prefix runs as
  tasks (scan->filter->project chains, hash-join probes, nested-loop
  crosses, aggregate partials, sort runs, build parts).  Merges,
  order-sensitive stages (Distinct) and the leaves that are not table
  scans (IndexScan, EmptyRow) run on the lane.
* **Failure** — an error that is not retried stops the phase at the
  morsel that raised it: morsels ``0..k`` have run and charged, none past
  ``k`` has, the phase is closed, and :meth:`run` still folds every
  charge into the shared clock (a failing query leaves its charges
  behind, like the serial engines).
* **Faults** — with a :class:`~repro.common.faults.FaultPlan` armed, a
  task attempt can suffer ``task_error`` (before the work), ``slow_worker``
  / ``slow_node`` latency (after it, the latter targeted at ``node<i>``)
  and ``worker_crash`` (last: the result is lost, the charges are kept).
  Retryable errors — injected or real, e.g.
  :class:`~repro.common.errors.ReplicaUnavailable` mid-failover — re-run
  the morsel on a fresh task clock up to ``retry_limit`` extra attempts;
  a crash also removes one lane from its node for the phase.  Task hooks
  are stateless after construction (``analysis/races.py``), so recovered
  results and compute charges are **bit-identical to the fault-free
  run** while the recovery cost stays measurable in total and makespan.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import Any, Callable

import numpy as np

from repro.common import categories as cat
from repro.common.errors import RetryPolicy, WorkerCrash, check_at_least
from repro.common.faults import FaultPlan
from repro.common.rng import stable_hashes
from repro.common.simtime import LaneSchedule, NetworkModel, SimClock
from repro.exec import operators as ops
from repro.exec import pipeline as pl
from repro.exec.batch import RowBlock
from repro.obs.trace import to_fix

DEFAULT_MORSEL_ROWS = 4096
DEFAULT_WORKERS = 4
DEFAULT_NODES = 4
DEFAULT_RETRY_LIMIT = 3

#: the node that holds merged breaker state, serial operators and the result
COORDINATOR = 0

#: modeled wire size of one value, whatever its column's type
_VALUE_BYTES = 16

#: per-node network counters, as :meth:`NetworkModel.exchange` reports them
_NET_KEYS = ("rows_sent", "bytes_sent", "rows_received", "bytes_received",
             "nic_queued")


def block_bytes(block: RowBlock) -> int:
    """Modeled on-the-wire size of one block: 16 bytes per value, 8 per
    row of a zero-width block."""
    n = len(block)
    return _VALUE_BYTES * n * len(block.columns) or 8 * n


class DistributedScheduler:
    """The phased walk of a compiled program, placed on ``nodes`` virtual
    nodes of ``workers`` lanes each: per pipeline, inputs first, then one
    task per unit pushing it through the parallel-safe stage prefix, the
    order-sensitive tail (Distinct) on the lane, and the sink fold —
    per-unit partial state from the operator's worker hooks (aggregate
    partials, sorted runs, hash-join build parts) merged in unit order on
    the lane.  Work is tracked as ``(node, item)`` pairs in the serial
    engines' block order.

    ``run(program)`` returns ``(blocks, stats)``: the result blocks in
    serial-engine order and the stats dict (modeled timings, exchange
    log, per-node accounting, recovery counts).  :meth:`dispatch` is the
    one loop under every phase.  Single-use, like the operator tree it
    drives.
    """

    def __init__(self, clock: SimClock, nodes: int = DEFAULT_NODES,
                 workers: int = DEFAULT_WORKERS,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 faults: FaultPlan | None = None,
                 retry_limit: int = DEFAULT_RETRY_LIMIT,
                 registry=None):
        self.nodes = check_at_least("nodes", nodes)
        self.workers = check_at_least("workers", workers)
        self.morsel_rows = check_at_least("morsel_rows", morsel_rows)
        # a retry re-runs at once on a fresh task clock: no delay to place
        self._retry = RetryPolicy(retry_limit, backoff=0.0)
        self.faults = faults
        self._clock = clock
        # the tracer (if any) rides the shared clock; the lane and every
        # shard clock (clock.shard()) notify it for attribution
        self._tracer = clock.tracer
        self._registry = registry
        self._network = NetworkModel(nodes)
        # one scope per scheduler, handed out in program order, so a
        # *retried query* (a fresh scheduler) rolls fresh fault decisions
        # while a re-run of the same program hits the same ones
        self._fault_scope = faults.scope("sched") if faults is not None \
            else ""
        # the coordinator's serial lane; folded into the shared clock last
        self.lane = clock.shard()
        # every page/task shard clock, in canonical creation order — the
        # fold order is a pure function of the plan and the data, never of
        # the node or worker count (the bit-identity invariant)
        self._shard_clocks: list[SimClock] = []
        self.tasks_dispatched = 0
        self.task_retries = 0
        self.crashes_recovered = 0
        self._phases = 0
        self._phase_makespan = 0.0
        self._exchange_makespan = 0.0
        self._network_seconds = 0.0
        self.exchanges: list[dict] = []
        self._per_node = [
            {"node": node, "tasks": 0, "io_seconds": 0.0,
             "compute_seconds": 0.0, "busy_seconds": 0.0,
             **dict.fromkeys(_NET_KEYS, 0)} for node in range(nodes)]
        # page I/O of the scan just split, by node: closes with the scan
        # phase the next dispatch runs
        self._scan_io: dict[int, float] = {}

    # -- entry -------------------------------------------------------------

    def run(self, program: pl.PipelineProgram
            ) -> tuple[list[RowBlock], dict]:
        """Execute a compiled program without a LIMIT; returns (result
        blocks, stats).  Task and lane charges are folded into the shared
        clock even when execution raises: like the serial engines, a
        failing query leaves its partial charges behind."""
        start = self._clock.now
        try:
            root = program.root
            placed = self._placed(root)
            self.gather(placed, root.stages[-1].op if root.stages
                        else root.source.op, "result gather")
            blocks = [block for _, block in placed]
        finally:
            stats = self.finish(start)
        return blocks, stats

    def finish(self, start: float | None = None) -> dict:
        """Fold all shard-clock charges into the shared clock in canonical
        order and return the scheduler stats.  ``start`` is the shared
        clock's reading when this scheduler's work began; direct
        shared-clock charges since then (exchanges, index page reads)
        count toward the makespan."""
        direct = (self._clock.now - start) if start is not None else 0.0
        task_total = sum(shard.now for shard in self._shard_clocks)
        charged = direct + task_total + self.lane.now
        # exchanges charged the shared clock serially; the makespan
        # replaces that serial sum with the NIC-placement makespan
        makespan = ((direct - self._network_seconds) + self._phase_makespan
                    + self._exchange_makespan + self.lane.now)
        # fold every shard clock (then the lane) into the shared clock in
        # canonical order, accumulating a fresh per-category total on the
        # side: unlike shared-clock deltas, which pick up rounding from
        # whatever the clock already accumulated, this dict is a pure
        # function of the charge sequence — bit-identical across node and
        # worker counts (the invariant tests and benchmarks assert on)
        by_category: dict[str, float] = {}
        for shard in self._shard_clocks:
            self._fold(shard, by_category)
        self._fold(self.lane, by_category)
        stats = {
            "nodes": self.nodes,
            "workers": self.workers,
            "morsel_rows": self.morsel_rows,
            "tasks": self.tasks_dispatched,
            "phases": self._phases,
            "task_retries": self.task_retries,
            "crashes_recovered": self.crashes_recovered,
            "virtual_charged": charged,
            "virtual_makespan": makespan,
            "modeled_speedup": (charged / makespan) if makespan > 0 else 1.0,
            "charged_by_category": by_category,
            "rows_shuffled": sum(e["rows"] for e in self.exchanges
                                 if e["kind"] == cat.SHUFFLE),
            "bytes_on_wire": sum(e["bytes"] for e in self.exchanges),
            "exchange_seconds": self._network_seconds,
            "exchanges": list(self.exchanges),
            "per_node": self._per_node,
        }
        registry = self._registry
        if registry is not None:
            registry.counter("exec.tasks").inc(self.tasks_dispatched)
            registry.counter("exec.phases").inc(self._phases)
            if self.task_retries:
                registry.counter("exec.task_retries").inc(self.task_retries)
            if self.crashes_recovered:
                registry.counter("exec.crashes_recovered").inc(
                    self.crashes_recovered)
            registry.counter("dist.exchanges").inc(len(self.exchanges))
            registry.histogram("exec.makespan").observe(makespan)
            for entry in self._per_node:
                for gauge, key in (("makespan", "busy_seconds"),
                                   ("rows_shuffled", "rows_sent"),
                                   ("bytes_shuffled", "bytes_sent"),
                                   ("queue_depth", "nic_queued")):
                    registry.gauge(f"dist.node.{gauge}",
                                   node=entry["node"]).set(entry[key])
        return stats

    # -- accounting --------------------------------------------------------

    def _shard_clock(self) -> SimClock:
        shard = self._clock.shard()
        self._shard_clocks.append(shard)
        return shard

    def _fold(self, shard: SimClock,
              by_category: dict[str, float]) -> None:
        for category, seconds in shard.breakdown().items():
            self._clock.absorb(seconds, category)  # repro: charge-category-ok folding shard breakdowns whose categories were validated at charge time
            by_category[category] = by_category.get(category, 0.0) + seconds

    def _op_task(self, op: ops.Operator, fn):
        """``fn`` under ``op``'s span (a worker hook about to be
        dispatched, or a lane merge step)."""
        return pl.under_span(self._tracer, op, fn)

    # -- dispatch ----------------------------------------------------------

    def scan_units(self, scan: ops.SeqScanOp) -> list[tuple[int, tuple]]:
        """Shard-local scan fragments: shard ``i``'s morsels run on node
        ``i % nodes`` and its page touches charge a per-shard page clock
        (an unsharded table is one pseudo-shard on the coordinator)."""
        table = scan._table
        shards = (table.shard_tables if getattr(table, "sharded", False)
                  else [table])
        page_clocks = [self._shard_clock() for _ in shards]
        per_shard = [list(shard.scan_column_batches(self.morsel_rows,
                                                    clock=page_clock))
                     for shard, page_clock in zip(shards, page_clocks)]
        units = []
        for shard_idx, morsels in enumerate(per_shard):
            node = shard_idx % self.nodes
            self._scan_io[node] = self._scan_io.get(node, 0.0) \
                + page_clocks[shard_idx].now
            units += [(node, morsel) for morsel in morsels]
        return units

    def dispatch(self, units: list[tuple[int, Any]],
                 fn: Callable[[Any, SimClock], Any]) -> list[tuple[int, Any]]:
        """Run ``fn(item, task_clock)`` once per unit as one accounted
        phase: inline, in unit order, each attempt on a fresh task clock;
        ``(node, result)`` pairs come back in unit order.

        Recovery: failures the :class:`~repro.common.errors.RetryPolicy`
        retries (injected or real) re-run the morsel, up to
        ``retry_limit`` extra attempts; every attempt's charges —
        including lost crashed attempts — are kept, in morsel/attempt
        order, so recovery cost shows up in the totals and the makespan.
        Anything else — a non-retryable error, an exhausted retry budget,
        ``KeyboardInterrupt`` / ``SystemExit`` — surfaces as itself from
        the morsel that raised it: no later morsel runs, and the phase
        closes over the charges made so far."""
        self.tasks_dispatched += len(units)
        phase = self._phases
        # empty phases stay unnumbered (fault sites are keyed by phase)
        self._phases += bool(units)
        tracer = self._tracer
        # one (node, morsel, attempt, task clock) per attempt, in order
        attempts: list[tuple[int, int, int, SimClock]] = []
        crashes: Counter = Counter()
        out: list[tuple[int, Any]] = []
        try:
            for index, (node, item) in enumerate(units):
                for attempt in count():
                    tclock = self._shard_clock()
                    attempts.append((node, index, attempt, tclock))
                    try:
                        out.append((node, self._attempt(
                            fn, item, tclock, node, phase, index, attempt)))
                        break
                    except Exception as exc:
                        if self._retry.next_delay(exc, attempt) is None:
                            raise
                        crashed = isinstance(exc, WorkerCrash)
                        if crashed:
                            crashes[node] += 1
                            self.crashes_recovered += 1
                        else:
                            self.task_retries += 1
                        if tracer is not None:
                            tracer.event(
                                "worker_crash" if crashed else "task_retry",
                                phase=phase, morsel=index, attempt=attempt,
                                node=node,
                                error=f"{type(exc).__name__}: {exc}")
        finally:
            self._close_phase(phase, Counter(node for node, _ in units),
                              attempts, crashes)
        return out

    def _attempt(self, fn: Callable[[Any, SimClock], Any], item: Any,
                 tclock: SimClock, node: int, phase: int, index: int,
                 attempt: int) -> Any:
        """One attempt at one morsel, with fault injection around it.

        Injection order models the lifecycle: a ``task_error`` strikes
        before the work starts (nothing charged yet); a ``slow_worker``
        or ``slow_node`` spike charges extra time on the task clock after
        the work; a ``worker_crash`` strikes last — the work ran and
        charged, then the worker died before reporting, so the result is
        lost but the cost is real.  Fault decisions are pure functions of
        (seed, scope, phase, morsel, attempt).
        """
        faults = self.faults
        if faults is None:
            return fn(item, tclock)
        site = f"{self._fault_scope}:{phase}:{index}:{attempt}"
        faults.maybe_raise("task_error", site, index=index, attempt=attempt)
        result = fn(item, tclock)
        for kind, target in (("slow_worker", None),
                             ("slow_node", f"node{node}")):
            spec = faults.decide(kind, site, index=index, target=target,
                                 attempt=attempt)
            if spec is not None and spec.latency > 0:
                tclock.advance(spec.latency, cat.FAULT_SLOW)
        faults.maybe_raise("worker_crash", site, index=index,
                           attempt=attempt)
        return result

    def _close_phase(self, phase: int, units_on: Counter,
                     attempts: list[tuple[int, int, int, SimClock]],
                     crashes: Counter) -> None:
        """Close one phase: per node, the serial page I/O of the scan just
        split, then its attempts list-scheduled onto its lanes — one per
        worker, at most one per unit, minus one per crash (the survivors
        finish the work); the phase's makespan contribution is the
        slowest node.  With a tracer, one task span per attempt is placed
        on the modeled timeline, carrying the task clock's charge profile
        as decoration (the charges were attributed to operator spans at
        their site)."""
        io_by_node, self._scan_io = self._scan_io, {}
        tracer = self._tracer
        base = self._phase_makespan + self._exchange_makespan + self.lane.now
        by_node: dict[int, list] = {
            node: [] for node in sorted(units_on.keys() | io_by_node.keys())}
        for entry in attempts:
            by_node[entry[0]].append(entry)
        longest = 0.0
        for node, ran in by_node.items():
            io = io_by_node.get(node, 0.0)
            lanes = LaneSchedule(max(
                1, min(self.workers, units_on[node]) - crashes[node]))
            compute = 0.0
            for _, morsel, attempt, tclock in ran:
                compute += tclock.now
                worker, start, end = lanes.assign(0.0, tclock.now)
                if tracer is None:
                    continue
                span = tracer.begin(
                    f"morsel p{phase}.{morsel}" + (f" retry {attempt}"
                                                   if attempt else ""),
                    "task", parent=None, phase=phase, morsel=morsel,
                    attempt=attempt, node=node, worker=worker)
                span.start, span.end = base + io + start, base + io + end
                for category, seconds in tclock.breakdown().items():
                    span.add(category, to_fix(seconds), 0)
            node_time = io + lanes.makespan()
            totals = self._per_node[node]
            totals["tasks"] += units_on[node]
            totals["io_seconds"] += io
            totals["compute_seconds"] += compute
            totals["busy_seconds"] += node_time
            longest = max(longest, node_time)
        self._phase_makespan += longest

    # -- exchanges ---------------------------------------------------------

    def _exchange(self, category: str, transfers: list,
                  op: ops.Operator | None, label: str) -> dict | None:
        """Run one exchange through the network model, charging the shared
        clock under ``op``'s span so EXPLAIN ANALYZE attribution (and its
        empty ``(other)`` bucket) keeps holding."""
        transfers = [t for t in transfers if t[0] != t[1]]
        if not transfers:
            return None
        tracer = self._tracer
        if tracer is not None and op is not None:
            tracer.push(tracer.operator_span(op))
        try:
            stats = self._network.exchange(category, transfers, self._clock)
        finally:
            if tracer is not None and op is not None:
                tracer.pop()
        self._exchange_makespan += stats["makespan"]
        self._network_seconds += sum(stats["seconds"].values())
        for entry in stats["per_node"]:
            for key in _NET_KEYS:
                self._per_node[entry["node"]][key] += entry[key]
        record = {
            "kind": category,
            "label": label,
            "op": type(op).__name__ if op is not None else None,
            "node_id": getattr(getattr(op, "plan_node", None), "node_id",
                               None),
            "rows": stats["rows"],
            "bytes": int(stats["bytes"]),
            "messages": stats["messages"],
            "seconds": sum(stats["seconds"].values()),
            "makespan": stats["makespan"],
        }
        self.exchanges.append(record)
        if tracer is not None:
            tracer.event("exchange", kind=category, label=label,
                         rows=record["rows"], bytes=record["bytes"],
                         messages=record["messages"])
        return stats

    def gather(self, placed: list[tuple[int, Any]], op: ops.Operator,
               label: str, rows: Callable[[Any], int] = len,
               units: Callable[[Any], int] | None = None) -> None:
        """Funnel placed items (blocks, aggregate partials, sort runs,
        build parts) to the coordinator: ``rows(item)`` counts one's
        rows, ``units(item)`` its modeled payload units where the item's
        own structure does not say."""
        size = block_bytes if units is None else lambda item: 8 * units(item)
        transfers = [(node, COORDINATOR, size(item), n_rows)
                     for node, item in placed
                     if node != COORDINATOR and (n_rows := rows(item))]
        self._exchange(cat.GATHER, transfers, op, label)

    def exchange_partials(self, op: ops.AggregateOp,
                          partials: list[tuple[int, ops.AggPartial]],
                          keys: list, ids: list[np.ndarray]) -> None:
        """Narrow partials gather whole.  Wide GROUP BY partials are
        hash-repartitioned first: node ``q`` owns the groups whose key
        hashes to ``q``, every morsel ships each other owner its entries
        for that owner's groups, each owner folds its partition, and the
        merged partitions gather to the coordinator.  The merge itself
        already ran once, centrally (the scheduler only accounts): what
        is modeled here is who would have sent how much to whom.
        ``keys`` are the merged groups' keys by group id, ``ids[i]`` the
        group id of every entry of partial ``i``."""
        parts = self.nodes
        if not (parts > 1 and op._node.group_by and partials
                and max(len(partial) for _, partial in partials)
                > op.PARTITION_MIN_KEYS):
            self.gather(partials, op, "aggregate partials", units=lambda
                        partial: op.entry_units(len(partial), partial.rows))
            return
        owner = stable_hashes(keys, parts)
        # per (morsel, owner) cell: the entries shipped and their rows
        sizes = [len(partial) for _, partial in partials]
        cell = (np.repeat(np.arange(len(sizes)), sizes) * parts
                + owner[np.concatenate(ids)])
        cells = len(sizes) * parts
        entries = np.bincount(cell, minlength=cells).reshape(-1, parts)
        rows = np.bincount(
            cell, np.concatenate([partial.lens for _, partial in partials]),
            cells).astype(np.int64).reshape(-1, parts)
        transfers = []
        for (node, _), shipped, behind in zip(partials, entries.tolist(),
                                              rows.tolist()):
            transfers += [
                (node, q, 8 * op.entry_units(shipped[q], behind[q],
                                             stamped=True), shipped[q])
                for q in range(parts) if shipped[q] and node != q]
        self._exchange(cat.SHUFFLE, transfers, op, "partial repartition")
        merged = np.bincount(owner, minlength=parts).tolist()
        self.gather(list(enumerate(merged)), op, "merged partitions",
                    rows=int, units=op.merged_units)

    def broadcast_builds(self, scan: ops.SeqScanOp,
                         stages: list[pl.PipelineStage]) -> None:
        """Ship what each probe or cross stage reads — a hash join's
        built table, a nested-loop join's right side — from the
        coordinator to every node that runs this scan's shard fragments."""
        table = scan._table
        shards = table.shard_count if getattr(table, "sharded", False) else 1
        targets = sorted({shard % self.nodes for shard in range(shards)}
                         - {COORDINATOR})
        if not targets:
            return
        for stage in stages:
            if isinstance(stage, pl.ProbeStage):
                built, label = stage.build.table, "build broadcast"
                nbytes, rows = 8 * built.payload_units(), built.rows
            elif isinstance(stage, pl.CrossStage) and stage.inner.block:
                right, label = stage.inner.block, "inner broadcast"
                nbytes, rows = block_bytes(right), len(right)
            else:
                continue
            self._exchange(cat.BROADCAST,
                           [(COORDINATOR, node, nbytes, rows)
                            for node in targets], stage.op, label)

    # -- the walk ----------------------------------------------------------

    def _placed(self, pipe: pl.Pipeline, deferred: bool = False
                ) -> list[tuple[int, RowBlock | pl.BlockCarrier]]:
        """Execute one pipeline (inputs first); returns its output blocks
        with their nodes, in serial-engine block order.  With
        ``deferred``, the outputs of a last pass that ran as tasks are
        still carriers (see :class:`~repro.exec.pipeline.BlockPass`)."""
        clocks = self._shard_clocks
        bounds = [len(clocks)]
        for dep in pipe.inputs:
            self._run_to_sink(dep)
            bounds.append(len(clocks))
        safe: list[pl.PipelineStage] = []
        tail: list[pl.PipelineStage] = []
        for stage in pipe.stages:
            (tail if tail or not stage.parallel_safe else safe).append(stage)
        source = pipe.source
        if isinstance(source, pl.ScanSource):
            self.broadcast_builds(source.op, safe)
            # splitting touches the buffer pool: attribute the page
            # charges to the scan, where the serial engines' pulls put them
            units = self._op_task(source.op, self.scan_units)(source.op)
            placed = self._tasks(units, pl.BlockPass(
                safe, self._tracer, source, deferred and not tail))
        else:
            # breaker sinks replay their merged result; the leaves that
            # are not table scans (IndexScan, EmptyRow) run on the lane
            placed = [(COORDINATOR, carrier.materialize())
                      for carrier in source.carriers(self.lane)]
            if safe:
                placed = self._tasks(placed, pl.BlockPass(
                    safe, self._tracer, deferred=deferred and not tail))
        if tail:
            self.gather(placed, tail[0].op, "serial tail")
            tail_pass = pl.BlockPass(tail, self._tracer)
            placed = self._credited(tail_pass, [
                (COORDINATOR, tail_pass.task(block, self.lane))
                for _, block in placed])
        # nested-loop right sides (the leading inputs) run first, since
        # the left side's tasks read them, but fold after it, innermost
        # join first: the plan's left-to-right order, so a category's
        # total sums its charges as it did when the join ran on the lane
        inner = sum(isinstance(dep.sink, pl.InnerSink) for dep in pipe.inputs)
        if inner:
            clocks[bounds[0]:] = clocks[bounds[inner]:] + [
                clock for i in reversed(range(inner))
                for clock in clocks[bounds[i]:bounds[i + 1]]]
        return placed

    def _tasks(self, units: list, block_pass: pl.BlockPass
               ) -> list[tuple[int, RowBlock]]:
        return self._credited(block_pass,
                              self.dispatch(units, block_pass.task))

    @staticmethod
    def _credited(block_pass: pl.BlockPass, results: list
                  ) -> list[tuple[int, RowBlock]]:
        """Attribute the passes' per-operator counts (only the
        coordinator writes ``rows_out``) and keep the surviving blocks."""
        placed = []
        for node, (lens, blocks) in results:
            block_pass.credit(lens)
            placed += [(node, block) for block in blocks]
        return placed

    def _run_to_sink(self, pipe: pl.Pipeline) -> None:
        """Run a breaker pipeline and fold its blocks into its sink; the
        merged result lives on the coordinator."""
        sink = pipe.sink
        op = sink.op
        placed = self._placed(pipe,
                              deferred=isinstance(sink, pl.AggregateSink))
        if isinstance(sink, pl.AggregateSink):
            result = self._fold_aggregate(op, placed)
            sink.result_blocks = [] if result is None else [result]
        elif isinstance(sink, pl.SortSink):
            # per-unit sorted runs (each charging its own n_i*log2(n_i)),
            # then one stable sort over them on the lane charging the
            # remainder
            runs = self.dispatch(placed, self._op_task(op, op.sort_block))
            self.gather(runs, op, "sorted runs", units=op.run_units)
            out = self._op_task(op, op.merge_runs)(
                [run for _, run in runs], self.lane)
            if out is not None:
                sink.result_blocks = [out]
                op.rows_out += len(out)
        elif isinstance(sink, pl.BuildSink):
            parts = self.dispatch(placed, self._op_task(op, op.build_block))
            self.gather(parts, op, "build parts", rows=lambda part: part[0],
                        units=op.part_units)
            sink.table = self._op_task(op, op.merge_build)(
                [part for _, part in parts], self.lane)
        else:  # InnerSink: the right side whole, no merge charges
            self.gather(placed, op, "inner gather")
            sink.result_blocks = [block for _, block in placed]
            sink.finish(self.lane)

    def _fold_aggregate(self, op: ops.AggregateOp, placed: list
                        ) -> RowBlock | None:
        """Per-unit partial aggregation, then the streaming sink's merge
        on the lane: the partials folded in unit order into one fresh
        state, whose group ids :meth:`exchange_partials` reads to account
        what a real deployment would move.  The fold accumulates raw
        values in global unit order, so results are bit-identical to the
        serial engines; it charges nothing (every per-row cost was
        charged in a task)."""
        def partial(item, clock):
            # a scan task's survivor arrives with its selection deferred
            carrier = item if isinstance(item, pl.BlockCarrier) \
                else pl.BlockCarrier(item)
            return op.partial_block(carrier.block, carrier.rows,
                                    carrier.count, clock)

        partials = self.dispatch(placed, self._op_task(op, partial))
        state = op.new_state()
        ids = [op.fold_partial(state, partial) for _, partial in partials]
        self.exchange_partials(op, partials, list(state.index), ids)
        return self._op_task(op, op.finish_state)(state)
