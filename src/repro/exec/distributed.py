"""Sharded distributed execution: exchange pipelines over a modeled network.

The distributed scheduler executes the same compiled pipeline programs
(:func:`~repro.exec.pipeline.compile_pipelines`) through the same phased
walk (:class:`~repro.exec.pipeline.PlacedDriver`) as the morsel-parallel
engine, but is the placement that puts the work on ``N`` virtual
*nodes*: each shard of a :class:`~repro.storage.sharded.ShardedTable` is
pinned to node ``shard % nodes`` and its scan->filter->partial-aggregate
fragment runs node-local, charging node-local page I/O and per-morsel
compute.  Between fragments, data moves through **exchanges** over the
:class:`~repro.common.simtime.NetworkModel`:

* **shuffle** — wide GROUP BY repartitions per-morsel aggregate partials
  by group-key hash across the nodes (a process-independent
  :func:`~repro.common.rng.stable_hash` of each distinct key names its
  owner), each node merges its partition, and the merged partitions
  funnel to the coordinator for final reassembly;
* **broadcast** — a hash join's built table ships once from the
  coordinator to every node that runs probe-side scan fragments;
* **gather** — shard-local results (scan output blocks, sort runs, build
  parts, narrow aggregate partials) funnel to the coordinator, node 0.

**Determinism and parity are the contract**, mirrored from the parallel
engine and enforced by ``tests/test_distributed.py`` plus the sharded
shapes in ``tests/test_batch_parity.py``:

* The scheduler is **fully serial**.  Shards, morsels, and
  merges are processed in canonical shard-major order at every node
  count, so result rows (values, Python types, order) are bit-identical
  to the serial engines, and aggregate float state replays raw values in
  global morsel order (never adds subtotals).
* Every morsel charges a private shard clock (``clock.shard()``) and
  every shard's page touches charge a per-shard page clock; all of them
  are folded into the query's shared clock in the same canonical order
  regardless of ``nodes`` and ``workers``.  Per-category charged
  **compute** totals are therefore bit-identical across every
  node/worker configuration.  Only the network categories (``shuffle``,
  ``broadcast``, ``gather``, ``exchange-msg``) vary with the node count
  — they are exactly zero at ``nodes=1``, where every transfer is
  node-local.
* The **makespan** is modeled, not charged twice: per pipeline phase,
  each node serially performs its shards' page I/O and then
  list-schedules its morsel tasks onto ``workers`` lanes
  (:class:`~repro.common.simtime.LaneSchedule`); the phase costs the max
  over nodes.  Exchange makespans come from the network model's NIC
  placement, and the coordinator's serial lane (merges, serial
  operators) adds its full time.  ``modeled_speedup`` is charged total
  over makespan — the scale-out curve ``benchmarks/
  test_distributed_scaling.py`` sweeps.
* A plan containing LIMIT runs the streaming driver on the coordinator
  lane (the same early-termination argument as the parallel engine):
  eager distributed dispatch would scan rows the serial engines never
  touch.

**Faults**: the scheduler consults the ``slow_node`` fault kind — a
per-task latency spike targeted at ``node<i>`` — to model stragglers:
results stay bit-identical while the slow node's phase times (and the
query makespan) inflate.  Storage-level kinds (``replica_down``) keep
working through the shard tables' own replica failover.  The parallel
engine's worker-crash/retry machinery is intentionally out of scope
here: the distributed model is about *placement*, not task recovery.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common import categories as cat
from repro.common.faults import FaultPlan
from repro.common.rng import stable_hash
from repro.common.simtime import LaneSchedule, NetworkModel, SimClock
from repro.exec import operators as ops
from repro.exec import pipeline as pl
from repro.exec.batch import RowBlock
from repro.exec.parallel import DEFAULT_MORSEL_ROWS, DEFAULT_WORKERS
from repro.exec.pipeline import COORDINATOR

DEFAULT_NODES = 4

#: modeled wire size per value by column kind (typed columns ship their
#: fixed-width representation; dictionary/object columns a pointer-ish 16)
_BYTES_BY_KIND = {"i8": 8, "f8": 8, "bool": 1}
_DEFAULT_VALUE_BYTES = 16


def block_bytes(block: RowBlock) -> int:
    """Modeled on-the-wire size of one block (deterministic, kind-based)."""
    n = len(block)
    if n == 0:
        return 0
    if not block.kinds:
        return 8 * n
    return sum(_BYTES_BY_KIND.get(kind, _DEFAULT_VALUE_BYTES) * n
               for kind in block.kinds)


class DistributedScheduler(pl.PlacedDriver):
    """Node and network accounting for a program placed on N virtual
    nodes.

    ``run(operator)`` (the shared walk) returns ``(blocks, stats)``
    exactly like :class:`~repro.exec.parallel.MorselScheduler`; the stats
    dict carries the exchange log and per-node timings.
    """

    def __init__(self, clock: SimClock, nodes: int = DEFAULT_NODES,
                 workers: int = DEFAULT_WORKERS,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 faults: FaultPlan | None = None,
                 registry=None):
        pl.check_at_least("nodes", nodes)
        super().__init__(clock, workers, morsel_rows, faults, registry)
        self.nodes = nodes
        self._network = NetworkModel(nodes)
        self._fault_scope = faults.scope("dist") if faults is not None else ""
        # the coordinator's serial lane; merged into the shared clock last
        self.lane = clock.shard()
        # every page/task shard clock, in canonical creation order — the
        # fold order is a pure function of the plan and the data, never of
        # the node or worker count (the bit-identity invariant)
        self._shard_clocks: list[SimClock] = []
        self._phase_no = 0
        self._phase_makespan = 0.0
        self._exchange_makespan = 0.0
        self._network_seconds = 0.0
        self.exchanges: list[dict] = []
        self._node_tasks = [0] * nodes
        self._node_io = [0.0] * nodes
        self._node_compute = [0.0] * nodes
        self._node_busy = [0.0] * nodes
        self._node_net = [{"rows_sent": 0, "bytes_sent": 0,
                           "rows_received": 0, "bytes_received": 0,
                           "nic_queued": 0} for _ in range(nodes)]
        # page I/O of the scan just split, by node: closes with the scan
        # phase the next dispatch runs
        self._scan_io: dict[int, float] | None = None

    def finish(self, start: float | None = None) -> dict:
        """Fold all shard-clock charges into the shared clock in canonical
        order and return the scheduler stats."""
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
        limit = self._clock.limit
        self._clock.set_limit(None)
        try:
            for shard in self._shard_clocks:
                self._fold(shard, by_category)
            self._fold(self.lane, by_category)
        finally:
            self._clock.set_limit(limit)
        per_node = [
            {"node": node,
             "tasks": self._node_tasks[node],
             "io_seconds": self._node_io[node],
             "compute_seconds": self._node_compute[node],
             "busy_seconds": self._node_busy[node],
             **self._node_net[node]}
            for node in range(self.nodes)
        ]
        stats = {
            "nodes": self.nodes,
            "workers": self.workers,
            "morsel_rows": self.morsel_rows,
            "tasks": self.tasks_dispatched,
            "phases": self._phase_no,
            "virtual_charged": charged,
            "virtual_makespan": makespan,
            "modeled_speedup": (charged / makespan) if makespan > 0 else 1.0,
            "charged_by_category": by_category,
            "rows_shuffled": sum(e["rows"] for e in self.exchanges
                                 if e["kind"] == cat.SHUFFLE),
            "bytes_on_wire": sum(e["bytes"] for e in self.exchanges),
            "exchange_seconds": self._network_seconds,
            "exchanges": list(self.exchanges),
            "per_node": per_node,
        }
        registry = self._registry
        if registry is not None:
            registry.counter("exec.tasks").inc(self.tasks_dispatched)
            registry.counter("dist.exchanges").inc(len(self.exchanges))
            registry.histogram("exec.makespan").observe(makespan)
            for entry in per_node:
                node = entry["node"]
                registry.gauge("dist.node.makespan", node=node).set(
                    entry["busy_seconds"])
                registry.gauge("dist.node.rows_shuffled", node=node).set(
                    entry["rows_sent"])
                registry.gauge("dist.node.bytes_shuffled", node=node).set(
                    entry["bytes_sent"])
                registry.gauge("dist.node.queue_depth", node=node).set(
                    entry["nic_queued"])
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

    def pending(self) -> float:
        return sum(shard.now for shard in self._shard_clocks) + self.lane.now

    def _close_phase(self, tasks: list[tuple[int, float]],
                     io_by_node: dict[int, float] | None = None) -> None:
        """Close one parallel phase: per node, serial page I/O plus its
        morsel costs list-scheduled onto ``workers`` lanes; the phase's
        makespan contribution is the slowest node."""
        self._phase_no += 1
        by_node: dict[int, list[float]] = {}
        for node, cost in tasks:
            by_node.setdefault(node, []).append(cost)
        if io_by_node:
            for node in io_by_node:
                by_node.setdefault(node, [])
        longest = 0.0
        for node in sorted(by_node):
            costs = by_node[node]
            io = io_by_node.get(node, 0.0) if io_by_node else 0.0
            node_time = io
            if costs:
                lanes = LaneSchedule(min(self.workers, len(costs)) or 1)
                for cost in costs:
                    lanes.assign(0.0, cost)
                node_time += lanes.makespan()
            self._node_io[node] += io
            self._node_compute[node] += sum(costs)
            self._node_busy[node] += node_time
            longest = max(longest, node_time)
        self._phase_makespan += longest

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
            net = self._node_net[entry["node"]]
            for key in net:
                net[key] += entry[key]
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

    def gather(self, placed, op, label, rows=len, units=None) -> None:
        """Funnel placed items (blocks, aggregate partials, sort runs,
        build parts) to the coordinator."""
        def size(item):
            return block_bytes(item) if units is None else 8 * units(item)
        transfers = [(node, COORDINATOR, size(item), n_rows)
                     for node, item in placed
                     if node != COORDINATOR and (n_rows := rows(item))]
        self._exchange(cat.GATHER, transfers, op, label)

    # -- fault injection ---------------------------------------------------

    def _maybe_slow_node(self, node: int, shard: SimClock,
                         index: int) -> None:
        faults = self.faults
        if faults is None:
            return
        site = f"{self._fault_scope}:{self._phase_no}:{index}:0"
        spec = faults.decide("slow_node", site, index=index,
                             target=f"node{node}")
        if spec is not None and spec.latency > 0:
            shard.advance(spec.latency, cat.FAULT_SLOW)

    # -- the placement -----------------------------------------------------

    def scan_units(self, scan: ops.SeqScanOp) -> list[tuple[int, tuple]]:
        """Shard-local scan fragments: shard ``i``'s morsels run on node
        ``i % nodes`` and its page touches charge a per-shard page clock
        (an unsharded table is one pseudo-shard on the coordinator)."""
        table = scan._table
        if getattr(table, "sharded", False):
            page_clocks = [self._shard_clock()
                           for _ in range(table.shard_count)]
            per_shard = table.shard_morsels(self.morsel_rows,
                                            clock_for=page_clocks)
        else:
            page_clocks = [self._shard_clock()]
            per_shard = [table.scan_morsels(self.morsel_rows,
                                            clock=page_clocks[0])]
        self._scan_io = {}
        units = []
        for shard_idx, morsels in enumerate(per_shard):
            node = shard_idx % self.nodes
            self._scan_io[node] = self._scan_io.get(node, 0.0) \
                + page_clocks[shard_idx].now
            units += [(node, morsel) for morsel in morsels]
        return units

    def dispatch(self, units, fn):
        """One task per unit on its node, serially, in canonical order,
        each on a fresh task clock; closes the phase."""
        out: list[tuple[int, Any]] = []
        phase_tasks: list[tuple[int, float]] = []
        for index, (node, item) in enumerate(units):
            tclock = self._shard_clock()
            result = fn(item, tclock)
            self._maybe_slow_node(node, tclock, index)
            out.append((node, result))
            phase_tasks.append((node, tclock.now))
            self._node_tasks[node] += 1
        self.tasks_dispatched += len(units)
        self._close_phase(phase_tasks, self._scan_io)
        self._scan_io = None
        self.check_budget()
        return out

    def exchange_partials(self, op, partials, groups) -> None:
        """Narrow partials gather whole.  Wide GROUP BY partials are
        hash-repartitioned first: node ``q`` owns the groups whose key
        hashes to ``q``, every morsel ships each other owner its entries
        for that owner's groups, each owner folds its partition, and the
        merged partitions gather to the coordinator.  The merge itself
        already ran once, centrally (placements only account): what is
        modeled here is who would have sent how much to whom."""
        parts = self.nodes
        if not (parts > 1 and op._node.group_by and partials
                and max(len(partial) for _, partial in partials)
                > op.PARTITION_MIN_KEYS):
            self.gather(partials, op, "aggregate partials", units=lambda
                        partial: op.entry_units(len(partial), partial.rows))
            return
        owner = np.array([stable_hash(key, parts) for key in groups.keys])
        # per (morsel, owner) cell: the entries shipped and their rows
        sizes = [len(partial) for _, partial in partials]
        cell = (np.repeat(np.arange(len(sizes)), sizes) * parts
                + owner[groups.of_entries()])
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
        """Ship each probe stage's built table from the coordinator to
        every node that runs this scan's shard fragments."""
        if self.nodes <= 1:
            return
        table = scan._table
        if not getattr(table, "sharded", False):
            return
        targets = sorted({shard % self.nodes
                          for shard in range(table.shard_count)}
                         - {COORDINATOR})
        if not targets:
            return
        for stage in stages:
            if not isinstance(stage, pl.ProbeStage):
                continue
            table = stage.build.table
            nbytes = 8 * table.payload_units()
            transfers = [(COORDINATOR, node, nbytes, table.rows)
                         for node in targets]
            self._exchange(cat.BROADCAST, transfers, stage.op,
                           "build broadcast")
