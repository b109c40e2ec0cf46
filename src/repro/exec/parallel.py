"""Morsel-driven parallel execution: the worker-pool placement.

A :class:`RowBlock` is a self-contained unit of work, so the batch engine
decomposes the way Leis et al.'s morsel-driven scheduler does: the scan
is split into *morsels* (fixed-size column batches, default
:data:`DEFAULT_MORSEL_ROWS` rows) and each morsel is pushed through a
whole compiled **pipeline** pass
(:class:`~repro.exec.pipeline.BlockPass`).  *What* runs in which phase is
the shared walk of :class:`~repro.exec.pipeline.PlacedDriver`;
:class:`MorselScheduler` is the placement that says *how*: every site is
this process (nothing moves at a breaker), a phase's tasks run inline, in
morsel order, with retry/crash recovery, and their charges are scheduled
onto ``workers`` *modeled* workers by
:class:`~repro.common.simtime.WorkerClocks`.  No thread is started:
under the GIL two real threads lose to one on every measured shape
(``docs/parallel.md``, "The thread pool, measured"), and every recorded
multicore number is the model's.

The module's contract, which `tests/test_parallel.py` and the parity
sweep in `tests/test_batch_parity.py` enforce:

* **Ordering / determinism** — tasks run and results are collected in
  morsel order, so the output rows (values, Python types, and order), the
  ``rows_out`` counters, and the charged virtual-time totals are identical
  to the serial batch engine for *any* worker count.  Float-sensitive
  aggregate state is never combined by adding subtotals; partials carry
  raw value arrays and the merge accumulates them in global morsel order
  (see ``AggregateOp.partial_block``), which keeps sums bit-identical.
* **Virtual time** — every morsel task charges a private shard clock; when
  a phase closes, :class:`~repro.common.simtime.WorkerClocks`
  list-schedules the task charges in morsel order onto W virtual workers
  (the pull-the-next-morsel dispatch a real scheduler performs).  The *sum*
  of all charges is merged into the query's shared clock at the end, so
  totals match the serial engines (the parity invariant), while the
  per-phase *max worker load* models the parallel makespan a real
  multicore would see.  ``workers`` is the W of that model and nothing
  else.  Buffer-pool charges land on the shared clock while morsels are
  split (page access is inherently shared) and count fully toward the
  makespan.  The aggregate merge itself is
  modeled as free: its real cost scales with group counts, not row counts,
  and every per-row cost has already been charged in a worker — charging
  it again would break total parity.
* **Scope of parallelism** — every pipeline's ``parallel_safe`` stage
  prefix runs as morsel tasks: scan→filter→project chains, hash-join
  probes (and any filters/projections above the join) fused into the
  probe-side scan task, aggregate partials, and sort runs.  The merges
  (one stable grouping of the partials' representative rows, one stable
  sort over the runs) are array passes on the serial lane.  Order-sensitive
  stages (Distinct's seen set) and operators without a block
  decomposition (NestedLoopJoin, IndexScan, EmptyRow) run on the serial
  lane, with their *inputs* still computed as morsel tasks.  A plan
  containing LIMIT anywhere runs the streaming driver on the serial lane.
* **Failure** — an error that is not retried stops the phase at the
  morsel that raised it: morsels ``0..k`` have run and charged, none past
  ``k`` has, at every ``workers``.
* **Budgets** — virtual-time budgets (``SimClock.set_limit``) are checked
  every time a phase's worker charges close (and once more before the
  final merge), so ``BudgetExceeded`` fires mid-flight at phase
  granularity; the final merge itself runs with the limit suspended so a
  failing query still leaves *all* its charges on the shared clock, like
  the serial engines do.  Capped measurement
  (`src/repro/exec/measure.py`) downgrades placed engines to the batch
  engine: a phase is coarser than its per-charge enforcement.
* **Fault tolerance** — with a :class:`~repro.common.faults.FaultPlan`
  armed (``faults=``), morsel tasks can suffer injected transient errors,
  latency spikes, and worker crashes; real retryable errors escaping a
  task (e.g. :class:`~repro.common.errors.ReplicaUnavailable` from a
  replicated scan mid-failover) are handled identically.  A transient
  task error re-runs the morsel up to ``retry_limit`` extra attempts
  before failing the query; a worker crash *loses the attempt's result
  but keeps its charges* (the work really ran before the worker died),
  removes one virtual worker from the phase's makespan model, and a
  survivor re-executes the morsel.  Every worker hook a task runs is
  stateless after construction (the ``parallel_safe`` contract), so
  re-execution is result-identical — under any seeded fault plan,
  recovered results are **bit-identical to the fault-free run**, while
  the retried/lost charges land on :class:`WorkerClocks` so the modeled
  recovery cost (total inflation and makespan) stays measurable.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable

from repro.common import categories as cat
from repro.common.errors import WorkerCrash, is_retryable
from repro.common.faults import FaultPlan
from repro.common.simtime import SimClock, WorkerClocks
from repro.exec import operators as ops
from repro.exec import pipeline as pl
from repro.obs.trace import to_fix as _trace_to_fix

DEFAULT_MORSEL_ROWS = 4096
DEFAULT_WORKERS = 4
DEFAULT_RETRY_LIMIT = 3


class MorselScheduler(pl.PlacedDriver):
    """The worker pool, modeled: runs a phase's tasks inline, one per
    morsel, with retry and crash recovery, and schedules their charges
    onto ``workers`` virtual workers.

    ``run(operator)`` (the shared walk) returns ``(blocks, stats)``: the
    result blocks in serial-engine order and a stats dict with the
    modeled parallel timings.  :meth:`map` is the dispatch under every
    phase; :meth:`finish` folds the charges and reads the stats.
    """

    def __init__(self, clock: SimClock, workers: int = DEFAULT_WORKERS,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 faults: FaultPlan | None = None,
                 retry_limit: int = DEFAULT_RETRY_LIMIT,
                 registry=None):
        super().__init__(clock, workers, morsel_rows, faults, registry)
        pl.check_at_least("retry_limit", retry_limit, 0)
        self._worker_clocks = WorkerClocks(tracer=self._tracer)
        if self._tracer is not None:
            self._worker_clocks.placements = []
        self.retry_limit = retry_limit
        # one scope per scheduler, handed out in program order, so a
        # *retried query* (a fresh scheduler) rolls fresh fault decisions
        # while a re-run of the same program hits the same ones
        self._fault_scope = faults.scope("sched") if faults is not None \
            else ""
        self._phase_no = 0
        self.task_retries = 0
        self.crashes_recovered = 0

    def finish(self, start: float | None = None) -> dict:
        """Fold all accumulated worker charges into the shared clock (in
        morsel order, so charged totals stay bit-identical across worker
        counts) and return the scheduler stats.  ``start`` is the shared
        clock's reading when this scheduler's work began; direct
        shared-clock charges since then (buffer pool, index page reads)
        count toward the makespan."""
        direct = (self._clock.now - start) if start is not None else 0.0
        clocks = self._worker_clocks
        makespan = direct + clocks.makespan()
        charged = direct + clocks.total()
        # suspend the budget limit while folding worker charges into
        # the shared clock: a failing query must still leave all of
        # its charges behind (the serial engines' contract), and the
        # budget itself was already enforced at phase boundaries
        limit = self._clock.limit
        self._clock.set_limit(None)
        try:
            clocks.merge_into(self._clock)
        finally:
            self._clock.set_limit(limit)
        if self._registry is not None:
            registry = self._registry
            registry.counter("exec.tasks").inc(self.tasks_dispatched)
            registry.counter("exec.parallel_phases").inc(clocks.phases)
            if self.task_retries:
                registry.counter("exec.task_retries").inc(self.task_retries)
            if self.crashes_recovered:
                registry.counter("exec.crashes_recovered").inc(
                    self.crashes_recovered)
            registry.histogram("exec.makespan").observe(makespan)
        return {
            "workers": self.workers,
            "morsel_rows": self.morsel_rows,
            "tasks": self.tasks_dispatched,
            "parallel_phases": clocks.phases,
            "virtual_charged": charged,
            "virtual_makespan": makespan,
            "modeled_speedup": (charged / makespan) if makespan > 0 else 1.0,
            "task_retries": self.task_retries,
            "crashes_recovered": self.crashes_recovered,
        }

    # -- the placement -----------------------------------------------------

    @property
    def lane(self) -> SimClock:
        return self._worker_clocks.serial_lane

    def pending(self) -> float:
        return self._worker_clocks.total()

    def scan_units(self, scan: ops.SeqScanOp) -> list[tuple[int, tuple]]:
        """Every morsel is local; page touches charge the shared clock."""
        return [(pl.COORDINATOR, morsel)
                for morsel in scan._table.scan_morsels(self.morsel_rows)]

    def dispatch(self, units, fn):
        results = self.map([item for _, item in units], fn)
        return [(pl.COORDINATOR, result) for result in results]

    # -- morsel dispatch ---------------------------------------------------

    def map(self, items: list, fn: Callable[[Any, SimClock], Any]) -> list:
        """Run ``fn(item, shard_clock)`` over items as one phase: one task
        per item, inline and in item order, each attempt on a fresh shard
        clock that the phase close list-schedules onto the ``workers``
        modeled workers.  Call :meth:`finish` once all maps are done to
        fold the task charges into the shared clock and read the stats.

        Recovery: retryable failures (injected or real — see
        :func:`~repro.common.errors.is_retryable`) re-run the morsel on a
        fresh shard clock, up to ``retry_limit`` extra attempts; every
        attempt's charges — including lost crashed attempts — are kept, in
        morsel/attempt order, so recovery cost shows up in the totals and
        the makespan.  Each distinct worker crash removes one virtual
        worker from this phase's makespan model (the survivors finish the
        work).  Anything else — a non-retryable error, an exhausted
        retry budget, ``KeyboardInterrupt`` / ``SystemExit`` — surfaces as
        itself from the morsel that raised it: no later morsel runs, and
        the phase closes over the charges made so far."""
        if not items:
            return []
        self.tasks_dispatched += len(items)
        phase = self._phase_no
        self._phase_no += 1
        # one shard clock per *attempt*, in morsel/attempt order (shard()
        # keeps each attempt's charges reachable by the tracer)
        shards: list[SimClock] = []
        results: list[Any] = []
        crashes = 0
        try:
            for i, item in enumerate(items):
                for attempt in count():
                    # failed and lost attempts keep their charges: the
                    # work (or part of it) really ran before the failure
                    shards.append(self._clock.shard())
                    try:
                        results.append(self._attempt(
                            fn, item, shards[-1], phase, i, attempt))
                        break
                    except Exception as exc:
                        if not is_retryable(exc) \
                                or attempt >= self.retry_limit:
                            raise
                        crashed = isinstance(exc, WorkerCrash)
                        if crashed:
                            crashes += 1
                            self.crashes_recovered += 1
                        else:
                            self.task_retries += 1
                        if self._tracer is not None:
                            self._tracer.event(
                                "worker_crash" if crashed else "task_retry",
                                phase=phase, morsel=i, attempt=attempt,
                                error=f"{type(exc).__name__}: {exc}")
        finally:
            self._close_phase(
                shards, max(1, min(self.workers, len(items)) - crashes))
        self.check_budget()
        return results

    def _close_phase(self, shards: list[SimClock], survivors: int) -> None:
        """List-schedule the phase's attempt clocks onto ``survivors``
        virtual workers; with a tracer, record where each landed."""
        placements = self._worker_clocks.placements
        before = len(placements) if placements is not None else 0
        self._worker_clocks.close_phase(shards, survivors)
        if placements is None:
            return
        # one task span per attempt, placed on the modeled virtual worker
        # timeline; the span carries the shard's own charge profile as
        # decoration (the charges were attributed to operator spans at
        # their site)
        for phase_no, task_idx, worker, start, end in placements[before:]:
            span = self._tracer.begin(
                f"morsel p{phase_no}.{task_idx}", "task", parent=None,
                phase=phase_no, morsel=task_idx, worker=worker)
            span.start, span.end = start, end
            for category, seconds in shards[task_idx].breakdown().items():
                span.add(category, _trace_to_fix(seconds), 0)

    def _attempt(self, fn: Callable[[Any, SimClock], Any], item: Any,
                 shard: SimClock, phase: int, index: int,
                 attempt: int) -> Any:
        """One attempt at one morsel, with fault injection around it.

        Injection order models the lifecycle: a ``task_error`` strikes
        before the work starts (nothing charged yet); a ``slow_worker``
        spike charges extra time on the shard after the work; a
        ``worker_crash`` strikes last — the work ran and charged, then the
        worker died before reporting, so the result is lost but the cost
        is real.  Fault decisions are pure functions of
        (seed, scope, phase, morsel, attempt).
        """
        faults = self.faults
        if faults is None:
            return fn(item, shard)
        site = f"{self._fault_scope}:{phase}:{index}:{attempt}"
        faults.maybe_raise("task_error", site, index=index, attempt=attempt)
        result = fn(item, shard)
        spec = faults.decide("slow_worker", site, index=index,
                             attempt=attempt)
        if spec is not None and spec.latency > 0:
            shard.advance(spec.latency, cat.FAULT_SLOW)
        faults.maybe_raise("worker_crash", site, index=index,
                           attempt=attempt)
        return result
