"""Morsel-driven parallel execution: the worker-pool placement.

A :class:`RowBlock` is a self-contained unit of work, so the batch engine
parallelizes the way Leis et al.'s morsel-driven scheduler does: the scan
is split into *morsels* (fixed-size column batches, default
:data:`DEFAULT_MORSEL_ROWS` rows), workers pull the next morsel index from
a shared counter — natural load balancing, no static partitioning — and
push each morsel through a whole compiled **pipeline** pass
(:class:`~repro.exec.pipeline.BlockPass`).  *What* runs in which phase is
the shared walk of :class:`~repro.exec.pipeline.PlacedDriver`;
:class:`MorselScheduler` is the placement that says *how*: every site is
this process (nothing moves at a breaker), a phase's tasks run on a
thread pool with retry/crash recovery, and their charges are accounted
by :class:`~repro.common.simtime.WorkerClocks`.

The module's contract, which `tests/test_parallel.py` and the parity
sweep in `tests/test_batch_parity.py` enforce:

* **Ordering / determinism** — results are reassembled by morsel sequence
  number, so the output rows (values, Python types, and order), the
  ``rows_out`` counters, and the charged virtual-time totals are identical
  to the serial batch engine for *any* worker count and any thread
  interleaving.  Float-sensitive aggregate state is never combined by
  adding subtotals; partials carry raw value arrays and the merge
  accumulates them in global morsel order (see
  ``AggregateOp.partial_block``), which keeps sums bit-identical.
* **Virtual time** — every morsel task charges a private shard clock; when
  a phase closes, :class:`~repro.common.simtime.WorkerClocks`
  list-schedules the task charges in morsel order onto W virtual workers
  (the pull-the-next-morsel dispatch a real scheduler performs).  The *sum*
  of all charges is merged into the query's shared clock at the end, so
  totals match the serial engines (the parity invariant), while the
  per-phase *max worker load* models the parallel makespan a real
  multicore would see — deterministically, independent of how the GIL
  interleaved the actual threads.  Buffer-pool charges land on the
  shared clock while morsels are split (page access is inherently shared)
  and count fully toward the makespan.  The aggregate merge itself is
  modeled as free: its real cost scales with group counts, not row counts,
  and every per-row cost has already been charged in a worker — charging
  it again would break total parity.
* **Scope of parallelism** — every pipeline's ``parallel_safe`` stage
  prefix runs morsel-parallel: scan→filter→project chains, hash-join
  probes (and any filters/projections above the join) fused into the
  probe-side scan task, aggregate partials, and sort runs.  The merges
  (one stable grouping of the partials' representative rows, one stable
  sort over the runs) are array passes on the serial lane.  Order-sensitive
  stages (Distinct's seen set) and operators without a block
  decomposition (NestedLoopJoin, IndexScan, EmptyRow) run on the serial
  lane, with their *inputs* still computed in parallel.  A plan
  containing LIMIT anywhere runs the streaming driver on the serial lane.
* **Single-worker mode** — ``workers=1`` dispatches inline on the calling
  thread with no threads created at all: fully deterministic, used as the
  reference in scheduler tests.
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

import threading
from itertools import count as _shared_counter
from typing import Any, Callable

from repro.analysis.sanitizer import sanitizer as _sanitizer
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
    """The worker pool: runs a phase's tasks morsel-driven on ``workers``
    threads, with retry and crash recovery, and accounts their charges.

    ``run(operator)`` (the shared walk) returns ``(blocks, stats)``: the
    result blocks in serial-engine order and a stats dict with the
    modeled parallel timings.  :meth:`map` / :meth:`finish` expose the
    same pool to non-operator work.
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
        self._counter_lock: Any = threading.Lock()
        if _sanitizer.enabled():
            # lockset sanitizer (REPRO_SANITIZE=1): record this
            # scheduler's own counter writes with their held locks
            self._counter_lock = _sanitizer.lock(self._counter_lock,
                                                 "_counter_lock")
            _sanitizer.instrument(self)

    def _compile(self, operator: ops.Operator) -> pl.PipelineProgram:
        program = super()._compile(operator)
        if _sanitizer.enabled():
            # instrument AFTER compilation: pipeline compilation
            # dispatches on type(op), which the class swap changes
            _sanitizer.instrument_tree(operator)
        return program

    def finish(self, start: float | None = None) -> dict:
        """Fold all accumulated worker charges into the shared clock (in
        deterministic morsel order, so charged totals stay bit-identical
        across worker counts and thread interleavings) and return the
        scheduler stats.  ``start`` is the shared clock's reading when this
        scheduler's work began; direct shared-clock charges since then
        (buffer pool, index page reads) count toward the makespan."""
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
        if _sanitizer.enabled():
            _sanitizer.check()
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
        """Run ``fn(item, shard_clock)`` over items as one phase,
        morsel-driven: workers pull the next item index from a shared
        counter, so a slow morsel never stalls the others.  Results come
        back in item order regardless of which worker ran what.  Public
        for non-operator work too (the AI loader's training-data
        materialization): call :meth:`finish` once all maps are done to
        fold the worker charges into the shared clock and read the stats.

        Recovery: retryable failures (injected or real — see
        :func:`~repro.common.errors.is_retryable`) re-run the morsel on a
        fresh shard clock, up to ``retry_limit`` extra attempts; every
        attempt's charges — including lost crashed attempts — are kept, in
        morsel/attempt order, so recovery cost shows up in the totals and
        the makespan.  Each distinct worker crash removes one virtual
        worker from this phase's makespan model (the survivors finish the
        work)."""
        if not items:
            return []
        self.tasks_dispatched += len(items)
        n_workers = min(self.workers, len(items))
        phase = self._phase_no
        self._phase_no += 1
        # one shard clock per *attempt*: charges are later list-scheduled
        # onto virtual workers in morsel/attempt order
        # (WorkerClocks.close_phase), so the modeled makespan does not
        # depend on which OS thread happened to grab which morsel under
        # the GIL.  attempt_clocks[i] is only ever touched by the single
        # worker running morsel i.
        attempt_clocks: list[list[SimClock]] = [[] for _ in items]
        results: list[Any] = [None] * len(items)
        crashes = [0]

        tracer = self._tracer

        def run_task(i: int) -> Any:
            attempt = 0
            while True:
                # shard() keeps each attempt's charges reachable by the
                # tracer (attribution only; the shared clock folds them
                # at merge time)
                shard = self._clock.shard()
                try:
                    result = self._attempt(fn, items[i], shard, phase, i,
                                           attempt)
                except Exception as exc:
                    # partial/lost charges are kept either way: the work
                    # (or part of it) really ran before the failure
                    attempt_clocks[i].append(shard)
                    crashed = isinstance(exc, WorkerCrash)
                    if not is_retryable(exc) or attempt >= self.retry_limit:
                        raise
                    with self._counter_lock:
                        if crashed:
                            crashes[0] += 1
                            self.crashes_recovered += 1
                        else:
                            self.task_retries += 1
                    if tracer is not None:
                        tracer.event(
                            "worker_crash" if crashed else "task_retry",
                            phase=phase, morsel=i, attempt=attempt,
                            error=f"{type(exc).__name__}: {exc}")
                    attempt += 1
                    continue
                attempt_clocks[i].append(shard)
                return result

        def close_phase() -> None:
            flat = [shard for per_task in attempt_clocks
                    for shard in per_task]
            survivors = max(1, n_workers - crashes[0])
            placements = self._worker_clocks.placements
            before = len(placements) if placements is not None else 0
            self._worker_clocks.close_phase(flat, survivors)
            if tracer is not None and placements is not None:
                # one task span per attempt, placed on the modeled virtual
                # worker timeline; the span carries the shard's own charge
                # profile as decoration (the charges were attributed to
                # operator spans at their site)
                for (phase_no, task_idx, worker, start, end) in \
                        placements[before:]:
                    span = tracer.begin(
                        f"morsel p{phase_no}.{task_idx}", "task",
                        parent=None, phase=phase_no, morsel=task_idx,
                        worker=worker)
                    span.start, span.end = start, end
                    if task_idx < len(flat):
                        for category, seconds in \
                                flat[task_idx].breakdown().items():
                            span.add(category, _trace_to_fix(seconds), 0)

        if n_workers == 1:
            # deterministic inline mode: no threads at all
            try:
                for i in range(len(items)):
                    results[i] = run_task(i)
            finally:
                close_phase()
            self.check_budget()
            return results
        grab = _shared_counter()
        errors: list[tuple[int, BaseException]] = []
        interrupts: list[BaseException] = []
        stop = threading.Event()

        def work() -> None:
            while not stop.is_set():
                i = next(grab)  # C-level atomic under the GIL
                if i >= len(items):
                    return
                try:
                    results[i] = run_task(i)
                except (KeyboardInterrupt, SystemExit) as exc:
                    # not a task failure: surface the interrupt itself,
                    # never retry it or bury it under a morsel error
                    with self._counter_lock:
                        interrupts.append(exc)
                    stop.set()
                    return
                except BaseException as exc:
                    with self._counter_lock:
                        errors.append((i, exc))
                    stop.set()  # no new morsels; in-flight ones finish
                    return

        threads = [threading.Thread(target=work, name=f"morsel-worker-{w}")
                   for w in range(n_workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        close_phase()
        if interrupts:
            raise interrupts[0]
        if errors:
            # morsels are pulled in index order, so every morsel before a
            # recorded error also ran (and recorded its own error if it had
            # one): the minimum index is THE first failing morsel, making
            # the surfaced error deterministic across thread interleavings
            # (in-flight and already-completed later morsels still count,
            # so a failing query may charge more than the serial engines)
            raise min(errors, key=lambda pair: pair[0])[1]
        self.check_budget()
        return results

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
        (seed, scope, phase, morsel, attempt), never of thread timing.
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
