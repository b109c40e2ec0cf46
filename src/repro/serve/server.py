"""The adaptive PREDICT serving subsystem.

The paper's north star is an *autonomous* AI-powered data system serving
heavy concurrent traffic; the ``Db`` facade alone runs one PREDICT at a
time and leaves adaptation to a human calling ``fine_tune_model``.  This
module closes both gaps:

* :class:`PredictServer` admits many concurrent PREDICT requests and
  serves them through *dynamic micro-batches*: requests that are queued at
  the moment a serving lane frees and that target the same model identity
  (same table, target, and TRAIN ON feature signature) coalesce into one
  vectorized inference — one model-cache lookup, one batched columnar
  hash-and-forward pass, one GPU kernel-launch charge — instead of
  per-request model loads and launches.
* A versioned :class:`ModelCache` (LRU over materialized
  :class:`~repro.ai.model_manager.ModelManager` version snapshots) keeps
  hot models resident.  Each micro-batch *pins* the (name, version) it
  was formed with, so a refresh completing mid-flight never tears a
  batch: version swaps only take effect at batch-formation boundaries.
* The autonomy loop: the server scores predictions against ground truth
  where the scanned rows carry a non-NULL target (Brier/MSE, observed on
  the monitor's ``serving:<model>`` stream) and watches the training
  ``loss:<model>`` stream.  A drift event enqueues a background
  :class:`RefreshTask`; the refresh worker incrementally fine-tunes
  (suffix layers only, persisted via
  :meth:`~repro.ai.model_manager.ModelManager.incremental_update`) on its
  own :class:`~repro.common.simtime.LaneSchedule` lane while foreground
  serving continues on the pinned version, and the new version swaps in
  atomically once the serving timeline passes the refresh's completion.

Time model
----------
Like the placed execution engines' scheduler, the server executes all
work in deterministic program order but *places* it in virtual time with
:class:`~repro.common.simtime.LaneSchedule`: a
request's latency is ``completion - arrival`` on that modeled timeline,
and every virtual second of work is still charged exactly once to the
database's shared clock.  A single request served here charges
bit-identically to the same statement through ``Db.execute`` (the parity
suite in ``tests/test_serve.py`` asserts this); micro-batching and the
model cache then
cut the *per-request* cost, which is where the modeled throughput win in
``benchmarks/BENCH_serve.json`` comes from.

Robustness
----------
Serving survives injected and real failures (``docs/faults.md``):

* **Per-request deadlines** — ``submit(..., deadline=...)`` (or the
  server-wide ``default_deadline``) bounds a request's time in the
  system; requests that expire before service fail fast with
  ``DeadlineExceeded`` at zero cost, and a batch that completes past a
  member's deadline fails just that member (the result is dropped — the
  client already gave up).
* **Bounded retry with backoff** — a micro-batch whose execution fails
  is re-executed while the server's ``retry_policy``
  (:class:`~repro.common.errors.RetryPolicy`) grants a delay; each retry
  is placed on the serving lanes that delay after the failed completion,
  so retries cost latency on the modeled timeline exactly like real ones
  would.
* **Graceful refresh degradation** — a failed background refresh never
  takes serving down: the pinned version keeps serving, the failure is
  recorded in :meth:`PredictServer.stats`, and while
  :data:`REFRESH_RETRY` grants a delay the refresh re-arms that much
  later on the refresh lane (after which the next drift event may try
  again).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.ai.armnet import ARMNet
from repro.ai.loader import ColumnFeatures
from repro.ai.monitor import DriftEvent
from repro.ai.tasks import InferenceTask
from repro.common.errors import NeurDBError, RetryPolicy, check_at_least
from repro.common.faults import FaultPlan
from repro.common.lru import LRU
from repro.common.simtime import LaneSchedule
from repro.db import NeurDB, PredictContext
from repro.exec.executor import ResultSet
from repro.sql import ast


# Incremental-update hyperparameters of a background refresh, handed to
# ``NeurDB.fine_tune_model``.  They lean aggressive (large step, small
# batches => many gradient steps): a refresh only runs because the served
# distribution has already moved.
REFRESH_TUNE_LAST_LAYERS = 2
REFRESH_LEARNING_RATE = 5e-2
REFRESH_BATCH_SIZE = 256
# drift parameters of the ``serving:<model>`` loss streams (beside the
# ``serving_window`` option; None = the monitor's default cooldown)
SERVING_THRESHOLD = 0.5
SERVING_COOLDOWN = None
# retry budget and backoff base (virtual seconds) of a failed background
# refresh
REFRESH_RETRY = RetryPolicy(max_retries=3, backoff=1e-2)
# completed requests kept on ``PredictServer.completed``, oldest dropped
# first; ``stats()`` covers every request through running totals
RETAINED_REQUESTS = 1024


@dataclass
class PredictRequest:
    """One admitted PREDICT request and, after serving, its outcome."""

    request_id: int
    statement: ast.Predict
    arrival: float
    values: Any = ()               # what the statement's Params read
    deadline: Optional[float] = None   # absolute virtual-time deadline
    result: Optional[ResultSet] = None
    error: Optional[str] = None
    batch_id: Optional[int] = None
    batched_with: int = 0          # total requests in the same micro-batch
    lane: Optional[int] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    model_name: Optional[str] = None
    model_version: Optional[int] = None
    retries: int = 0               # batch re-executions this request rode

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise NeurDBError(f"request {self.request_id} not served yet")
        return self.completed_at - self.arrival


@dataclass
class RefreshTask:
    """One background model refresh, from drift event to version swap.

    State machine: ``queued`` (a drift event enqueued it) -> ``done``
    (the incremental fine-tune ran; the new version swaps in once serving
    time passes ``completed_at``) or ``failed`` (the fine-tune raised;
    serving continues on the pinned version).  While :data:`REFRESH_RETRY`
    grants a delay, a failure re-arms a successor task (``attempt + 1``)
    enqueued that delay after the failed completion; once the budget runs
    out, the next drift event may try again.
    """

    task_id: int
    model_name: str
    table: str
    target: str
    trigger: Optional[DriftEvent]
    enqueued_at: float
    attempt: int = 0               # 0 = original, n = nth backoff retry
    status: str = "queued"
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    version_before: Optional[int] = None
    version_after: Optional[int] = None
    swapped: bool = False
    error: Optional[str] = None


class ModelCache:
    """LRU cache of materialized model versions.

    Keys are ``(name, version timestamp)`` — a *snapshot*, never "the
    newest": callers resolve the version they want first, so a cached
    entry can never change meaning when a refresh persists a newer
    version.  A miss goes to
    :meth:`~repro.ai.model_manager.ModelManager.load_model` and therefore
    charges the usual per-layer load cost (the manager builds the version
    only if its own memo no longer holds it); hits charge nothing — the
    serving path's steady-state saving.  Cached models are the manager's
    read-only instances, so a refresh fine-tuning the same model cannot
    change a pinned version.  A cached model also keeps its
    :class:`~repro.ai.armnet.FeatureHasher`, and with it the memo of the
    feature ids it has hashed, from one batch to the next.
    """

    def __init__(self, manager, capacity: int = 4):
        self._manager = manager
        self._entries: "LRU[ARMNet]" = LRU(capacity)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str, version: int) -> ARMNet:
        key = (name.lower(), version)
        model = self._entries.get(key)
        if model is not None:
            self.hits += 1
            return model
        self.misses += 1
        model = self._manager.load_model(name, version)
        self._entries.put(key, model)
        return model


class PredictServer:
    """Micro-batched, drift-adaptive PREDICT serving over one NeurDB.

    Args:
        db: the database to serve; all work charges its shared clock.
        lanes: modeled concurrent serving lanes sharing the request queue.
        max_batch_requests: coalescing cap per micro-batch.
        max_batch_rows: stop adding requests to a batch once its
            materialized inputs reach this many rows (everything already
            materialized stays in the batch, so nothing is scanned twice).
        model_cache_size: LRU capacity of the model cache, in versions.
        refresh: default refresh policy — ``"auto"`` (drift enqueues a
            background fine-tune) or ``"manual"``; a request's
            ``WITH (refresh=...)`` knob overrides it for that model.
        refresh_epochs: passes (>= 1) a background refresh makes over its
            window (the other incremental-update hyperparameters are the
            ``REFRESH_*`` module constants).
        refresh_window: fine-tune on only the table's most recent rows (a
            sliding recency window — on a regime shift the freshest rows
            carry the new distribution, so refreshes adapt faster and
            cheaper).  None defers to the database's connection-level
            ``refresh_window`` knob, whose own default is the full table.
        serving_window: observations (>= 2) per drift window of the
            ``serving:<model>`` metric streams.
        faults: a seeded :class:`~repro.common.faults.FaultPlan`;
            ``serve_error`` specs fail batch executions (then retried),
            ``refresh_fail`` specs fail background refreshes (then
            re-armed).  Defaults to the database's plan.
        retry_policy: how often a failed micro-batch is re-executed
            before its requests fail for good, and the backoff base
            (virtual seconds) between attempts: retry *n* (from 0) is
            placed ``backoff * 2**n`` after the failed completion.
        default_deadline: relative deadline (virtual seconds from
            arrival) applied to every request that does not pass its own
            to :meth:`submit`; None (default) means no deadline.
    """

    def __init__(self, db: NeurDB, lanes: int = 1,
                 max_batch_requests: int = 16, max_batch_rows: int = 8192,
                 model_cache_size: int = 4, refresh: str = "auto",
                 refresh_epochs: int = 8,
                 refresh_window: int | None = None, serving_window: int = 4,
                 faults: FaultPlan | None = None,
                 retry_policy: RetryPolicy = RetryPolicy(2, 1e-3),
                 default_deadline: float | None = None):
        if refresh not in ("auto", "manual"):
            raise ValueError(f"refresh must be auto or manual, "
                             f"got {refresh!r}")
        max_batch_requests = check_at_least("max_batch_requests",
                                            max_batch_requests)
        max_batch_rows = check_at_least("max_batch_rows", max_batch_rows)
        model_cache_size = check_at_least("model_cache_size",
                                          model_cache_size)
        refresh_epochs = check_at_least("refresh_epochs", refresh_epochs)
        if refresh_window is not None:
            refresh_window = check_at_least("refresh_window", refresh_window)
        serving_window = check_at_least("serving_window", serving_window, 2)
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(f"default_deadline must be > 0 or None, "
                             f"got {default_deadline}")
        if not isinstance(retry_policy, RetryPolicy):
            raise TypeError(f"retry_policy must be a RetryPolicy, "
                            f"got {retry_policy!r}")
        self.db = db
        self.clock = db.clock
        self.cache = ModelCache(db.models, capacity=model_cache_size)
        self.lanes = LaneSchedule(lanes)
        self.refresh_lane = LaneSchedule(1)
        self.max_batch_requests = max_batch_requests
        self.max_batch_rows = max_batch_rows
        self.default_refresh = refresh
        self.refresh_epochs = refresh_epochs
        self.refresh_window = refresh_window
        # robustness knobs + counters (docs/faults.md)
        self.faults = faults if faults is not None else db.faults
        self.retry_policy = retry_policy
        self.default_deadline = default_deadline
        self.deadline_misses = 0
        self.batch_retries = 0
        self.refresh_retries = 0
        # unified observability: counters/events land in the database's
        # metrics registry; spans go to whatever tracer rides the clock
        self.registry = db.registry
        self.registry.add_collector(self._collect_gauges)
        self.serving_window = serving_window
        self._pending: deque[PredictRequest] = deque()
        self.completed: deque[PredictRequest] = deque(
            maxlen=RETAINED_REQUESTS)
        # running totals over every completed request, which stats()
        # reads in place of the requests themselves
        self._requests = 0
        self._succeeded = 0
        self._ok_batches = 0       # batches with a successful request
        self._latencies = array("d")   # of the successful requests
        self.refreshes: list[RefreshTask] = []
        self._refresh_queue: deque[RefreshTask] = deque()
        self._serving_version: dict[str, int] = {}
        self._refresh_mode: dict[str, str] = {}
        self._watched_streams: set[str] = set()
        self._contexts: dict[int, PredictContext] = {}
        self._next_request_id = 1
        self._next_batch_id = 0
        self._next_refresh_id = 1
        self._event_time = 0.0  # serving-timeline position for triggers
        self._last_arrival = 0.0

    # -- admission -----------------------------------------------------------

    def submit(self, statement: "str | ast.Predict",
               at: float | None = None,
               deadline: float | None = None) -> PredictRequest:
        """Admit one PREDICT request at virtual arrival time ``at``
        (default: the latest arrival admitted so far).  Requests must be
        submitted in arrival order and are served by :meth:`drain`.

        ``deadline`` bounds the request's time in the system, in virtual
        seconds *relative to arrival* (default: the server's
        ``default_deadline``); a request that cannot complete in time
        fails with ``DeadlineExceeded`` instead of returning a late
        result."""
        values: Any = ()
        if isinstance(statement, str):
            # the connection's statement table: a text whose template is
            # filed there is not parsed
            entry, values = self.db.template(statement)
            statement = entry.statement
        if not isinstance(statement, ast.Predict):
            raise NeurDBError("PredictServer serves PREDICT statements "
                              f"only, got {type(statement).__name__}")
        if at is None:
            at = self._last_arrival
        if at < self._last_arrival:
            raise NeurDBError("requests must be submitted in arrival order")
        if deadline is None:
            deadline = self.default_deadline
        elif deadline <= 0:
            raise NeurDBError(f"deadline must be > 0, got {deadline}")
        self._last_arrival = float(at)
        request = PredictRequest(request_id=self._next_request_id,
                                 statement=statement, values=values,
                                 arrival=float(at),
                                 deadline=(float(at) + deadline
                                           if deadline is not None
                                           else None))
        self._next_request_id += 1
        self._pending.append(request)
        return request

    def refresh_now(self, table: str, target: str) -> RefreshTask:
        """Manually enqueue a background refresh for the model most
        recently trained for ``table.target`` (the ``refresh=manual``
        escape hatch); it runs on the next drain."""
        model_name = self.db.catalog.bound_model(table, target)
        if model_name is None:
            raise NeurDBError(f"no model bound for {table}.{target}")
        return self._enqueue_refresh(model_name, trigger=None,
                                     at=self._event_time)

    # -- serving loop --------------------------------------------------------

    def drain(self) -> list[PredictRequest]:
        """Serve every pending request (and run any enqueued refreshes);
        returns the requests completed by this call, in service order."""
        served: list[PredictRequest] = []
        self._run_refreshes()
        while self._pending:
            served.extend(self._serve_next_batch())
            self._run_refreshes()
        return served

    # -- batch formation -----------------------------------------------------

    def _serve_next_batch(self) -> list[PredictRequest]:
        # deferrals (row cap) and different-model skips can perturb the
        # queue; keep FIFO-by-arrival deterministic
        self._pending = deque(sorted(
            self._pending, key=lambda r: (r.arrival, r.request_id)))
        head = self._pending.popleft()
        form_time = max(self.lanes.next_free(), head.arrival)
        self._apply_swaps(form_time)
        self._event_time = form_time

        if self._expired(head, form_time):
            return [self._fail_unserved(head, form_time)]
        head_ctx = self._bind(head)
        if head_ctx is None:  # bind failure: complete as failed, zero cost
            return [self._fail_unserved(head, form_time)]

        batch = [(head, head_ctx)]
        expired: list[PredictRequest] = []
        skipped: list[PredictRequest] = []
        while self._pending and len(batch) < self.max_batch_requests:
            candidate = self._pending[0]
            if candidate.arrival > form_time:
                break
            if self._expired(candidate, form_time):
                expired.append(self._fail_unserved(self._pending.popleft(),
                                                   form_time))
                continue
            ctx = self._bind(candidate)
            if ctx is None or ctx.model_name != head_ctx.model_name:
                # different model (or unbindable): leave for a later batch
                skipped.append(self._pending.popleft())
                continue
            batch.append((candidate, ctx))
            self._pending.popleft()
        for request in reversed(skipped):
            self._pending.appendleft(request)
        return expired + self._execute_batch(batch, form_time)

    def _expired(self, request: PredictRequest, now: float) -> bool:
        """Has the request's deadline passed before service could even
        start?  Records the miss (error + counter) when so."""
        if request.deadline is None or now <= request.deadline:
            return False
        request.error = (f"DeadlineExceeded: deadline "
                         f"{request.deadline:.6f} passed at {now:.6f} "
                         f"before service")
        self._deadline_miss(request, now)
        return True

    def _deadline_miss(self, request: PredictRequest, when: float) -> None:
        self.deadline_misses += 1
        self.registry.event("serve.deadline_miss", request.error,
                            time=when, request_id=request.request_id)
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event("deadline_miss", time=when,
                         request_id=request.request_id)

    def _fail_unserved(self, request: PredictRequest,
                       at: float) -> PredictRequest:
        """Complete a request that never executed (bind failure, expired
        deadline) at zero cost; its error is already recorded."""
        request.batch_id = self._next_batch_id
        self._next_batch_id += 1
        request.batched_with = 1
        lane, start, completion = self.lanes.assign(at, 0.0)
        request.lane, request.started_at, request.completed_at = (
            lane, start, completion)
        self._contexts.pop(request.request_id, None)
        self._complete([request])
        self._trace_request(request, None)
        return request

    def _complete(self, requests: list[PredictRequest]) -> None:
        """File one batch's finished requests: retained on ``completed``,
        counted in the running totals :meth:`stats` reads."""
        self.completed.extend(requests)
        ok = [r.latency for r in requests if r.error is None]
        self._latencies.extend(ok)
        self._requests += len(requests)
        self._succeeded += len(ok)
        self._ok_batches += bool(ok)

    def _trace_request(self, request: PredictRequest, batch_span) -> None:
        """Record a completed request's span tree on the active tracer:
        request (arrival -> completion) with a queue-wait child, parented
        under its micro-batch span when it rode one."""
        tracer = self.clock.tracer
        if tracer is None or request.completed_at is None:
            return
        span = tracer.begin(f"request {request.request_id}", "request",
                            parent=batch_span,
                            request_id=request.request_id,
                            lane=request.lane, batch_id=request.batch_id,
                            model=request.model_name,
                            retries=request.retries, error=request.error)
        span.start = request.arrival
        span.end = request.completed_at
        if (request.started_at is not None
                and request.started_at > request.arrival):
            wait = tracer.begin("queue-wait", "queue", parent=span,
                                request_id=request.request_id)
            wait.start = request.arrival
            wait.end = request.started_at

    def request_trace(self, request_id: int) -> dict | None:
        """Chrome trace JSON of one served request's span subtree (needs
        an attached tracer — ``connect(tracing=True)``)."""
        from repro.obs.export import request_trace as _export
        tracer = self.clock.tracer
        if tracer is None:
            return None
        return _export(tracer, request_id)

    def _collect_gauges(self) -> dict[str, float]:
        """Flat-scalar view of :meth:`stats` for the metrics registry."""
        gauges: dict[str, float] = {}
        for key, value in self.stats().items():
            if isinstance(value, (int, float)):
                gauges[f"serve.{key}"] = float(value)
            elif isinstance(value, dict) and key == "latency":
                for name, quantile in value.items():
                    gauges[f"serve.latency_{name}"] = float(quantile)
        return gauges

    def _bind(self, request: PredictRequest) -> PredictContext | None:
        """Bind (and cache) a request's statement; None on bind errors,
        which are recorded on the request."""
        ctx = self._contexts.get(request.request_id)
        if ctx is not None:
            return ctx
        try:
            ctx = self.db.bind_predict(request.statement, request.values)
        except NeurDBError as exc:
            request.error = str(exc)
            return None
        self._contexts[request.request_id] = ctx
        request.model_name = ctx.model_name
        if request.statement.refresh is not None:
            self._refresh_mode[ctx.model_name] = request.statement.refresh
        return ctx

    # -- batch execution -----------------------------------------------------

    def _execute_batch(self, batch: list[tuple[PredictRequest,
                                               PredictContext]],
                       form_time: float) -> list[PredictRequest]:
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        head_ctx = batch[0][1]
        model_name = head_ctx.model_name
        faults = self.faults
        tracer = self.clock.tracer
        batch_span = None
        if tracer is not None:
            batch_span = tracer.begin(f"batch {batch_id}", "batch",
                                      parent=None, batch_id=batch_id,
                                      model=model_name)

        # retry loop: each attempt re-executes the whole batch (training
        # is idempotent-by-presence, materialization re-runs, charges
        # accumulate) and occupies the serving lanes again after the
        # policy's backoff, so recovery shows up in latency exactly like
        # the modeled cost of the work itself
        attempt = 0
        ready = form_time
        trained_ever = False
        while True:
            before = self.clock.now
            failure: str | None = None
            delay: float | None = None
            parts: list[dict] = []
            model_version: int | None = None
            if batch_span is not None:
                tracer.push(batch_span)
            try:
                if faults is not None:
                    faults.maybe_raise(
                        "serve_error", f"serve:{batch_id}:{attempt}",
                        index=batch_id, target=model_name, attempt=attempt)
                trained_now = (self.db.ensure_predict_model(head_ctx)
                               or trained_ever)
                trained_ever = trained_now
                # pin the serving version: set on first sight of the model,
                # changed only by an atomic swap at a batch boundary
                version = self._serving_version.setdefault(
                    model_name, self.db.models.versions(model_name)[-1])
                model_version = version

                total_rows = 0
                for request, ctx in batch:
                    if total_rows >= self.max_batch_rows and parts:
                        # row cap reached: push the not-yet-materialized
                        # tail back to the queue front (nothing scanned
                        # twice; a truncated batch stays truncated across
                        # retries, so nothing is deferred twice either)
                        index = [r for r, _ in batch].index(request)
                        for deferred, _ in reversed(batch[index:]):
                            self._pending.appendleft(deferred)
                        batch = batch[:index]
                        break
                    features, targets, target_null = \
                        self.db.prediction_inputs(ctx, with_targets=True)
                    parts.append(dict(request=request, ctx=ctx,
                                      features=features, targets=targets,
                                      target_null=target_null,
                                      trained_now=trained_now and
                                      request is batch[0][0]))
                    total_rows += len(features)

                occupied = [p for p in parts if p["features"]]
                if occupied:
                    # load (or hit) the pinned snapshot only when there is
                    # something to infer — the facade path skips the model
                    # load for an empty prediction set, and parity holds
                    # us to the same charges
                    model = self.cache.get(model_name, version)
                    combined = ColumnFeatures.concat(
                        [p["features"] for p in occupied])
                    inference = self.db.ai_engine.infer_with_model(
                        InferenceTask(model_name=model_name), model,
                        combined)
                    offset = 0
                    for part in occupied:
                        n = len(part["features"])
                        part["predictions"] = \
                            inference.predictions[offset:offset + n]
                        offset += n
            except Exception as exc:
                # a server isolates request failures: whatever escaped
                # training, materialization, or inference fails this
                # batch's requests (error recorded, charges kept) without
                # stranding the rest of the queue
                failure = f"{type(exc).__name__}: {exc}"
                delay = self.retry_policy.next_delay(exc, attempt)
            finally:
                if batch_span is not None:
                    tracer.pop()

            cost = self.clock.now - before
            lane, start, completion = self.lanes.assign(ready, cost)
            if delay is not None:
                self.batch_retries += 1
                attempt += 1
                self.registry.event(
                    "serve.batch_retry",
                    f"batch {batch_id} retry {attempt}/"
                    f"{self.retry_policy.max_retries} after {failure}",
                    time=completion, batch_id=batch_id, attempt=attempt,
                    error=failure)
                if tracer is not None:
                    tracer.event("batch_retry", time=completion,
                                 batch_id=batch_id, attempt=attempt,
                                 error=failure)
                ready = completion + delay
                continue
            break

        if batch_span is not None:
            batch_span.start = start
            batch_span.end = completion
            batch_span.attrs.update(lane=lane, requests=len(batch),
                                    attempts=attempt + 1,
                                    version=model_version)
        served: list[PredictRequest] = []
        if not failure:
            for part in parts:
                request, ctx = part["request"], part["ctx"]
                request.result = self.db.predict_result(
                    ctx, part["features"], part.get("predictions"),
                    part["trained_now"])
        for request, _ in batch:
            request.batch_id = batch_id
            request.batched_with = len(batch)
            request.lane, request.started_at, request.completed_at = (
                lane, start, completion)
            request.model_version = model_version
            request.retries = attempt
            if failure:
                request.error = failure
            elif (request.deadline is not None
                    and completion > request.deadline):
                # finished, but too late: the client already gave up, so
                # the result is dropped and the request fails
                request.result = None
                request.error = (f"DeadlineExceeded: completed at "
                                 f"{completion:.6f} past deadline "
                                 f"{request.deadline:.6f}")
                self._deadline_miss(request, completion)
            self._contexts.pop(request.request_id, None)
            self._trace_request(request, batch_span)
            served.append(request)
        self._complete(served)

        # score against ground truth & let the monitor decide on drift;
        # triggers observe the *completion* time of this batch
        if not failure:
            self._event_time = completion
            for part in parts:
                self._observe_serving_loss(model_name, part)
            self._watch_model(model_name)
        return served

    # -- monitoring & the autonomy loop --------------------------------------

    def _observe_serving_loss(self, model_name: str, part: dict) -> None:
        targets, null = part["targets"], part["target_null"]
        if targets is None or part["request"].result is None:
            return
        features = part["features"]
        if not features:
            return
        predictions = np.asarray(part["predictions"], dtype=np.float64)
        scored = ~null
        if not scored.any():
            return
        try:
            truth = np.asarray(
                [float(v) for v in np.asarray(targets)[scored]],
                dtype=np.float64)
        except (TypeError, ValueError):
            return  # non-numeric ground truth: nothing to score
        # Brier score for classification (probability vs 0/1 label),
        # plain MSE for regression — one bounded-below "lower is better"
        # loss for both task types
        loss = float(np.mean((predictions[scored] - truth) ** 2))
        stream = f"serving:{model_name}"
        self.db.monitor.ensure_stream(stream, higher_is_better=False,
                                      threshold=SERVING_THRESHOLD,
                                      window=self.serving_window,
                                      cooldown=SERVING_COOLDOWN)
        self._watch_stream(stream, model_name)
        self.db.monitor.observe(stream, loss)

    def _watch_model(self, model_name: str) -> None:
        """Subscribe to the model's training-loss stream too (it exists
        once training has run), so loss drift seen by the Db facade also
        feeds the refresh queue."""
        stream = f"loss:{model_name}"
        if self.db.monitor.has_stream(stream):
            self._watch_stream(stream, model_name)

    def _watch_stream(self, stream: str, model_name: str) -> None:
        if stream in self._watched_streams:
            return
        self._watched_streams.add(stream)
        self.db.monitor.on_drift(
            stream,
            lambda event: self._on_drift(model_name, event))

    def _refresh_policy(self, model_name: str) -> str:
        return self._refresh_mode.get(model_name, self.default_refresh)

    def _on_drift(self, model_name: str, event: DriftEvent) -> None:
        if self._refresh_policy(model_name) != "auto":
            return
        # one refresh in flight per model: skip when one is queued or
        # done-but-not-yet-swapped; a failed one may be retried
        for task in self.refreshes + list(self._refresh_queue):
            if task.model_name != model_name:
                continue
            if task.status == "queued" or (task.status == "done"
                                           and not task.swapped):
                return
        self._enqueue_refresh(model_name, trigger=event,
                              at=self._event_time)

    def _enqueue_refresh(self, model_name: str, trigger: DriftEvent | None,
                         at: float, attempt: int = 0) -> RefreshTask:
        # the catalog's record of what the model was trained on says
        # which table the refresh reads (and, in fine_tune_model, which
        # columns): a drift event tunes the model it was raised for
        binding = self.db.catalog.model_binding(model_name)
        if binding is None:
            raise NeurDBError(f"no table/target binding recorded for "
                              f"model {model_name!r}")
        task = RefreshTask(task_id=self._next_refresh_id,
                           model_name=model_name, table=binding.table,
                           target=binding.target, trigger=trigger,
                           enqueued_at=at, attempt=attempt)
        self._next_refresh_id += 1
        self._refresh_queue.append(task)
        return task

    def _run_refreshes(self) -> None:
        """Execute queued refreshes on the background lane.  The work is
        *performed* now (deterministic program order) but *placed* on the
        refresh lane's timeline, so serving latencies never include it;
        the version swap is deferred until the serving timeline passes the
        refresh's modeled completion."""
        while self._refresh_queue:
            task = self._refresh_queue.popleft()
            before = self.clock.now
            delay: float | None = None
            tracer = self.clock.tracer
            refresh_span = None
            if tracer is not None:
                refresh_span = tracer.begin(
                    f"refresh {task.task_id} ({task.model_name})", "refresh",
                    parent=None, task_id=task.task_id,
                    model=task.model_name, attempt=task.attempt)
                tracer.push(refresh_span)
            try:
                task.version_before = \
                    self.db.models.versions(task.model_name)[-1]
                if self.faults is not None:
                    self.faults.maybe_raise(
                        "refresh_fail",
                        f"refresh:{task.model_name}:{task.task_id}"
                        f":{task.attempt}",
                        index=task.task_id, target=task.model_name,
                        attempt=task.attempt)
                self.db.fine_tune_model(
                    task.table, task.target,
                    tune_last_layers=REFRESH_TUNE_LAST_LAYERS,
                    epochs=self.refresh_epochs,
                    learning_rate=REFRESH_LEARNING_RATE,
                    batch_size=REFRESH_BATCH_SIZE,
                    window_rows=self.refresh_window,
                    model_name=task.model_name)
                task.version_after = \
                    self.db.models.versions(task.model_name)[-1]
                task.status = "done"
            except Exception as exc:
                # adaptation is best-effort: a failed refresh must not
                # take serving down — the pinned version keeps serving
                # while the failure is recorded (stats()["refresh_failed"])
                # and re-armed below while the policy grants a delay
                task.status = "failed"
                task.error = f"{type(exc).__name__}: {exc}"
                delay = REFRESH_RETRY.next_delay(exc, task.attempt)
            finally:
                if refresh_span is not None:
                    tracer.pop()
            cost = self.clock.now - before
            _, start, completion = self.refresh_lane.assign(
                task.enqueued_at, cost)
            task.started_at, task.completed_at = start, completion
            if refresh_span is not None:
                refresh_span.start = start
                refresh_span.end = completion
                refresh_span.attrs.update(status=task.status,
                                          error=task.error)
            self.refreshes.append(task)
            if task.status == "failed":
                self.registry.event(
                    "serve.refresh_fail",
                    f"refresh {task.task_id} of {task.model_name} failed: "
                    f"{task.error}",
                    time=completion, task_id=task.task_id,
                    model=task.model_name, attempt=task.attempt,
                    error=task.error)
            if delay is not None:
                # re-arm with backoff on the refresh lane; the retry is a
                # fresh queued task, so the one-in-flight dedupe in
                # _on_drift keeps holding while it waits
                self.refresh_retries += 1
                if tracer is not None:
                    tracer.event("refresh_retry", time=completion,
                                 task_id=task.task_id,
                                 model=task.model_name,
                                 attempt=task.attempt + 1)
                self._enqueue_refresh(
                    task.model_name, task.trigger,
                    at=completion + delay,
                    attempt=task.attempt + 1)

    def _apply_swaps(self, now: float) -> None:
        """Atomically swap in refreshed versions whose background
        completion time has passed; pinned in-flight versions are never
        touched (batches formed before ``now`` already hold their model)."""
        for task in self.refreshes:
            if (task.status == "done" and not task.swapped
                    and task.completed_at is not None
                    and task.completed_at <= now):
                self._serving_version[task.model_name] = task.version_after
                task.swapped = True

    # -- introspection -------------------------------------------------------

    def serving_version(self, model_name: str) -> int | None:
        """The version currently pinned for serving, or None if the model
        has not been served yet."""
        return self._serving_version.get(model_name.lower())

    def stats(self) -> dict:
        """Serving metrics over everything completed so far (``retained``
        of those requests are still on ``completed``)."""
        ok = self._succeeded
        latencies = np.array(self._latencies, dtype=np.float64)
        batches = self._ok_batches
        makespan = self.lanes.makespan()
        out = {
            "requests": self._requests,
            "failed": self._requests - ok,
            "retained": len(self.completed),
            "batches": batches,
            "mean_batch_requests": (ok / batches) if batches else 0.0,
            "lanes": self.lanes.lanes,
            "serving_makespan": makespan,
            "throughput_rps": (ok / makespan) if makespan > 0 else 0.0,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "refreshes": len(self.refreshes),
            "refreshes_swapped": sum(1 for t in self.refreshes
                                     if t.swapped),
            # robustness counters: nothing fails silently (docs/faults.md)
            "deadline_misses": self.deadline_misses,
            "batch_retries": self.batch_retries,
            "refresh_failed": sum(1 for t in self.refreshes
                                  if t.status == "failed"),
            "refresh_retries": self.refresh_retries,
            "trigger_errors": len(self.db.monitor.trigger_errors),
            "faults_injected": (self.faults.counts()
                                if self.faults is not None else {}),
        }
        if len(latencies):
            out["latency"] = {
                "mean": float(latencies.mean()),
                "p50": float(np.percentile(latencies, 50)),
                "p95": float(np.percentile(latencies, 95)),
                "p99": float(np.percentile(latencies, 99)),
                "max": float(latencies.max()),
            }
        return out
