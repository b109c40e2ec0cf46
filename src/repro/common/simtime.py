"""Virtual clock used for all performance accounting.

The paper evaluates NeurDB on a 24-thread server with GPUs; real wall-clock
measurements in single-process Python would be dominated by interpreter
overhead and could not show multi-thread scalability at all.  Instead, every
performance-sensitive component charges an explicit cost to a
:class:`SimClock`.  Costs are expressed in virtual seconds and are calibrated
so the *relationships* between systems (who wins, by what factor, where
crossovers fall) match the paper's figures.

The clock is deliberately simple: a float accumulator plus named cost
counters, so tests can assert both totals and per-category breakdowns.
"""

from __future__ import annotations

from collections import defaultdict


class BudgetExceeded(Exception):
    """Raised when a clock with a budget limit advances past it.

    Used to cut off the execution of pathological candidate plans (e.g. a
    nested-loop join the optimizer should never pick): the measured latency
    is then *censored at the cap*, which is all plan ranking needs."""


class SimClock:
    """Accumulates virtual time, optionally split by named category.

    An observability :class:`~repro.obs.trace.Tracer` may be attached via
    the ``tracer`` attribute; when present it is *notified* of every
    charge after the accumulators update.  The tracer never touches the
    float math — with and without a tracer the clock performs the same
    ``+=`` sequence on the same values, which is what keeps traced runs
    bit-identical to untraced ones (asserted in ``tests/test_obs.py``).
    ``_tracer_folds`` marks the clock the tracer mirrors exactly (the
    query's shared clock); shard clocks created via :meth:`shard` notify
    for *attribution* only, since their charges reach the shared clock
    later through :meth:`absorb`.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._by_category: dict[str, float] = defaultdict(float)
        self._limit: float | None = None
        self.tracer = None
        self._tracer_folds = True

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float, category: str = "misc") -> float:
        """Charge ``seconds`` of virtual time and return the new time.

        Negative charges are rejected: time only moves forward.  If a
        budget limit is set and crossed, raises :class:`BudgetExceeded`.
        """
        return self._advance(seconds, category, 1)

    def _advance(self, seconds: float, category: str, count: int) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds!r}")
        self._now += seconds
        self._by_category[category] += seconds
        tracer = self.tracer
        if tracer is not None:
            tracer.on_charge(category, seconds, count,
                             fold=self._tracer_folds)
        if self._limit is not None and self._now > self._limit:
            raise BudgetExceeded(f"virtual-time budget {self._limit} exceeded")
        return self._now

    def advance_batch(self, per_item: float, count: int,
                      category: str = "misc") -> float:
        """Charge ``count`` items' worth of time in one accumulator update.

        The batch engine's replacement for per-row :meth:`advance` calls:
        the charged total is identical (``per_item * count``) but the clock
        is touched once per batch instead of once per tuple, so accounting
        overhead scales with batches, not rows.
        """
        if count < 0:
            raise ValueError(f"cannot charge a negative count {count!r}")
        if count == 0:
            return self._now
        return self._advance(per_item * count, category, count)

    def absorb(self, seconds: float, category: str = "misc") -> float:
        """:meth:`advance`, for charges already *attributed* elsewhere.

        The placed scheduler's ``finish`` replays shard-clock breakdowns
        onto the shared clock; those charges were seen by the tracer once
        at their original site (span attribution and event counts), so
        the replay must only *fold* — keep the tracer's float mirror in
        lockstep with this clock — without attributing or counting the
        work a second time.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds!r}")
        self._now += seconds
        self._by_category[category] += seconds
        tracer = self.tracer
        if tracer is not None and self._tracer_folds:
            tracer.on_fold(category, seconds)
        if self._limit is not None and self._now > self._limit:
            raise BudgetExceeded(f"virtual-time budget {self._limit} exceeded")
        return self._now

    def shard(self) -> "SimClock":
        """A fresh clock whose charges the attached tracer still sees.

        The placed scheduler's tasks charge private shard clocks that
        are later folded into the shared clock; constructing them
        through ``shard()`` (instead of a bare ``SimClock()``) keeps every
        charge site reachable by the tracer — the invariant the
        ``untraced-clock`` analysis rule enforces.  Shard charges notify
        for attribution only (``fold=False``): the shared clock's
        :meth:`absorb` folds them when the scheduler finishes.
        """
        child = SimClock()
        child.tracer = self.tracer
        child._tracer_folds = False
        return child

    def advance_charges(self, charges) -> float:
        """Charge an ordered sequence of ``(per_item, count, category)``
        batch charges in one call — the fused pipeline engine's accounting
        helper for a single pass over one block.

        Exactly equivalent to the same sequence of :meth:`advance_batch`
        calls: same order, same float accumulation, same per-category
        totals, same budget enforcement points.  That equivalence is what
        keeps fused pipeline execution charge-parity-identical with the
        row engine — a fused pass makes the *same multiset of charges in
        the same order* as the operators it fuses, it just makes them
        from one place.
        """
        for per_item, count, category in charges:
            self.advance_batch(per_item, count, category)
        return self._now

    def set_limit(self, limit: float | None) -> None:
        """Arm (or clear, with None) the budget limit in absolute time."""
        self._limit = limit

    @property
    def limit(self) -> float | None:
        """The armed budget limit (absolute virtual time), or None.

        The placed scheduler reads this to enforce the budget at phase
        boundaries: task charges accumulate on shard clocks that carry
        no limit of their own, so the shared clock's limit must be checked
        explicitly when a phase's charges are folded in."""
        return self._limit

    def advance_to(self, when: float, category: str = "wait") -> float:
        """Move the clock forward to an absolute time (no-op if in the past)."""
        if when > self._now:
            self.advance(when - self._now, category)
        return self._now

    def category_total(self, category: str) -> float:
        """Total virtual seconds charged to ``category``."""
        return self._by_category.get(category, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


class LaneSchedule:
    """Earliest-free-lane assignment over a virtual timeline.

    The one list scheduler: the placed execution engines
    (``repro/exec/distributed.py``, a node's morsel tasks onto its
    workers) and the serving subsystem (``repro/serve``) model concurrency
    the same way.  Work is *executed* in deterministic program order, but
    its *placement in virtual time* is decided by a simple scheduling rule
    — each unit of work starts on the earliest-free lane, no earlier than
    its ready time (the pull-the-next-morsel dispatch a real scheduler
    performs).  One ``LaneSchedule`` with ``lanes=1`` is a serial queue
    (the background refresh worker); with ``lanes=k`` it models ``k``
    concurrent lanes sharing a queue.

    ``assign`` never reorders work: callers submit in ready-time order, and
    the completion times that fall out are deterministic functions of the
    (ready, cost) sequence — independent of wall-clock, threads, or the
    GIL, like every other timeline in this repo.
    """

    def __init__(self, lanes: int = 1) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self._free = [0.0] * lanes
        self.assignments = 0

    @property
    def lanes(self) -> int:
        return len(self._free)

    def next_free(self) -> float:
        """Virtual time at which the earliest lane becomes available."""
        return min(self._free)

    def assign(self, ready: float, cost: float) -> tuple[int, float, float]:
        """Place one unit of work; returns ``(lane, start, completion)``.

        The work starts on the earliest-free lane at
        ``max(ready, lane free time)`` and occupies the lane for ``cost``
        virtual seconds.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost!r}")
        lane = min(range(len(self._free)), key=self._free.__getitem__)
        start = max(ready, self._free[lane])
        completion = start + cost
        self._free[lane] = completion
        self.assignments += 1
        return lane, start, completion

    def makespan(self) -> float:
        """Virtual time at which the last assigned work completes."""
        return max(self._free)


class NetworkModel:
    """Per-node NICs over a modeled interconnect, in charged virtual time.

    The distributed engine (``repro/exec/distributed.py``) moves data
    between virtual nodes through *exchanges* — shuffle, broadcast,
    gather.  Each exchange is a deterministic list of ``(src, dst,
    nbytes, rows)`` transfers; this model turns it into two things:

    * **Charges** on the clock it is handed: one
      :data:`~repro.common.categories.EXCHANGE_MSG` round trip per
      distinct ``(src, dst)`` pair (transfers between the same pair of
      nodes ride one batched message, the way a real exchange operator
      coalesces its outbound buffers) plus serialize+wire time per byte
      under the exchange's own category (``shuffle`` / ``broadcast`` /
      ``gather``).  Charges are made in transfer order, so charged
      totals are bit-identical across runs — and all zero when every
      transfer is node-local (``src == dst`` ships nothing).
    * **A makespan placement** on the per-node NICs: a transfer occupies
      both endpoints' NICs (send and receive lanes are the same
      full-duplex-naive resource) from ``max(free[src], free[dst])`` for
      its round-trip-plus-wire duration.  The exchange's makespan is the
      last completion — what the scale-out benchmark folds into the
      modeled elapsed time between pipeline phases.

    The clock is charged through the ordinary ``advance`` surface, so an
    attached tracer sees every network charge at its site and the
    ``EXPLAIN ANALYZE`` reconciliation (span totals == clock breakdown)
    keeps holding; shard clocks from :meth:`SimClock.shard` work the
    same way.
    """

    def __init__(self, nodes: int) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        self.nodes = nodes

    def exchange(self, category: str, transfers, clock: SimClock) -> dict:
        """Charge and place one exchange; returns its stats.

        ``transfers`` is an ordered sequence of ``(src, dst, nbytes,
        rows)``; node-local entries are skipped entirely.  Returns
        ``{"rows", "bytes", "messages", "makespan", "seconds":
        {category: s, "exchange-msg": s}, "per_node": [...]}`` where
        ``per_node`` carries each node's sent/received byte and row
        totals plus its NIC queue depth (transfers that waited on a busy
        NIC).
        """
        from repro.common import categories as cat
        pairs: dict[tuple[int, int], list[float]] = {}
        sent = [[0, 0.0] for _ in range(self.nodes)]      # rows, bytes
        received = [[0, 0.0] for _ in range(self.nodes)]
        queued = [0] * self.nodes
        total_rows = 0
        total_bytes = 0.0
        for src, dst, nbytes, rows in transfers:
            if src == dst or nbytes <= 0 and rows <= 0:
                continue
            bucket = pairs.setdefault((src, dst), [0.0, 0])
            bucket[0] += nbytes
            bucket[1] += rows
            sent[src][0] += rows
            sent[src][1] += nbytes
            received[dst][0] += rows
            received[dst][1] += nbytes
            total_rows += rows
            total_bytes += nbytes
        per_byte = CostModel.SERIALIZE_PER_BYTE + CostModel.NET_PER_BYTE
        msg_seconds = 0.0
        wire_seconds = 0.0
        for (src, dst), (nbytes, _rows) in pairs.items():
            clock.advance(CostModel.NET_ROUND_TRIP, cat.EXCHANGE_MSG)
            msg_seconds += CostModel.NET_ROUND_TRIP
            wire = per_byte * nbytes
            if wire > 0:
                clock.advance(wire, category)
                wire_seconds += wire
        # NIC placement: earliest-startable pair first (ties broken by
        # arrival order), so node-disjoint messages ride concurrently the
        # way a real all-to-all exchange overlaps its streams — a
        # producer-major order would chain every message through a shared
        # NIC and serialize the whole shuffle.  Deterministic: the pick
        # rule is a pure function of the (ordered) transfer list.
        nic_free = [0.0] * self.nodes
        makespan = 0.0
        pending = [(src, dst, CostModel.NET_ROUND_TRIP + per_byte * nbytes)
                   for (src, dst), (nbytes, _rows) in pairs.items()]
        while pending:
            pick = min(range(len(pending)),
                       key=lambda i: (max(nic_free[pending[i][0]],
                                          nic_free[pending[i][1]]), i))
            src, dst, duration = pending.pop(pick)
            start = max(nic_free[src], nic_free[dst])
            if start > 0:
                queued[src] += 1
                queued[dst] += 1
            end = start + duration
            nic_free[src] = nic_free[dst] = end
            makespan = max(makespan, end)
        return {
            "rows": total_rows,
            "bytes": total_bytes,
            "messages": len(pairs),
            "makespan": makespan,
            "seconds": {category: wire_seconds,
                        cat.EXCHANGE_MSG: msg_seconds},
            "per_node": [
                {"node": i, "rows_sent": sent[i][0],
                 "bytes_sent": sent[i][1], "rows_received": received[i][0],
                 "bytes_received": received[i][1], "nic_queued": queued[i]}
                for i in range(self.nodes)],
        }


class CostModel:
    """Central place for the virtual-time cost constants.

    The constants are not meant to match any particular hardware; they are
    chosen so the relative magnitudes are realistic (a page read costs much
    more than a tuple comparison, a network round trip costs more than a
    bulk byte, GPU-side training steps dwarf per-row CPU costs).  Benchmarks
    that sweep a parameter should see the paper's shape emerge from these
    relationships rather than from hard-coded results.
    """

    # storage layer
    PAGE_READ = 50e-6          # buffer-pool miss: read a page
    PAGE_HIT = 1e-6            # buffer-pool hit
    TUPLE_CPU = 0.2e-6         # per-tuple CPU (copy/compare/eval)
    INDEX_DESCENT = 2e-6       # B+-tree root-to-leaf walk (cached)

    # executor
    HASH_BUILD_ROW = 0.4e-6
    HASH_PROBE_ROW = 0.3e-6
    # hybrid-hash-join spill: a build side beyond work_mem partitions
    # to disk; build and probe both pay the spill surcharge
    HASH_SPILL_ROWS = 1200
    HASH_SPILL_FACTOR = 10.0
    SORT_ROW_LOG = 0.1e-6      # multiplied by log2(n)
    EVAL_PREDICATE = 0.1e-6

    # transactions
    LOCK_ACQUIRE = 1e-6
    LOCK_RELEASE = 0.5e-6
    VALIDATE_OP = 0.8e-6
    ABORT_PENALTY = 30e-6      # rollback + restart bookkeeping
    TXN_BEGIN = 2e-6
    TXN_COMMIT = 5e-6

    # networking / streaming (per message and per byte)
    NET_ROUND_TRIP = 200e-6
    NET_PER_BYTE = 0.8e-9
    SERIALIZE_PER_BYTE = 0.25e-9
    BATCH_EXPORT_SETUP = 2e-3  # baseline: per-batch query/cursor setup

    # AI runtime (per-sample base + per-field scaling with row width)
    TRAIN_STEP_PER_SAMPLE = 6e-6
    TRAIN_PER_FIELD = 0.1e-6
    INFER_PER_SAMPLE = 1.2e-6
    INFER_PER_FIELD = 0.02e-6
    FINETUNE_STEP_PER_SAMPLE = 2.5e-6  # only suffix layers -> cheaper
    FINETUNE_PER_FIELD = 0.04e-6
    MODEL_LOAD_PER_LAYER = 0.5e-3
    GPU_KERNEL_LAUNCH = 20e-6

    # in-database streaming pipeline (NeurDB): vectorized prep per value
    PREP_PER_VALUE = 0.02e-6

    # PostgreSQL+P baseline: per-batch SQL cursor setup, textual export,
    # and client-side Python preprocessing, all serial with training
    TEXT_EXPORT_PER_VALUE = 0.15e-6
    PYTHON_PREP_PER_VALUE = 0.2e-6
    TEXT_BYTES_INFLATION = 2.5  # text wire format vs binary
