"""Deterministic fault injection: seeded chaos for the whole engine.

The ROADMAP's distributed-execution north star needs every layer to
survive failures — worker crashes in the placed scheduler, replica nodes
going down under the storage layer, transient errors and refresh failures
in the serving subsystem.  Testing that recovery is only trustworthy when
the chaos itself is *exactly reproducible*: the same seed must kill the
same worker on the same morsel on every run, at every worker count, on
every machine.

This module provides that substrate.  A :class:`FaultPlan` arms a set of
:class:`FaultSpec` descriptions; injection sites around the codebase ask
the plan whether a fault fires at a given *site* (a string naming the
opportunity, e.g. ``"2:17:0"`` for phase 2, morsel 17, attempt 0).  The
decision is a **pure function** of ``(seed, kind, scope, site)`` through
the process-independent FNV hash in :mod:`repro.common.rng` — no shared
mutable counters, no RNG state, nothing execution order could perturb.
Two consequences:

* **Determinism** — for a fixed seed and plan, the exact multiset of
  faults injected into a run is identical regardless of worker count.
  The fault-sweep parity suite leans on this: it asserts recovered
  results are bit-identical to the fault-free run under any seed.
* **Retry divergence** — a *retried* unit of work must be allowed to
  succeed, so every site string includes the attempt number (and query
  retries get a fresh :meth:`FaultPlan.scope` epoch): the re-roll is a
  different hash point, and a fault with ``rate < 1`` eventually clears.
  Scheduled faults (``times=``) match a deterministic *index* (morsel
  number, operation number) on the first attempt only, so they model
  "this specific morsel's worker dies once", not a permanently poisoned
  morsel.

Faults are resolved against the repo's virtual clocks: a ``slow_worker``
fault charges extra virtual seconds to the shard clock it hits, and every
recovery mechanism (crash re-execution, retry backoff, failover) charges
its cost in virtual time, so recovery overhead is measurable in
``BENCH_faults.json`` exactly like any other modeled cost.

Fault kinds and where they fire
-------------------------------

===============  ======================================  =====================
kind             injection site                          effect
===============  ======================================  =====================
``task_error``   placed task attempt, before the work    raises
                 (``exec/distributed.py``; both          :class:`TransientError`;
                 ``parallel`` and ``distributed``)       retried up to the
                                                         scheduler's budget
``worker_crash`` placed task attempt, after the work     raises
                                                         :class:`WorkerCrash`:
                                                         the result is lost,
                                                         the charges are kept,
                                                         a survivor re-executes
``slow_worker``  placed task attempt, after the work     charges ``latency``
                                                         extra virtual seconds
                                                         on the task clock
``slow_node``    placed task attempt, after the work,    charges ``latency``
                 targeted at ``node<i>`` (``node0``      extra virtual seconds
                 only under ``parallel``)                on every task the
                                                         slow node runs;
                                                         results stay
                                                         bit-identical while
                                                         per-node makespans
                                                         skew
``replica_down`` replicated-table access                 marks the primary
                 (``storage/replica.py``)                down for ``duration``
                                                         operations; accesses
                                                         fail over to the
                                                         backup
``serve_error``  serving batch (``serve/server.py``)     raises
                                                         :class:`TransientError`;
                                                         the batch retries
                                                         with backoff
``refresh_fail`` background refresh                      raises
                                                         :class:`TransientError`;
                                                         the refresh re-arms
                                                         with backoff
===============  ======================================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (NeurDBError, ReplicaUnavailable,
                                 TransientError, WorkerCrash)
from repro.common.rng import stable_hash

KINDS = ("task_error", "worker_crash", "slow_worker", "slow_node",
         "replica_down", "serve_error", "refresh_fail")

# resolution of the [0, 1) roll derived from the stable hash
_ROLL_BUCKETS = 1 << 53


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault family.

    Args:
        kind: one of :data:`KINDS`.
        rate: probability per opportunity in ``[0, 1]``; rolled as a pure
            function of ``(seed, kind, scope, site)``, so the same plan
            fires at the same sites on every run.
        times: deterministic schedule — fire when the opportunity's
            ``index`` (morsel number, table-operation number, batch
            number...) is in this tuple and it is the first attempt.
            Combines with ``rate`` (either can fire).
        target: restrict to one site family member (a table name, a model
            name, a scope label) — ``None`` matches everything.
        latency: ``slow_worker``/``slow_node`` only — extra virtual
            seconds charged.
        duration: ``replica_down`` only — how many subsequent table
            operations the node stays down before it recovers (and
            resyncs); 0 means down for a single operation.
    """

    kind: str
    rate: float = 0.0
    times: tuple[int, ...] = ()
    target: str | None = None
    latency: float = 0.0
    duration: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate!r}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency!r}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration!r}")


@dataclass
class InjectedFault:
    """Record of one fault that actually fired (the injection log)."""

    kind: str
    site: str
    target: str | None = None
    spec: FaultSpec = field(repr=False, default=None)  # type: ignore


class FaultPlan:
    """A seeded, deterministic plan of faults to inject into a run.

    Build one with a seed and arm faults::

        plan = (FaultPlan(seed=7)
                .arm("worker_crash", rate=0.2)
                .arm("task_error", times=(3,))
                .arm("replica_down", target="orders", times=(5,), duration=4))

    then hand it to the components under test (``Executor(faults=plan)``,
    ``connect(faults=plan)``, ``PredictServer(db, faults=plan)``,
    ``ReplicatedTable(..., faults=plan)``).  Decisions are pure functions
    of the seed and the site (see the module docstring).
    """

    def __init__(self, seed: int = 0,
                 specs: "tuple[FaultSpec, ...] | list[FaultSpec]" = ()):
        self.seed = int(seed)
        self._specs: list[FaultSpec] = list(specs)
        self.injected: list[InjectedFault] = []
        self._scopes = 0

    # -- arming ------------------------------------------------------------

    def arm(self, kind: str, rate: float = 0.0,
            times: "tuple[int, ...] | list[int]" = (),
            target: str | None = None, latency: float = 0.0,
            duration: int = 0) -> "FaultPlan":
        """Add one fault family; returns self for chaining."""
        self._specs.append(FaultSpec(kind=kind, rate=rate,
                                     times=tuple(times), target=target,
                                     latency=latency, duration=duration))
        return self

    @classmethod
    def chaos(cls, seed: int, rate: float = 0.1,
              kinds: "tuple[str, ...]" = ("task_error", "worker_crash",
                                          "slow_worker"),
              latency: float = 1e-3) -> "FaultPlan":
        """Convenience: one plan arming several kinds at the same rate —
        the fault-sweep suite's everything-at-once configuration."""
        plan = cls(seed)
        for kind in kinds:
            slow = kind in ("slow_worker", "slow_node")
            plan.arm(kind, rate=rate, latency=latency if slow else 0.0)
        return plan

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(self._specs)

    def arms(self, kind: str) -> bool:
        """True when at least one spec of ``kind`` is armed (lets hot
        paths skip site-string formatting entirely)."""
        return any(spec.kind == kind for spec in self._specs)

    # -- scopes (retry divergence) ----------------------------------------

    def scope(self, label: str = "run") -> str:
        """A fresh scope token for one schedulable unit of work (one
        scheduler instance, one query attempt).  Monotone and handed out
        in program order, so runs that construct their schedulers in
        deterministic order get deterministic scopes — while a *retried*
        query gets a new scope and therefore fresh rolls."""
        self._scopes += 1
        return f"{label}#{self._scopes}"

    # -- decisions ---------------------------------------------------------

    def roll(self, kind: str, site: str) -> float:
        """The deterministic uniform in ``[0, 1)`` for one opportunity."""
        return stable_hash((self.seed, kind, site),
                           _ROLL_BUCKETS) / _ROLL_BUCKETS

    def decide(self, kind: str, site: str, index: int | None = None,
               target: str | None = None,
               attempt: int = 0) -> FaultSpec | None:
        """Does a ``kind`` fault fire at ``site``?  Returns the matching
        spec (recorded in the injection log) or None.

        ``index`` is the opportunity's deterministic ordinal within its
        family (morsel number, operation number); scheduled specs match it
        on the first attempt.  ``target`` is matched against each spec's
        target filter.  ``attempt`` folds into nothing here — callers put
        it in the site string — except to suppress scheduled re-fires.
        """
        for spec in self._specs:
            if spec.kind != kind:
                continue
            if spec.target is not None and spec.target != target:
                continue
            fired = (index is not None and attempt == 0
                     and index in spec.times)
            if not fired and spec.rate > 0.0:
                fired = self.roll(kind, site) < spec.rate
            if fired:
                record = InjectedFault(kind=kind, site=site, target=target,
                                       spec=spec)
                self.injected.append(record)
                return spec
        return None

    def maybe_raise(self, kind: str, site: str, index: int | None = None,
                    target: str | None = None, attempt: int = 0) -> None:
        """Raise the exception for ``kind`` if a fault fires; no-op
        otherwise.  ``slow_worker`` and ``replica_down`` carry state, not
        exceptions — use :meth:`decide` for those sites."""
        spec = self.decide(kind, site, index=index, target=target,
                           attempt=attempt)
        if spec is None:
            return
        if kind == "worker_crash":
            raise WorkerCrash(f"injected worker crash at {site}")
        if kind == "replica_down":
            raise ReplicaUnavailable(
                f"injected replica outage at {site}", node=target)
        if kind in ("task_error", "serve_error", "refresh_fail"):
            raise TransientError(f"injected {kind} at {site}")
        raise NeurDBError(f"fault kind {kind!r} has no exception mapping")

    # -- introspection -----------------------------------------------------

    def count(self, kind: str | None = None) -> int:
        """Faults injected so far (optionally of one kind); deterministic
        for a fixed seed."""
        if kind is None:
            return len(self.injected)
        return sum(1 for f in self.injected if f.kind == kind)

    def counts(self) -> dict[str, int]:
        """Injected-fault counts by kind (deterministic per seed)."""
        out: dict[str, int] = {}
        for fault in self.injected:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(seed={self.seed}, specs={len(self._specs)}, "
                f"injected={len(self.injected)})")
