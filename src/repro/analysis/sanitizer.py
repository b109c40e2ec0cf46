"""Runtime lockset sanitizer for the morsel scheduler — the dynamic
complement to the static race pass (``repro/analysis/races.py``).

The static pass proves what it can from the AST; this module checks the
same invariant while the code actually runs.  Opt in with
``REPRO_SANITIZE=1`` (it costs an attribute-write hook on every
instrumented object, so it is off by default and enabled for the parity
sweep in CI).

How it works
------------
:class:`LocksetSanitizer` keeps a thread-local *lockset* — the locks the
current thread holds via :class:`RecordingLock` wrappers — and a global
record of attribute writes on *instrumented* objects.  The scheduler
instruments exactly the objects that are shared by construction:

* the operator tree, **after** ``compile_pipelines`` (pipeline
  compilation dispatches on ``type(op)``, so the class swap must come
  after it): every operator's class is swapped to a generated subclass
  whose ``__setattr__`` records ``(thread, Class.attr, lockset)`` before
  writing;
* the :class:`~repro.exec.parallel.MorselScheduler` itself, with its
  ``_counter_lock`` wrapped in a :class:`RecordingLock`.

Morsel-local state — shard clocks, block carriers, task results — is
created fresh inside the task and never instrumented, so it never
records.  At :meth:`MorselScheduler.finish` the scheduler calls
:meth:`LocksetSanitizer.check`, which raises :class:`SanitizerViolation`
if any write came from a worker thread (name prefix
``morsel-worker-``) with an **empty** lockset: a real interleaving of
the race the static pass reasons about, caught in the act.

The full record (including benign coordinator writes) stays available
via :meth:`LocksetSanitizer.records` for tests and audit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

#: worker threads are created by MorselScheduler with this name prefix
WORKER_PREFIX = "morsel-worker-"

_ENV = "REPRO_SANITIZE"


class SanitizerViolation(AssertionError):
    """An instrumented shared object was written from a worker thread
    with no lock held."""


@dataclass(frozen=True)
class WriteRecord:
    """One attribute write on an instrumented object."""

    thread: str      #: writing thread's name
    attribute: str   #: ``Class.attr``
    locks: frozenset #: names of RecordingLocks held by the thread

    def is_violation(self) -> bool:
        return self.thread.startswith(WORKER_PREFIX) and not self.locks


class RecordingLock:
    """A lock proxy that tracks held-ness in the sanitizer's
    thread-local lockset.  Supports the ``with`` protocol and the
    acquire/release surface the scheduler uses."""

    def __init__(self, sanitizer: "LocksetSanitizer",
                 lock: threading.Lock, name: str):
        self._sanitizer = sanitizer
        self._lock = lock
        self.name = name

    def acquire(self, *args, **kwargs) -> bool:
        got = self._lock.acquire(*args, **kwargs)
        if got:
            self._sanitizer._push(self.name)
        return got

    def release(self) -> None:
        self._sanitizer._pop(self.name)
        self._lock.release()

    def __enter__(self) -> "RecordingLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class LocksetSanitizer:
    """Process-wide sanitizer state.  One module-level instance
    (:data:`sanitizer`) is shared by the scheduler and the tests."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._guard = threading.Lock()
        self._records: list[WriteRecord] = []
        self._subclasses: dict[type, type] = {}

    # -- gating ------------------------------------------------------------

    @staticmethod
    def enabled() -> bool:
        return os.environ.get(_ENV, "") == "1"

    # -- locksets ----------------------------------------------------------

    def lock(self, lock: threading.Lock | None = None,
             name: str = "lock") -> RecordingLock:
        """Wrap ``lock`` so holding it shows up in the lockset."""
        return RecordingLock(self, lock or threading.Lock(), name)

    def held(self) -> frozenset:
        return frozenset(getattr(self._tls, "held", ()))

    def _push(self, name: str) -> None:
        if not hasattr(self._tls, "held"):
            self._tls.held = []
        self._tls.held.append(name)

    def _pop(self, name: str) -> None:
        held = getattr(self._tls, "held", [])
        if name in held:
            held.remove(name)

    # -- instrumentation ---------------------------------------------------

    def instrument(self, obj: object) -> None:
        """Swap ``obj``'s class for a recording subclass (idempotent).
        Must happen after any ``type(obj)``-keyed dispatch decisions —
        the scheduler instruments the operator tree only after
        ``compile_pipelines``."""
        base = type(obj)
        if base in self._subclasses.values():
            return  # already instrumented
        sub = self._subclasses.get(base)
        if sub is None:
            sanitizer = self

            def __setattr__(inner, attr, value, _base=base):
                sanitizer.record_write(inner, attr)
                _base.__setattr__(inner, attr, value)

            sub = type(base.__name__, (base,), {
                "__setattr__": __setattr__,
                "__sanitized__": True,
            })
            self._subclasses[base] = sub
        obj.__class__ = sub

    def instrument_tree(self, operator, child_attrs=("_child", "_left",
                                                     "_right")) -> None:
        """Instrument an operator and every child reachable through the
        scheduler's child attributes."""
        self.instrument(operator)
        for attr in child_attrs:
            child = getattr(operator, attr, None)
            if child is not None and hasattr(child, "rows_out"):
                self.instrument_tree(child, child_attrs)

    def record_write(self, obj: object, attr: str) -> None:
        record = WriteRecord(
            thread=threading.current_thread().name,
            attribute=f"{type(obj).__name__}.{attr}",
            locks=self.held())
        with self._guard:
            self._records.append(record)

    # -- reporting ---------------------------------------------------------

    def records(self) -> list[WriteRecord]:
        with self._guard:
            return list(self._records)

    def violations(self) -> list[WriteRecord]:
        return [r for r in self.records() if r.is_violation()]

    def reset(self) -> None:
        with self._guard:
            self._records.clear()

    def check(self) -> None:
        """Raise :class:`SanitizerViolation` on any unlocked worker
        write recorded so far, then clear the record (schedulers run
        sequentially; each ``finish`` audits its own run)."""
        bad = self.violations()
        self.reset()
        if bad:
            lines = "\n".join(
                f"  {r.thread}: write to {r.attribute} with no lock held"
                for r in bad[:20])
            raise SanitizerViolation(
                f"{len(bad)} unlocked shared write(s) from worker "
                f"threads:\n{lines}")


#: the process-wide sanitizer instance
sanitizer = LocksetSanitizer()


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE=1`` is set in the environment."""
    return LocksetSanitizer.enabled()
