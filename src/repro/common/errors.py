"""Exception hierarchy for the repro database.

Every error raised by the public API derives from :class:`NeurDBError` so
applications can catch a single base class.  Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


class NeurDBError(Exception):
    """Base class for every error raised by the repro package."""


class CatalogError(NeurDBError):
    """A table, column, index, or model referenced in a statement is unknown,
    or an object with the same name already exists."""


class ParseError(NeurDBError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BindError(NeurDBError):
    """A parsed statement references names or types inconsistently."""


class PlanError(NeurDBError):
    """The planner could not produce a plan for a valid statement."""


class ExecutionError(NeurDBError):
    """A runtime failure while executing a physical plan."""


class TypeMismatchError(ExecutionError):
    """A value was incompatible with the declared column type."""


class ConstraintViolation(ExecutionError):
    """A uniqueness or not-null constraint was violated."""


class TransientError(NeurDBError):
    """A failure expected to clear on retry: a dropped message, a timed-out
    RPC, an injected chaos fault.  Every retry site in the system treats a
    ``TransientError`` as retryable (see :func:`is_retryable`); anything
    fatal must raise a different class."""


class WorkerCrash(NeurDBError):
    """A (virtual) execution worker died mid-task.

    The morsel it was running is lost and must be re-executed by a
    surviving worker; the work it charged before dying is *kept* on the
    worker clocks, so recovery cost stays measurable.  Retryable: the task
    itself was healthy, only its host died.
    """


class ReplicaUnavailable(TransientError):
    """A storage replica could not serve the request (node down, mid
    failover).  Retryable — the replicated table fails the access over to
    a healthy copy, or a later retry finds the node recovered."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(message)
        self.node = node


class DeadlineExceeded(NeurDBError):
    """A request's deadline passed before (or while) it was served.

    *Not* retryable: the time budget is gone; retrying can only miss the
    deadline by more.
    """


def check_at_least(name: str, value, minimum: int = 1) -> int:
    """The one rule of the integer knobs (the executor's, ``connect``'s,
    ``PredictServer``'s and ``fine_tune_model``'s): what
    :func:`operator.index` accepts (numpy ints too) but a bool, at least
    ``minimum``.  Returns a Python ``int``; the error names the knob."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def is_retryable(exc: BaseException) -> bool:
    """Central transient/fatal classifier, asked only by
    :meth:`RetryPolicy.next_delay`.

    Retryable: :class:`TransientError` (and subclasses, notably
    :class:`ReplicaUnavailable`) and :class:`WorkerCrash`.  Everything
    else — including :class:`DeadlineExceeded`, budget exhaustion, and
    ordinary programming errors — is fatal: retrying would deterministically
    fail again or spend time the caller no longer has.
    """
    return isinstance(exc, (TransientError, WorkerCrash))


@dataclass(frozen=True)
class RetryPolicy:
    """The one retry decision behind every recovery loop: statements
    (``connect(retry_policy=...)``), placed tasks (``retry_limit``),
    serving micro-batches (``PredictServer(retry_policy=...)``) and
    background refreshes (``serve.server.REFRESH_RETRY``).

    A loop that saw attempt ``attempt`` (0 = the first) fail with ``exc``
    asks :meth:`next_delay`; the loop itself decides only where the delay
    goes and what it counts (``docs/faults.md``, "Retry budgets").
    """

    max_retries: int = 2
    backoff: float = 1e-3

    def __post_init__(self) -> None:
        # exact types: a bool is an int, and NaN fails every comparison
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, "
                             f"got {self.max_retries!r}")
        if (type(self.backoff) not in (int, float)
                or not 0 <= self.backoff < math.inf):
            raise ValueError(f"backoff must be a finite number >= 0, "
                             f"got {self.backoff!r}")

    def next_delay(self, exc: BaseException, attempt: int) -> float | None:
        """Virtual seconds to wait before retrying after attempt
        ``attempt`` failed with ``exc`` — ``backoff * 2**attempt`` — or
        None when ``exc`` is not retryable or the budget is spent."""
        if not is_retryable(exc) or attempt >= self.max_retries:
            return None
        return self.backoff * 2 ** attempt


class AIEngineError(NeurDBError):
    """A failure inside the in-database AI engine."""


class ModelNotFound(AIEngineError):
    """The model manager has no model matching the requested id/version."""


class StreamProtocolError(AIEngineError):
    """A violation of the data streaming protocol (bad frame, handshake
    mismatch, window overflow)."""
