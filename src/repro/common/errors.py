"""Exception hierarchy for the repro database.

Every error raised by the public API derives from :class:`NeurDBError` so
applications can catch a single base class.  Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


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


def is_retryable(exc: BaseException) -> bool:
    """Central transient/fatal classifier used by every retry site
    (scheduler morsel retries, serving batch retries, refresh re-arm,
    ``Db`` query retries).

    Retryable: :class:`TransientError` (and subclasses, notably
    :class:`ReplicaUnavailable`) and :class:`WorkerCrash`.  Everything
    else — including :class:`DeadlineExceeded`, budget exhaustion, and
    ordinary programming errors — is fatal: retrying would deterministically
    fail again or spend time the caller no longer has.
    """
    return isinstance(exc, (TransientError, WorkerCrash))


class AIEngineError(NeurDBError):
    """A failure inside the in-database AI engine."""


class ModelNotFound(AIEngineError):
    """The model manager has no model matching the requested id/version."""


class StreamProtocolError(AIEngineError):
    """A violation of the data streaming protocol (bad frame, handshake
    mismatch, window overflow)."""
