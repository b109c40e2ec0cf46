"""Shared infrastructure: errors, virtual clock, deterministic RNG."""

from repro.common.errors import (
    AIEngineError,
    BindError,
    CatalogError,
    ConstraintViolation,
    DeadlineExceeded,
    ExecutionError,
    ModelNotFound,
    NeurDBError,
    ParseError,
    PlanError,
    ReplicaUnavailable,
    StreamProtocolError,
    TransientError,
    TypeMismatchError,
    WorkerCrash,
    is_retryable,
)
from repro.common.faults import FaultPlan, FaultSpec
from repro.common.rng import make_rng, stable_hash
from repro.common.simtime import CostModel, SimClock

__all__ = [
    "AIEngineError",
    "BindError",
    "CatalogError",
    "ConstraintViolation",
    "CostModel",
    "DeadlineExceeded",
    "ExecutionError",
    "FaultPlan",
    "FaultSpec",
    "ModelNotFound",
    "NeurDBError",
    "ParseError",
    "PlanError",
    "ReplicaUnavailable",
    "SimClock",
    "StreamProtocolError",
    "TransientError",
    "TypeMismatchError",
    "WorkerCrash",
    "is_retryable",
    "make_rng",
    "stable_hash",
]
