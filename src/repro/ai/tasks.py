"""AI task descriptors exchanged between operators and the AI engine.

The query executor's AI operators (Train / Inference / FineTune / MSelection)
and the learned database components both talk to the AI engine through these
task objects (paper Fig. 1: "AI Tasks" flowing into the task manager).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

_task_ids = itertools.count(1)


@dataclass
class TaskBase:
    """Common fields for all AI tasks."""

    model_name: str
    task_id: int = field(default_factory=lambda: next(_task_ids), init=False)


@dataclass
class TrainTask(TaskBase):
    """Train a fresh model on a (possibly streaming) dataset.

    Attributes:
        task_type: ``"regression"`` or ``"classification"``.
        field_count: number of feature fields per sample.
        epochs: passes over the training data.
        batch_size: samples per batch (paper default: 4096).
        hyperparams: extra model-construction arguments.
    """

    task_type: str = "classification"
    field_count: int = 0
    epochs: int = 1
    batch_size: int = 4096
    hyperparams: dict[str, Any] = field(default_factory=dict)


@dataclass
class InferenceTask(TaskBase):
    """Run inference with the newest (or a pinned) model version."""

    version: Optional[int] = None


@dataclass
class FineTuneTask(TaskBase):
    """Incrementally update a model on recent data.

    Only the final ``tune_last_layers`` layers are retrained; the prefix is
    frozen and shared with the previous version (paper Fig. 3).
    """

    tune_last_layers: int = 2
    epochs: int = 2
    batch_size: int = 4096
    learning_rate: float = 5e-3


@dataclass
class ModelSelectionTask(TaskBase):
    """MSelection operator: pick the best-suited model family for a task by
    validation metric (paper §3 mentions this as an in-progress operator)."""

    task_type: str = "classification"
    candidates: tuple[str, ...] = ("armnet", "mlp", "logistic")


@dataclass
class TaskResult:
    """Outcome of an AI task."""

    task_id: int
    model_name: str
    kind: str                      # "train" | "inference" | "finetune" | "mselection"
    virtual_seconds: float = 0.0
    samples_processed: int = 0
    losses: list[float] = field(default_factory=list)
    predictions: Optional[np.ndarray] = None
    metric: Optional[float] = None
    model_version: Optional[int] = None
    selected_model: Optional[str] = None
    details: dict[str, Any] = field(default_factory=dict)
