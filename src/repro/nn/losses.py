"""Loss functions returning scalar Tensors."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def mse_loss(predictions: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Mean squared error (regression / VALUE OF tasks)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    diff = predictions - targets
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Numerically-stable binary cross-entropy on raw logits
    (binary classification / CLASS OF tasks, CTR prediction)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    probs = logits.sigmoid()
    # Tensor.log clamps its argument at 1e-12, so saturated sigmoids are safe.
    loss = -(targets * probs.log()
             + (1.0 - targets) * (1.0 - probs).log())
    return loss.mean()


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum formulation."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    positives = scores[labels == 1]
    negatives = scores[labels == 0]
    if len(positives) == 0 or len(negatives) == 0:
        return 0.5
    order = np.argsort(np.concatenate([positives, negatives]))
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, len(order) + 1)
    positive_ranks = ranks[: len(positives)]
    u = positive_ranks.sum() - len(positives) * (len(positives) + 1) / 2
    return float(u / (len(positives) * len(negatives)))
