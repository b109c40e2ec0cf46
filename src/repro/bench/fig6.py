"""Experiment driver for Figure 6(c): training loss under cluster drift
C1→C5, with and without the model incremental update.

The losses are real gradient-descent losses from the shared ARM-Net
implementation.  Panels 6(a) and 6(b) are wall-clock measurements against
PostgreSQL+P and live outside the package, in
``benchmarks/postgres_plus_p.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ai.armnet import ARMNet
from repro.ai.model_manager import ModelManager
from repro.ai.monitor import Monitor
from repro.nn.losses import bce_with_logits
from repro.nn.optim import Adam
from repro.workloads.avazu import FIELD_COUNT as AVAZU_FIELDS
from repro.workloads.avazu import AvazuGenerator


@dataclass
class Fig6cResult:
    """Loss curves with/without incremental update under C1->C5 drift."""

    samples_axis: list[int] = field(default_factory=list)
    loss_without: list[float] = field(default_factory=list)
    loss_with: list[float] = field(default_factory=list)
    drift_points: list[int] = field(default_factory=list)
    versions_created: int = 0

    def spike_means(self, window: int = 3) -> tuple[float, float]:
        """Mean loss over the first ``window`` batches after each drift,
        (without, with) — the quantity Fig. 6(c) shows diverging."""
        without, with_ = [], []
        axis = np.asarray(self.samples_axis)
        for point in self.drift_points:
            idx = int(np.searchsorted(axis, point))
            without.extend(self.loss_without[idx: idx + window])
            with_.extend(self.loss_with[idx: idx + window])
        return (float(np.mean(without)) if without else 0.0,
                float(np.mean(with_)) if with_ else 0.0)


def run_fig6c(samples_per_cluster: int = 16_384, batch_size: int = 256,
              seed: int = 0, finetune_steps: int = 6,
              finetune_lr: float = 3e-2,
              base_lr: float = 1e-2) -> Fig6cResult:
    """Fig. 6(c): loss vs samples across the C1..C5 drift schedule.

    Both runs see the identical data stream.  The incremental-update run
    attaches a loss-stream monitor; when a drift fires, the FineTune
    operator retrains the head layers on the recent window with a higher
    learning rate and persists ONLY those layers as a new version.
    """
    generator = AvazuGenerator(seed=seed)
    result = Fig6cResult()

    def make_model() -> tuple[ARMNet, Adam]:
        model = ARMNet(field_count=AVAZU_FIELDS,
                       task_type="classification", seed=seed)
        return model, Adam(list(model.parameters()), lr=base_lr)

    # -- run 1: no incremental update (plain continued SGD) ---------------
    model_plain, opt_plain = make_model()
    # -- run 2: with incremental update (monitor + fine-tune on drift) ----
    model_inc, opt_inc = make_model()
    manager = ModelManager()
    manager.register_model("fig6c", model_inc)
    monitor = Monitor()
    monitor.register("loss", higher_is_better=False, threshold=0.25,
                     window=4, cooldown=8)

    consumed = 0
    previous_cluster = 0
    recent_window: list[tuple[np.ndarray, np.ndarray]] = []
    versions = 0

    for rows, labels, cluster in generator.drift_stream(
            samples_per_cluster, batch_size):
        if cluster != previous_cluster:
            result.drift_points.append(consumed)
            previous_cluster = cluster
        ids = model_plain.hasher.transform(rows)

        loss_plain = _train_step(model_plain, opt_plain, ids, labels)
        loss_inc = _train_step(model_inc, opt_inc, ids, labels)

        recent_window.append((ids, labels))
        if len(recent_window) > 4:
            recent_window.pop(0)

        event = monitor.observe("loss", loss_inc)
        if event is not None:
            # FineTune operator: freeze prefix, adapt head on recent data
            trainable = model_inc.freeze_prefix(tune_last=2)
            ft_optimizer = Adam(trainable, lr=finetune_lr)
            for _ in range(finetune_steps):
                for window_ids, window_labels in recent_window:
                    _train_step(model_inc, ft_optimizer, window_ids,
                                window_labels)
            model_inc.unfreeze_all()
            opt_inc = Adam(list(model_inc.parameters()), lr=base_lr)
            manager.incremental_update("fig6c", model_inc,
                                       ["head0", "head1"])
            versions += 1
            loss_inc = float(bce_with_logits(
                model_inc.forward(ids), labels).item())

        consumed += len(labels)
        result.samples_axis.append(consumed)
        result.loss_without.append(loss_plain)
        result.loss_with.append(loss_inc)

    result.versions_created = versions
    return result


def _train_step(model: ARMNet, optimizer: Adam, ids: np.ndarray,
                labels: np.ndarray) -> float:
    optimizer.zero_grad()
    loss = bce_with_logits(model.forward(ids), labels)
    loss.backward()
    optimizer.step()
    return float(loss.item())
