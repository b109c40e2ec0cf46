"""AI runtime: the compute node side of the streaming protocol.

A runtime owns a model replica, consumes framed batches from its channel,
and performs real gradient steps (train / fine-tune) or forward passes
(inference).  Virtual compute time is charged per batch to the clock the
runtime was given; the engine uses a private clock here so it can overlap
producer and consumer time in its pipeline accounting.
"""

from __future__ import annotations

import numpy as np

from repro.ai.armnet import ARMNet
from repro.ai.streaming import (
    Channel,
    FrameType,
    decode_batch,
    decode_handshake,
)
from repro.common import categories as cat
from repro.common.errors import StreamProtocolError
from repro.common.simtime import CostModel, SimClock
from repro.nn.losses import bce_with_logits, mse_loss
from repro.nn.optim import Adam, Optimizer


class AIRuntime:
    """One external compute node (paper Fig. 2's "AI Runtime")."""

    def __init__(self, channel: Channel, clock: SimClock,
                 node_id: int = 0):
        self._channel = channel
        self._clock = clock
        self.node_id = node_id
        self.model: ARMNet | None = None
        self._optimizer: Optimizer | None = None
        self._config = None
        self.batches_consumed = 0
        self.samples_consumed = 0
        self.losses: list[float] = []

    # -- protocol ------------------------------------------------------------

    def accept_handshake(self, learning_rate: float = 1e-3,
                         model: ARMNet | None = None,
                         trainable_params=None) -> None:
        """Consume the HANDSHAKE frame; build the model from its spec unless
        a pre-loaded model (fine-tuning an existing version) is supplied."""
        frame = self._channel.recv()
        spec, config = decode_handshake(frame)
        self._config = config
        if model is not None:
            self.model = model
        else:
            self.model = ARMNet.from_spec(spec)
        params = (trainable_params if trainable_params is not None
                  else [p for p in self.model.parameters() if p.requires_grad])
        self._optimizer = Adam(params, lr=learning_rate)

    def consume_available(self, train: bool = True) -> int:
        """Drain the channel: train on every pending batch, honour control
        frames.  Returns number of batches consumed this call."""
        if self.model is None:
            raise StreamProtocolError("handshake not completed")
        consumed = 0
        while self._channel.pending():
            frame = self._channel.recv()
            if frame.type is FrameType.DATA_BATCH:
                ids, targets = decode_batch(frame)
                if train:
                    self._train_step(ids, targets)
                consumed += 1
                self.batches_consumed += 1
                self.samples_consumed += len(targets)
            elif frame.type is FrameType.END_OF_STREAM:
                return consumed
            else:
                raise StreamProtocolError(
                    f"unexpected frame {frame.type.name} mid-stream")
        return consumed

    def grant_credit(self, sender, batches: int) -> None:
        """Send flow-control credit back to the dispatcher."""
        sender.credit_received(batches)

    # -- compute ---------------------------------------------------------------

    def _train_step(self, ids: np.ndarray, targets: np.ndarray) -> float:
        assert self.model is not None and self._optimizer is not None
        self._optimizer.zero_grad()
        outputs = self.model.forward(ids)
        if self.model.task_type == "classification":
            loss = bce_with_logits(outputs, targets)
        else:
            loss = mse_loss(outputs, targets)
        loss.backward()
        self._optimizer.step()
        value = loss.item()
        self.losses.append(value)
        self._clock.advance(self.train_batch_cost(len(targets),
                                                  ids.shape[1]), cat.TRAIN)
        return value

    # -- virtual-time cost formulas ------------------------------------------------

    @staticmethod
    def train_batch_cost(samples: int, fields: int) -> float:
        return (CostModel.GPU_KERNEL_LAUNCH
                + samples * (CostModel.TRAIN_STEP_PER_SAMPLE
                             + fields * CostModel.TRAIN_PER_FIELD))

    @staticmethod
    def finetune_batch_cost(samples: int, fields: int) -> float:
        return (CostModel.GPU_KERNEL_LAUNCH
                + samples * (CostModel.FINETUNE_STEP_PER_SAMPLE
                             + fields * CostModel.FINETUNE_PER_FIELD))

    @staticmethod
    def infer_batch_cost(samples: int, fields: int) -> float:
        return (CostModel.GPU_KERNEL_LAUNCH
                + samples * (CostModel.INFER_PER_SAMPLE
                             + fields * CostModel.INFER_PER_FIELD))
