"""Gradient-descent optimizers."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1 ** self._t
        bias2 = 1 - self.beta2 ** self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat)
                                                         + self.eps)
