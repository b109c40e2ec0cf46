"""Gradient-descent optimizers."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.tensor import Array, Tensor


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
    """Adam with bias correction, updating weights and moments in place.

    A parameter whose gradient names its rows (``Tensor.grad_rows``, an
    embedding table) is updated on every row that any gradient has named
    so far.  That is not lazy Adam: a named row's moments keep decaying and
    its weight keeps moving on a zero gradient.  Only rows never named are
    skipped, and that is exact: their gradient, ``m`` and ``v`` are all
    +0.0, so the dense update would compute ``w - 0.0``, which is ``w`` bit
    for bit (-0.0, inf and NaN included).
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        # per parameter, aligned with self.parameters
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # the rows any gradient has named; None once a gradient named none
        self._named: list[Array | None] = [
            np.zeros(len(p.data), dtype=bool) if p.data.ndim else None
            for p in self.parameters]
        self._scratch: list[tuple[Array, Array] | None] = (
            [None] * len(self.parameters))
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1 ** self._t
        bias2 = 1 - self.beta2 ** self._t
        for i, param in enumerate(self.parameters):
            grad = param.grad
            if grad is None:
                continue
            rows = self._live_rows(i, param.grad_rows)
            if rows is None:
                if self._scratch[i] is None:
                    self._scratch[i] = (np.empty_like(grad),
                                        np.empty_like(grad))
                param.data -= self._advance(grad, self._m[i], self._v[i],
                                            *self._scratch[i], bias1, bias2)
                continue
            grad, m, v = grad[rows], self._m[i][rows], self._v[i][rows]
            step = self._advance(grad, m, v, np.empty_like(grad),
                                 np.empty_like(grad), bias1, bias2)
            self._m[i][rows] = m
            self._v[i][rows] = v
            param.data[rows] -= step

    def _live_rows(self, i: int, grad_rows: Array | None) -> Array | None:
        """The rows of parameter ``i`` that can move this step, or None
        for all of them.  Once a gradient names no rows, or a quarter of
        the table has been named, the mask is dropped for good: the dense
        update is as exact, and past a quarter it is the cheaper one."""
        named = self._named[i]
        if named is None:
            return None
        if grad_rows is not None:
            named[grad_rows] = True
            rows = np.flatnonzero(named)
            if 4 * rows.size <= named.size:
                return rows
        self._named[i] = None
        return None

    def _advance(self, grad: Array, m: Array, v: Array, s1: Array,
                 s2: Array, bias1: float, bias2: float) -> Array:
        """Advance ``m`` and ``v`` in place and return the weight step (in
        ``s1``), in the operation order of ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + ((1-b2)*g)*g``, ``lr*(m/bias1) / (sqrt(v/bias2) +
        eps)``."""
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s1)
        s1 *= grad
        v += s1
        np.divide(m, bias1, out=s1)
        s1 *= self.lr
        np.divide(v, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        return s1
