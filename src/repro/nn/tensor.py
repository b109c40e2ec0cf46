"""A small reverse-mode autograd engine over numpy arrays.

This replaces the paper's PyTorch runtime.  It supports everything the
repro's models need: broadcasting elementwise ops, matmul, reductions,
indexing/gather (for embeddings), softmax/log-softmax, and common
activations.  Gradients flow through a topologically-ordered backward pass.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


def _as_array(value) -> Array:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


def _topological_order(node: "Tensor", visited: set[int],
                       topo: list["Tensor"]) -> None:
    """Append ``node``'s graph to ``topo``, parents first.  A function of
    its own, not a closure over ``topo``: a recursive closure is a cycle,
    and it would keep the whole graph alive until the cyclic collector
    ran."""
    if id(node) in visited:
        return
    visited.add(id(node))
    for parent in node._parents:
        _topological_order(parent, visited, topo)
    topo.append(node)


def _reduce_along(ufunc: np.ufunc, data: Array, axis: int) -> Array:
    """``ufunc.reduce(data, axis=axis, keepdims=True)``, reduced over the
    outermost axis of a contiguous copy instead: numpy reduces a short
    innermost axis one output element at a time (a 512x8x4 max took 10x
    as long), and an outer axis a whole slice at a time.  Only for
    reductions that give the same bits in both loops: a max (NaN
    propagates, and of equal zeros the later one wins in both) and sums of
    small integers."""
    moved = np.ascontiguousarray(data.swapaxes(0, axis))
    return ufunc.reduce(moved, axis=0, keepdims=True).swapaxes(0, axis)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # remove leading broadcast axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were size-1 in the original
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph."""

    __slots__ = ("data", "grad", "grad_rows", "requires_grad", "_backward",
                 "_parents", "name")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Optional[Callable[[], None]] = None,
                 name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[Array] = None
        # the rows (first-axis indices) outside which ``grad`` is exactly
        # +0.0, or None when any row may be nonzero; set with ``grad``
        self.grad_rows: Optional[Array] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    # -- shape ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def numpy(self) -> Array:
        return self.data

    def item(self) -> float:
        return float(self.data)

    # -- autograd ---------------------------------------------------------------

    def backward(self, grad: Array | None = None) -> None:
        """Backpropagate from this tensor (must be scalar if grad is None).

        The graph is released as the pass consumes it, as PyTorch does
        without ``retain_graph``: each op's backward closure holds the op's
        output, a cycle only the cyclic collector frees, so activations and
        gradients would otherwise outlive the step by however long the
        next full collection takes.  Leaf gradients stay; a second
        ``backward`` through the same graph reaches nothing."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        _topological_order(self, set(), topo)
        for node in topo:
            node.grad = None
        self.grad = _as_array(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
            if node._parents:
                node._backward = None
                node._parents = ()
                node.grad = None

    def _accumulate(self, grad: Array, rows: Optional[Array] = None) -> None:
        """Add ``grad`` into ``self.grad``; ``rows`` names the only rows
        where ``grad`` may be nonzero (None: any row).

        The first gradient is kept, not copied: no op and no optimizer
        writes into a gradient in place, so sharing one array between a
        node and its parents is safe (``tests/test_nn.py`` runs a training
        step with every gradient read-only to hold that)."""
        if self.grad is None:
            self.grad = grad
            self.grad_rows = rows
        else:
            self.grad = self.grad + grad
            if self.grad_rows is not None and rows is not None:
                self.grad_rows = np.concatenate((self.grad_rows, rows))
            else:
                self.grad_rows = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data,
                     requires_grad=self.requires_grad or other.requires_grad,
                     _parents=(self, other))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))
        out._backward = backward
        return out

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, requires_grad=self.requires_grad,
                     _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)
        out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data,
                     requires_grad=self.requires_grad or other.requires_grad,
                     _parents=(self, other))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data,
                                              self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data,
                                               other.data.shape))
        out._backward = backward
        return out

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self.__mul__(other ** -1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        out = Tensor(self.data ** exponent, requires_grad=self.requires_grad,
                     _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(
                    out.grad * exponent * self.data ** (exponent - 1))
        out._backward = backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data @ other.data,
                     requires_grad=self.requires_grad or other.requires_grad,
                     _parents=(self, other))

        def backward() -> None:
            grad = out.grad
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.data.shape))
        out._backward = backward
        return out

    # -- reductions -----------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                     requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for a in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, a)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())
        out._backward = backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        count = (self.data.size if axis is None
                 else np.prod([self.data.shape[a] for a in
                               ((axis,) if isinstance(axis, int) else axis)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = _reduce_along(np.maximum, self.data, axis)
        out = Tensor(out_data if keepdims else out_data.squeeze(axis),
                     requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = (out.grad if keepdims
                    else np.expand_dims(out.grad, axis))
            mask = (self.data == out_data).astype(np.float64)
            mask /= np.maximum(_reduce_along(np.add, mask, axis), 1.0)
            self._accumulate(mask * grad)
        out._backward = backward
        return out

    # -- shape manipulation --------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor(self.data.reshape(shape),
                     requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))
        out._backward = backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        out = Tensor(self.data.transpose(axes_tuple),
                     requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                inverse = np.argsort(axes_tuple)
                self._accumulate(out.grad.transpose(inverse))
        out._backward = backward
        return out

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows (``self[indices]``, each index in ``[0, len(self))``)
        — the embedding-lookup primitive.  The gradient names the rows it
        touched (``grad_rows``), so an optimizer can leave the rest alone."""
        indices = np.asarray(indices)
        out = Tensor(self.data[indices], requires_grad=self.requires_grad,
                     _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                # one bincount over (row, column) cells: it starts every
                # cell at 0.0 and adds its terms in index order, exactly
                # the sums np.add.at(zeros, indices, out.grad) makes
                rows = indices.reshape(-1)
                width = math.prod(self.data.shape[1:])
                cells = rows[:, None] * width + np.arange(width)
                grad = np.bincount(cells.reshape(-1),
                                   weights=out.grad.reshape(-1),
                                   minlength=self.data.size)
                self._accumulate(grad.reshape(self.data.shape), rows)
        out._backward = backward
        return out

    # -- nonlinearities ------------------------------------------------------------

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0),
                     requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(
                    out.grad * (self.data > 0).astype(np.float64))
        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        s = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))
        out = Tensor(s, requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * s * (1 - s))
        out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        out = Tensor(t, requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1 - t * t))
        out._backward = backward
        return out

    def exp(self) -> "Tensor":
        e = np.exp(np.clip(self.data, -60, 60))
        out = Tensor(e, requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * e)
        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(np.maximum(self.data, 1e-12)),
                     requires_grad=self.requires_grad, _parents=(self,))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / np.maximum(self.data, 1e-12))
        out._backward = backward
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True)
        e = shifted.exp()
        return e / e.sum(axis=axis, keepdims=True)


def numerical_gradient(fn: Callable[[Tensor], Tensor], x: Tensor,
                       epsilon: float = 1e-6) -> Array:
    """Central-difference gradient of a scalar-valued fn, for testing."""
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = fn(Tensor(x.data.copy())).item()
        flat[i] = original - epsilon
        minus = fn(Tensor(x.data.copy())).item()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad
