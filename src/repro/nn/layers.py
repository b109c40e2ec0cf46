"""Neural-network modules on top of the autograd Tensor.

Modules follow the familiar Module/parameters/forward pattern.  Every module
exposes ``state_dict`` / ``load_state_dict`` keyed by parameter path so the
model manager can persist individual layers — the unit of the paper's
incremental update (Fig. 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Base module.  Subclasses define ``forward`` and register parameters
    and submodules as attributes."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, Module] = {}

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # -- parameter access ----------------------------------------------------

    def parameters(self) -> Iterator[Tensor]:
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- (de)serialization -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy()
                for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray],
                        strict: bool = True) -> None:
        own = dict(self.named_parameters())
        if strict:
            missing = set(own) - set(state)
            extra = set(state) - set(own)
            if missing or extra:
                raise KeyError(
                    f"state mismatch: missing={sorted(missing)}, "
                    f"unexpected={sorted(extra)}")
        for name, values in state.items():
            if name in own:
                if own[name].data.shape != values.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{own[name].data.shape} vs {values.shape}")
                own[name].data = values.copy()


def _init_weight(rng: np.random.Generator, fan_in: int,
                 shape: tuple[int, ...]) -> Tensor:
    """He-style initialization."""
    scale = np.sqrt(2.0 / max(1, fan_in))
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, bias: bool = True):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _init_weight(rng, in_features,
                                   (in_features, out_features))
        if bias:
            self.bias = Tensor(np.zeros(out_features), requires_grad=True)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Tensor(rng.standard_normal(
            (num_embeddings, dim)) * 0.05, requires_grad=True)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})")
        return self.weight.gather_rows(indices)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class GeLU(Module):
    """Tanh-approximation GeLU."""

    def forward(self, x: Tensor) -> Tensor:
        inner = (x + x * x * x * 0.044715) * 0.7978845608028654
        return x * (inner.tanh() + 1.0) * 0.5


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * ((variance + self.eps) ** -0.5)
        return normed * self.gamma + self.beta


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between Linear layers."""

    def __init__(self, dims: Iterable[int],
                 rng: np.random.Generator | None = None,
                 final_activation: Module | None = None):
        super().__init__()
        dims = list(dims)
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            if i < len(dims) - 2:
                layers.append(ReLU())
        if final_activation is not None:
            layers.append(final_activation)
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
