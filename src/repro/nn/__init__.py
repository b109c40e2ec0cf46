"""From-scratch neural-network stack on numpy: autograd tensor, layers,
attention, losses, optimizers, weight serialization."""

from repro.nn.attention import (
    CrossAttentionBlock,
    MultiHeadAttention,
    TransformerBlock,
)
from repro.nn.blas import pin_single_thread
from repro.nn.heap import keep_freed_heap
from repro.nn.layers import (
    MLP,
    Embedding,
    GeLU,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import auc_score, bce_with_logits, mse_loss
from repro.nn.optim import Adam, Optimizer
from repro.nn.serialize import pack_state, state_nbytes, unpack_state
from repro.nn.tensor import Tensor, numerical_gradient

pin_single_thread()
keep_freed_heap()

__all__ = [
    "Adam",
    "CrossAttentionBlock",
    "Embedding",
    "GeLU",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadAttention",
    "Optimizer",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "TransformerBlock",
    "auc_score",
    "bce_with_logits",
    "mse_loss",
    "numerical_gradient",
    "pack_state",
    "state_nbytes",
    "unpack_state",
]
