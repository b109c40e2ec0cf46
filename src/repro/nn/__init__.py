"""From-scratch neural-network stack on numpy: autograd tensor, layers,
attention, losses, optimizers, weight serialization."""

from repro.nn.attention import (
    CrossAttentionBlock,
    MultiHeadAttention,
    TransformerBlock,
)
from repro.nn.blas import pin_single_thread
from repro.nn.layers import (
    MLP,
    Dropout,
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
from repro.nn.losses import (
    accuracy,
    auc_score,
    bce_with_logits,
    mse_loss,
    softmax_cross_entropy,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialize import pack_state, state_nbytes, unpack_state
from repro.nn.tensor import Tensor, concat, numerical_gradient, stack

pin_single_thread()

__all__ = [
    "Adam",
    "CrossAttentionBlock",
    "Dropout",
    "Embedding",
    "GeLU",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadAttention",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "TransformerBlock",
    "accuracy",
    "auc_score",
    "bce_with_logits",
    "concat",
    "mse_loss",
    "numerical_gradient",
    "pack_state",
    "softmax_cross_entropy",
    "stack",
    "state_nbytes",
    "unpack_state",
]
