"""Tests for the autograd engine, layers, attention, losses, optimizers."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    MLP,
    Adam,
    CrossAttentionBlock,
    Embedding,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Sequential,
    Tensor,
    TransformerBlock,
    auc_score,
    bce_with_logits,
    mse_loss,
    numerical_gradient,
    pack_state,
    unpack_state,
)
from repro.nn.blas import pin_single_thread

RNG = np.random.default_rng(0)


def check_gradient(fn, shape, tolerance=1e-6, scale=1.0):
    """Compare autograd gradient against central differences."""
    x = Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)
    out = fn(x)
    out.backward()
    numeric = numerical_gradient(lambda t: fn(t), x)
    assert np.abs(numeric - x.grad).max() < tolerance, (
        f"max grad error {np.abs(numeric - x.grad).max():.2e}")


class TestAutogradOps:
    def test_add_gradient(self):
        check_gradient(lambda x: (x + 3.0).sum(), (4, 3))

    def test_mul_gradient(self):
        check_gradient(lambda x: (x * x).sum(), (5,))

    def test_matmul_gradient(self):
        w = Tensor(RNG.standard_normal((3, 2)))
        check_gradient(lambda x: (x @ w).sum(), (4, 3))

    def test_broadcast_add_gradient(self):
        b = Tensor(RNG.standard_normal(3), requires_grad=True)
        x = Tensor(RNG.standard_normal((5, 3)))
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 5.0)

    def test_pow_gradient(self):
        check_gradient(lambda x: (x ** 3.0).sum(), (4,), scale=0.5)

    def test_relu_gradient_masks(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_sigmoid_tanh_exp_log_gradients(self):
        check_gradient(lambda x: x.sigmoid().sum(), (6,), 1e-5)
        check_gradient(lambda x: x.tanh().sum(), (6,), 1e-5)
        check_gradient(lambda x: x.exp().sum(), (6,), 1e-4, scale=0.5)
        check_gradient(lambda x: (x * x + 1.0).log().sum(), (6,), 1e-5)

    def test_sum_axis_keepdims(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        x.sum(axis=1).sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_mean_gradient(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, 1.0 / 20)

    def test_max_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_transpose_gradients(self):
        check_gradient(lambda x: x.reshape(6).sum(), (2, 3))
        check_gradient(lambda x: (x.transpose(1, 0) * 2.0).sum(), (2, 3))

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.standard_normal((4, 7)))
        probs = x.softmax(axis=-1).data
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert (probs >= 0).all()

    def test_gather_rows_gradient_accumulates(self):
        table = Tensor(np.zeros((5, 2)), requires_grad=True)
        out = table.gather_rows(np.array([1, 1, 3]))
        out.sum().backward()
        assert np.allclose(table.grad[1], 2.0)
        assert np.allclose(table.grad[3], 1.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.backward()

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach()
        assert y.requires_grad is False

    def test_backward_releases_the_graph(self):
        # an activation dies with the last reference to the loss, not at
        # the cyclic collector's next pass
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x * 2.0
        activation = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        gc.disable()
        try:
            loss.backward()
            del loss
            assert activation() is None
        finally:
            gc.enable()
        assert np.allclose(x.grad, 8.0)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shapes_property(self, a, b, c):
        x = Tensor(np.ones((a, b)))
        y = Tensor(np.ones((b, c)))
        assert (x @ y).shape == (a, c)
        assert np.allclose((x @ y).data, b)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(4, 7, rng=RNG)
        assert layer(Tensor(np.zeros((3, 4)))).shape == (3, 7)

    def test_linear_no_bias(self):
        layer = Linear(4, 7, rng=RNG, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((1, 4)))).data.sum() == 0

    def test_embedding_lookup(self):
        emb = Embedding(10, 3, rng=RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 3)

    def test_embedding_out_of_range(self):
        emb = Embedding(10, 3, rng=RNG)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_layernorm_statistics(self):
        ln = LayerNorm(8)
        out = ln(Tensor(RNG.standard_normal((5, 8)) * 10 + 3)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_sequential_indexing(self):
        seq = Sequential(Linear(2, 2, rng=RNG), Linear(2, 2, rng=RNG))
        assert len(seq) == 2
        assert isinstance(seq[0], Linear)

    def test_state_dict_roundtrip(self):
        a = MLP([3, 5, 2], rng=np.random.default_rng(1))
        b = MLP([3, 5, 2], rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = np.ones((2, 3))
        assert np.allclose(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_state_dict_strict_mismatch(self):
        a = MLP([3, 5, 2], rng=RNG)
        with pytest.raises(KeyError):
            a.load_state_dict({"bogus": np.zeros(1)})

    def test_state_dict_shape_mismatch(self):
        a = MLP([3, 5, 2], rng=RNG)
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_zero_grad(self):
        mlp = MLP([2, 2], rng=RNG)
        loss = mse_loss(mlp(Tensor(np.ones((4, 2)))), np.zeros((4, 2)))
        loss.backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestAttention:
    def test_mha_shape(self):
        mha = MultiHeadAttention(8, 2, rng=RNG)
        out = mha(Tensor(RNG.standard_normal((2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_mha_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, 2)

    def test_cross_attention_shapes(self):
        block = CrossAttentionBlock(8, 2, rng=RNG)
        q = Tensor(RNG.standard_normal((3, 4, 8)))
        ctx = Tensor(RNG.standard_normal((3, 9, 8)))
        assert block(q, ctx).shape == (3, 4, 8)

    def test_transformer_block_gradients_flow(self):
        block = TransformerBlock(8, 2, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 3, 8)))
        block(x).sum().backward()
        for _, param in block.named_parameters():
            assert param.grad is not None

    def test_mha_gradient_check(self):
        mha = MultiHeadAttention(4, 2, rng=np.random.default_rng(3))
        q = Tensor(RNG.standard_normal((1, 3, 4)))
        w = mha.w_v.weight
        out = mha(q).sum()
        out.backward()
        analytic = w.grad.copy()

        def f(t):
            old = w.data.copy()
            w.data = t.data
            result = mha(q).sum()
            w.data = old
            return result
        numeric = numerical_gradient(f, Tensor(w.data.copy()), 1e-5)
        assert np.abs(numeric - analytic).max() < 1e-5


class TestLosses:
    def test_mse_zero_for_perfect(self):
        pred = Tensor(np.ones(5))
        assert mse_loss(pred, np.ones(5)).item() == 0.0

    def test_bce_symmetric_at_half(self):
        logits = Tensor(np.zeros(4))
        loss = bce_with_logits(logits, np.array([0.0, 1.0, 0.0, 1.0]))
        assert loss.item() == pytest.approx(np.log(2), rel=1e-6)

    def test_bce_extreme_logits_stable(self):
        logits = Tensor(np.array([100.0, -100.0]), requires_grad=True)
        loss = bce_with_logits(logits, np.array([1.0, 0.0]))
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.isfinite(logits.grad).all()

    def test_auc_perfect_and_random(self):
        labels = np.array([0, 0, 1, 1])
        assert auc_score(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert auc_score(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
        assert auc_score(np.array([1.0, 1.0]), np.array([1, 1])) == 0.5


class TestOptimizers:
    def _quadratic_descends(self, optimizer_cls, **kwargs):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = optimizer_cls([x], **kwargs)
        for _ in range(200):
            optimizer.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            optimizer.step()
        return float((x.data ** 2).sum())

    def test_adam_converges(self):
        assert self._quadratic_descends(Adam, lr=0.1) < 1e-4

    def test_weight_decay_shrinks(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.01, weight_decay=0.5)
        for _ in range(200):
            optimizer.zero_grad()
            (x * 0.0).sum().backward()  # zero data gradient
            optimizer.step()
        assert abs(x.data[0]) < 0.1

    def test_optimizer_needs_parameters(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(1))])  # requires_grad=False

    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(0)
        mlp = MLP([2, 16, 1], rng=rng)
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        optimizer = Adam(list(mlp.parameters()), lr=0.05)
        for _ in range(400):
            optimizer.zero_grad()
            logits = mlp(Tensor(X)).reshape(4)
            loss = bce_with_logits(logits, y)
            loss.backward()
            optimizer.step()
        predictions = (mlp(Tensor(X)).data.reshape(4) > 0).astype(float)
        assert np.array_equal(predictions, y)


class TestSerialize:
    def test_roundtrip(self):
        state = {"w": RNG.standard_normal((3, 4)), "b": np.zeros(4)}
        restored = unpack_state(pack_state(state))
        assert set(restored) == {"w", "b"}
        assert np.array_equal(restored["w"], state["w"])

    def test_scalar_array(self):
        state = {"s": np.array(3.14)}
        assert unpack_state(pack_state(state))["s"] == pytest.approx(3.14)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            unpack_state(b"XXXX" + b"\x00" * 10)

    @given(st.lists(st.tuples(
        st.text(alphabet="abcdef", min_size=1, max_size=8),
        st.integers(1, 5), st.integers(1, 5)),
        min_size=1, max_size=5, unique_by=lambda t: t[0]))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, specs):
        rng = np.random.default_rng(0)
        state = {name: rng.standard_normal((r, c))
                 for name, r, c in specs}
        restored = unpack_state(pack_state(state))
        for name in state:
            assert np.array_equal(restored[name], state[name])


_BLAS_SCRIPT = """
import hashlib, sys
import numpy as np
{imports}
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for rows in (50, 512, 2000, 4096):      # a weight gradient: x.T @ grad
    x, grad = rng.standard_normal((rows, 128)), rng.standard_normal((rows, 64))
    digest.update((x.T @ grad).tobytes())
print(digest.hexdigest())
"""


class TestBlasPin:
    """``repro.nn`` pins OpenBLAS to one thread (``nn/blas.py``): the bits
    of a product must not depend on how many threads the host would give."""

    @staticmethod
    def _digest(threads: int, imports: str) -> str:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_SCRIPT.format(imports=imports)],
            env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_products_do_not_depend_on_thread_count(self):
        digests = {self._digest(threads, "import repro.nn")
                   for threads in (1, 2, 4)}
        assert len(digests) == 1
        # the same product computed without the pin, on one thread
        assert digests == {self._digest(1, "")}

    def test_pin_finds_the_blas_numpy_uses(self):
        if not sys.platform.startswith("linux"):
            pytest.skip("the pin reads /proc/self/maps")
        with open("/proc/self/maps") as maps:
            if "openblas" not in maps.read():
                pytest.skip("numpy is not linked against OpenBLAS")
        assert pin_single_thread()
