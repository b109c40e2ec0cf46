"""Tests for the autograd engine, layers, attention, losses, optimizers."""

import gc
import os
import platform
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
from repro.nn.heap import keep_freed_heap

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


def _add_at(shape, indices, upstream):
    """The scatter ``gather_rows`` backward used to run: ``np.add.at``."""
    grad = np.zeros(shape)
    np.add.at(grad, indices, upstream)
    return grad


def _reference_softmax(x, axis):
    """``Tensor.softmax`` spelled with ``np.max``: ``x + -max``, clipped
    ``exp``, times the sum to the power -1."""
    e = np.exp(np.clip(x + -np.max(x, axis=axis, keepdims=True), -60, 60))
    return e * e.sum(axis=axis, keepdims=True) ** -1.0


def _odd_values(shape, seed):
    """Normals salted with NaN, +0.0, -0.0 and ties."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    picks = rng.integers(0, flat.size, flat.size // 2)
    flat[picks] = rng.choice([np.nan, 0.0, -0.0, 1.0, -np.inf], picks.size)
    return x


class TestExactKernels:
    """Kernels swapped for speed must give the bytes the old ones gave."""

    @pytest.mark.parametrize("index_shape", [(7,), (40,), (6, 3), (9, 4)])
    def test_gather_rows_backward_matches_add_at(self, index_shape):
        rng = np.random.default_rng(3)
        table = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        indices = rng.integers(0, 6, index_shape)       # duplicates
        upstream = _odd_values(index_shape + (5,), 4)   # NaN, -0.0 terms
        table.gather_rows(indices).backward(upstream)
        expected = _add_at((6, 5), indices, upstream)
        assert table.grad.tobytes() == expected.tobytes()
        assert set(table.grad_rows.tolist()) == set(indices.ravel().tolist())

    def test_gather_rows_minus_zero_terms_sum_to_plus_zero(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        table.gather_rows(np.array([1, 1])).backward(np.full((2, 2), -0.0))
        expected = _add_at((3, 2), np.array([1, 1]), np.full((2, 2), -0.0))
        assert table.grad.tobytes() == expected.tobytes()

    def test_one_table_gathered_twice(self):
        rng = np.random.default_rng(5)
        table = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        first, second = np.array([[1, 2], [2, 7]]), np.array([[0, 2], [5, 5]])
        w1, w2 = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 2, 3))
        out = table.gather_rows(first) * Tensor(w1) + (
            table.gather_rows(second) * Tensor(w2))
        upstream = _odd_values((2, 2, 3), 6)
        out.backward(upstream)
        expected = (_add_at((8, 3), first, upstream * w1)
                    + _add_at((8, 3), second, upstream * w2))
        assert table.grad.tobytes() == expected.tobytes()
        assert set(table.grad_rows.tolist()) == {0, 1, 2, 5, 7}

    def test_a_dense_use_clears_the_named_rows(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        (table.gather_rows(np.array([1])).sum() + table.sum()).backward()
        assert table.grad_rows is None
        assert np.array_equal(table.grad[:, 0], [1.0, 2.0, 1.0, 1.0])

    @pytest.mark.parametrize("shape", [(1, 8, 4), (3, 5), (512, 8, 4),
                                       (7, 2, 3)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_matches_np_max(self, shape, keepdims):
        x = _odd_values(shape, 7)
        for axis in range(-len(shape), len(shape)):
            got = Tensor(x).max(axis=axis, keepdims=keepdims).data
            expected = np.max(x, axis=axis, keepdims=keepdims)
            assert got.tobytes() == expected.tobytes(), axis

    def test_max_of_signed_zeros_keeps_np_max_choice(self):
        for row in ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]):
            x = np.array([row] * 17)
            assert (Tensor(x).max(axis=1).data.tobytes()
                    == np.max(x, axis=1).tobytes())

    def test_max_backward_splits_ties(self):
        x = _odd_values((64, 3, 4), 8)
        x[:, :, 3] = x[:, :, 0]                          # a tie per row
        upstream = np.random.default_rng(9).standard_normal((64, 3, 1))
        tensor = Tensor(x, requires_grad=True)
        tensor.max(axis=-1, keepdims=True).backward(upstream)
        mask = (x == np.max(x, axis=-1, keepdims=True)).astype(np.float64)
        mask /= np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)
        assert tensor.grad.tobytes() == (mask * upstream).tobytes()

    @pytest.mark.parametrize("shape", [(1, 8, 4), (512, 8, 4), (4, 7)])
    def test_softmax_matches_np_max_reference(self, shape):
        x = _odd_values(shape, 10)
        got = Tensor(x).softmax(axis=-1).data
        assert got.tobytes() == _reference_softmax(x, -1).tobytes()

    def test_relu_backward_matches_bool_mask_product(self):
        x = _odd_values((64, 16), 11)
        upstream = _odd_values((64, 16), 12)
        tensor = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):              # inf * 0
            tensor.relu().backward(upstream)
            expected = upstream * (x > 0)
        assert tensor.grad.tobytes() == expected.tobytes()


def _dense_adam(weights, grads, lr, betas=(0.9, 0.999), eps=1e-8):
    """The textbook dense update, one step per gradient, all rows."""
    beta1, beta2 = betas
    m, v = np.zeros_like(weights), np.zeros_like(weights)
    trail = []
    for t, grad in enumerate(grads, 1):
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        weights = weights - lr * m_hat / (np.sqrt(v_hat) + eps)
        trail.append(weights)
    return trail


class TestRowRestrictedAdam:
    """Adam skips only embedding rows no gradient has named: bit for bit
    the dense update, and never lazy."""

    def _train(self, table, steps, pick, lr=0.05):
        """Steps of Adam over ``table`` (and a dense bias beside it);
        returns the table's weights and gradient after every step."""
        bias = Tensor(np.zeros(table.data.shape[1]), requires_grad=True)
        optimizer = Adam([table, bias], lr=lr)
        rng = np.random.default_rng(13)
        trail, grads = [], []
        for step in range(steps):
            optimizer.zero_grad()
            indices = pick(step, rng)
            coefficients = Tensor(rng.standard_normal(indices.shape
                                                      + (table.data.shape[1],)))
            ((table.gather_rows(indices) + bias) * coefficients).sum() \
                .backward()
            grads.append(table.grad.copy())
            optimizer.step()
            trail.append(table.data.copy())
        return trail, grads

    def test_matches_dense_update_over_many_steps(self):
        start = np.random.default_rng(14).standard_normal((64, 4))
        start[40] = [-0.0, np.inf, np.nan, -np.inf]      # never named
        start[2] = [0.5, -0.0, 3.0, -1.0]                # named at step 1 only

        def pick(step, rng):
            if step == 0:
                return np.array([2, 2, 5])
            return rng.integers(5, 12, (3, 2))

        table = Tensor(start.copy(), requires_grad=True)
        trail, grads = self._train(table, 60, pick)
        dense = _dense_adam(start, grads, lr=0.05)
        for step, (got, expected) in enumerate(zip(trail, dense)):
            assert got.tobytes() == expected.tobytes(), step
        # row 2's gradient is zero after step 1, yet it keeps moving
        assert not np.any(grads[-1][2])
        assert not np.array_equal(trail[1][2], trail[-1][2])
        assert trail[-1][40].tobytes() == start[40].tobytes()

    def test_turns_dense_past_a_quarter_and_stays_exact(self):
        start = np.random.default_rng(15).standard_normal((8, 3))

        def pick(step, rng):
            return np.array([step % 8])                  # one new row a step

        table = Tensor(start.copy(), requires_grad=True)
        trail, grads = self._train(table, 12, pick)
        dense = _dense_adam(start, grads, lr=0.05)
        assert trail[-1].tobytes() == dense[-1].tobytes()

    def test_dense_gradient_on_a_table(self):
        start = np.random.default_rng(16).standard_normal((10, 2))
        table = Tensor(start.copy(), requires_grad=True)
        optimizer = Adam([table], lr=0.1)
        grads = []
        for step in range(5):
            optimizer.zero_grad()
            loss = table.gather_rows(np.array([1])).sum()
            if step == 2:                                # one dense step
                loss = loss + (table * table).sum()
            loss.backward()
            grads.append(table.grad.copy())
            optimizer.step()
        assert (table.data.tobytes()
                == _dense_adam(start, grads, lr=0.1)[-1].tobytes())


class TestGradientOwnership:
    """``Tensor._accumulate`` keeps the first gradient it is handed, so no
    op and no optimizer may write into a gradient in place."""

    @staticmethod
    def _step(model, ids, targets):
        optimizer = Adam(list(model.parameters()), lr=1e-2)
        optimizer.zero_grad()
        mse_loss(model.forward(ids), targets).backward()
        optimizer.step()
        return {name: p.data.copy() for name, p in model.named_parameters()}

    def test_a_training_step_writes_into_no_gradient(self, monkeypatch):
        from repro.ai.armnet import ARMNet
        rng = np.random.default_rng(17)
        ids = rng.integers(0, 4096, (64, 4))
        targets = rng.standard_normal(64)
        expected = self._step(ARMNet(field_count=4, task_type="regression"),
                              ids, targets)
        accumulate = Tensor._accumulate

        def read_only(self, grad, rows=None):
            array = grad
            while isinstance(array, np.ndarray):
                array.flags.writeable = False
                array = array.base
            accumulate(self, grad, rows)

        monkeypatch.setattr(Tensor, "_accumulate", read_only)
        got = self._step(ARMNet(field_count=4, task_type="regression"),
                         ids, targets)
        assert got.keys() == expected.keys()
        for name in got:
            assert got[name].tobytes() == expected[name].tobytes(), name


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

    def test_adam_takes_no_weight_decay(self):
        with pytest.raises(TypeError):
            Adam([Tensor(np.ones(1), requires_grad=True)], weight_decay=0.5)

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

    def test_heap_thresholds_are_set_on_glibc(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt's thresholds are glibc's")
        assert keep_freed_heap()
