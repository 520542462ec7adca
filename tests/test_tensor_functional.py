"""Forward-pass correctness of the functional operators.

The conv / pool lowering (window gather, GEMM-shaped products, slice-accumulate
scatter) is additionally held to naive nested-loop references, forward and
backward, over a grid of kernel / stride / padding / shape combinations.
"""

from __future__ import annotations

import ast
import itertools

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, functional as F
from repro.tensor.gradcheck import gradcheck
from repro.utils.rng import RandomState

rng = RandomState(7, name="functional-tests")


class TestShapes:
    def test_conv2d_output_shape(self):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_conv2d_stride_and_padding_shapes(self):
        x = Tensor(rng.normal(size=(1, 1, 7, 7)))
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=0).shape == (1, 2, 3, 3)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 2, 4, 4)

    def test_conv2d_channel_mismatch_raises(self):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        with pytest.raises(ShapeError):
            F.conv2d(x, w)

    def test_conv2d_empty_output_raises(self):
        x = Tensor(rng.normal(size=(1, 1, 2, 2)))
        w = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ShapeError):
            F.conv2d(x, w)

    @pytest.mark.parametrize("op", [F.max_pool2d, F.avg_pool2d], ids=["max", "avg"])
    def test_pool_kernel_larger_than_input_raises(self, op):
        with pytest.raises(ShapeError):
            op(Tensor(rng.normal(size=(1, 2, 3, 6))), 4)

    def test_conv2d_kernel_larger_than_padded_input_raises(self):
        # 4 + 2*1 = 6 < 7 in height only: the check must look at both axes and
        # fire before any window view is built (whose error is a ValueError).
        x = Tensor(rng.normal(size=(2, 1, 4, 9)))
        w = Tensor(rng.normal(size=(1, 1, 7, 7)))
        with pytest.raises(ShapeError):
            F.conv2d(x, w, padding=1)

    def test_conv2d_channel_mismatch_wins_over_empty_output(self):
        x = Tensor(rng.normal(size=(1, 2, 2, 2)))
        w = Tensor(rng.normal(size=(1, 3, 5, 5)))
        with pytest.raises(ShapeError, match="channels"):
            F.conv2d(x, w)

    def test_pool_shapes(self):
        x = Tensor(rng.normal(size=(2, 4, 8, 8)))
        assert F.max_pool2d(x, 2).shape == (2, 4, 4, 4)
        assert F.avg_pool2d(x, 2).shape == (2, 4, 4, 4)
        assert F.max_pool2d(x, 2, stride=1).shape == (2, 4, 7, 7)

    def test_pad2d_shape(self):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert F.pad2d(x, 3).shape == (1, 2, 10, 10)


class TestNumericalSemantics:
    def test_conv2d_matches_direct_convolution(self):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=0).data[0, 0]
        expected = np.zeros((3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(x.data[0, 0, i : i + 3, j : j + 3] * w.data[0, 0])
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_max_pool_picks_maximum(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(data), 2).data[0, 0]
        np.testing.assert_allclose(out, [[5, 7], [13, 15]])

    def test_avg_pool_takes_mean(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(data), 2).data[0, 0]
        np.testing.assert_allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(rng.normal(scale=3.0, size=(10, 6)))
        probs = F.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-5)
        assert (probs >= 0).all()

    def test_softmax_is_shift_invariant(self):
        logits = rng.normal(size=(4, 5)).astype(np.float32)
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_log_softmax_consistent_with_softmax(self):
        logits = Tensor(rng.normal(size=(3, 7)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data + 1e-12), atol=1e-4
        )

    def test_cross_entropy_of_perfect_prediction_is_small(self):
        logits = np.full((4, 3), -20.0, dtype=np.float32)
        targets = np.array([0, 1, 2, 1])
        logits[np.arange(4), targets] = 20.0
        loss = F.cross_entropy(Tensor(logits), targets)
        assert float(loss.data) < 1e-3

    def test_cross_entropy_uniform_prediction_is_log_classes(self):
        logits = Tensor(np.zeros((6, 8), dtype=np.float32))
        targets = rng.integers(0, 8, size=6)
        loss = F.cross_entropy(logits, targets)
        assert float(loss.data) == pytest.approx(np.log(8), rel=1e-4)

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_nll_loss_matches_cross_entropy(self):
        logits = Tensor(rng.normal(size=(5, 4)))
        targets = rng.integers(0, 4, size=5)
        ce = F.cross_entropy(logits, targets)
        nll = F.nll_loss(F.log_softmax(logits), targets)
        assert float(ce.data) == pytest.approx(float(nll.data), rel=1e-4)

    def test_batch_norm_normalises_training_batch(self):
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(64, 4)))
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = F.batch_norm(x, gamma, beta, training=True).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-2)

    def test_batch_norm_updates_running_statistics(self):
        x = Tensor(rng.normal(loc=2.0, size=(32, 3)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        running_mean = np.zeros(3, dtype=np.float32)
        running_var = np.ones(3, dtype=np.float32)
        F.batch_norm(x, gamma, beta, running_mean, running_var, training=True, momentum=0.5)
        assert not np.allclose(running_mean, 0.0)

    def test_batch_norm_eval_uses_running_statistics(self):
        x = Tensor(np.full((4, 2), 3.0, dtype=np.float32))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        running_mean = np.full(2, 3.0, dtype=np.float32)
        running_var = np.ones(2, dtype=np.float32)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=False).data
        np.testing.assert_allclose(out, np.zeros((4, 2)), atol=1e-3)

    def test_dropout_scales_surviving_activations(self):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, p=0.4, training=True, rng=np.random.default_rng(3)).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.6), rtol=1e-5)
        assert abs(out.mean() - 1.0) < 0.1

    def test_dropout_eval_is_identity(self):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, p=0.9, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_rejects_probability_one(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.0, training=True)


# ------------------------------------------------------------------ naive references
# float64 nested loops; the float32 lowering sums up to C*kh*kw = 98 products
# per output in another order, so agreement is to ~100 float32 ulps of O(10) values.
_TOL = {"rtol": 1e-4, "atol": 1e-4}


def _naive_conv(x, w, stride, padding, grad_out):
    """(out, grad_x, grad_w, grad_b) of a biased convolution, one window at a time."""
    x, w, grad_out = (a.astype(np.float64) for a in (x, w, grad_out))
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros(grad_out.shape)
    grad_xp, grad_w = np.zeros_like(xp), np.zeros_like(w)
    kh, kw = w.shape[2:]
    for n, o, i, j in np.ndindex(*grad_out.shape):
        rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
        out[n, o, i, j] = (xp[n, :, rows, cols] * w[o]).sum()
        grad_xp[n, :, rows, cols] += grad_out[n, o, i, j] * w[o]
        grad_w[o] += grad_out[n, o, i, j] * xp[n, :, rows, cols]
    height, width = x.shape[2:]
    grad_x = grad_xp[:, :, padding : padding + height, padding : padding + width]
    return out, grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))


def _naive_pool(x, kernel, stride, grad_out, reduce):
    """(out, grad_x) of max / average pooling, one window at a time."""
    x, grad_out = x.astype(np.float64), grad_out.astype(np.float64)
    out, grad_x = np.zeros(grad_out.shape), np.zeros_like(x)
    for n, c, i, j in np.ndindex(*grad_out.shape):
        rows, cols = slice(i * stride, i * stride + kernel), slice(j * stride, j * stride + kernel)
        window = x[n, c, rows, cols]
        if reduce == "max":
            out[n, c, i, j] = window.max()
            hit = np.unravel_index(window.argmax(), window.shape)
            grad_x[n, c, rows, cols][hit] += grad_out[n, c, i, j]
        else:
            out[n, c, i, j] = window.mean()
            grad_x[n, c, rows, cols] += grad_out[n, c, i, j] / kernel**2
    return out, grad_x


def _leaf(shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestAgainstNaiveReference:
    @pytest.mark.parametrize(
        "kernel,stride,padding,batch",
        list(itertools.product((1, 3, 7), (1, 2), (0, 1, 3), (1, 16))),
    )
    def test_conv2d(self, kernel, stride, padding, batch):
        x, w, b = _leaf((batch, 2, 8, 11)), _leaf((3, 2, kernel, kernel)), _leaf((3,))
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        grad_out = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad_out)
        ref_out, ref_x, ref_w, ref_b = _naive_conv(x.data, w.data, stride, padding, grad_out)
        np.testing.assert_allclose(out.data, ref_out + b.data.reshape(1, -1, 1, 1), **_TOL)
        np.testing.assert_allclose(x.grad, ref_x, **_TOL)
        np.testing.assert_allclose(w.grad, ref_w, **_TOL)
        np.testing.assert_allclose(b.grad, ref_b, **_TOL)

    def test_conv2d_rectangular_kernel(self):
        x, w = _leaf((2, 3, 7, 9)), _leaf((4, 3, 1, 3))
        out = F.conv2d(x, w, stride=2, padding=1)
        grad_out = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad_out)
        ref_out, ref_x, ref_w, _ = _naive_conv(x.data, w.data, 2, 1, grad_out)
        np.testing.assert_allclose(out.data, ref_out, **_TOL)
        np.testing.assert_allclose(x.grad, ref_x, **_TOL)
        np.testing.assert_allclose(w.grad, ref_w, **_TOL)

    # stride < kernel: windows overlap, so the backward scatter must accumulate
    @pytest.mark.parametrize("reduce", ["max", "avg"])
    @pytest.mark.parametrize(
        "kernel,stride,batch", list(itertools.product((2, 3), (1, 2, 3), (1, 16)))
    )
    def test_pool2d(self, reduce, kernel, stride, batch):
        x = _leaf((batch, 3, 7, 10))
        op = F.max_pool2d if reduce == "max" else F.avg_pool2d
        out = op(x, kernel, stride=stride)
        grad_out = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad_out)
        ref_out, ref_x = _naive_pool(x.data, kernel, stride, grad_out, reduce)
        np.testing.assert_allclose(out.data, ref_out, **_TOL)
        np.testing.assert_allclose(x.grad, ref_x, **_TOL)


class TestFiniteDifferences:
    def test_conv2d_stride_two_padded_rectangular(self):
        x, w, b = _leaf((2, 2, 5, 8)), _leaf((3, 2, 3, 3)), _leaf((3,))
        for tensor in (x, w, b):
            tensor.data *= 0.4
        assert gradcheck(lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1), [x, w, b])

    @pytest.mark.parametrize("shape", [(6, 3), (4, 3, 3, 2)], ids=["NC", "NCHW"])
    def test_batch_norm_training_mode(self, shape):
        # gradcheck differentiates fn(...).sum(), and the plain sum of a
        # normalised batch is constant in x: weight the outputs so that the
        # mean- and variance-paths of grad_x are both exercised.
        x, gamma, beta = _leaf(shape), _leaf((3,)), _leaf((3,))
        mix = Tensor(rng.normal(size=shape))
        assert gradcheck(lambda x, g, b: F.batch_norm(x, g, b) * mix, [x, gamma, beta])


class TestDeadInputGradient:
    def test_conv_skips_the_scatter_when_its_input_needs_no_gradient(self, monkeypatch):
        images = rng.normal(size=(4, 3, 8, 8))
        weight_data = rng.normal(size=(5, 3, 3, 3))
        grad_out = rng.normal(size=(4, 5, 8, 8)).astype(np.float32)
        scatters = []
        col2im = F._col2im
        monkeypatch.setattr(F, "_col2im", lambda *a: scatters.append(a) or col2im(*a))

        def weight_grad(input_requires_grad):
            x = Tensor(images, requires_grad=input_requires_grad)
            w = Tensor(weight_data, requires_grad=True)
            F.conv2d(x, w, padding=1).backward(grad_out)
            return x.grad, w.grad

        live_x, live_w = weight_grad(True)
        assert len(scatters) == 1 and live_x is not None
        dead_x, dead_w = weight_grad(False)
        assert len(scatters) == 1 and dead_x is None
        np.testing.assert_array_equal(dead_w, live_w)


class TestLinearProduct:
    """``F.linear``'s product against the ``matmul(x, transpose(W))`` graph it replaced.

    The exact comparison holds on the OpenBLAS bundled with NumPy 2.4's
    wheels (0.3.31).  The two graphs hand
    BLAS opposite transpose flags, so a different BLAS build or CPU may pick
    kernels that sum the batch in another order; a failure there is a BLAS
    difference, not a logic error in ``_LinearProduct``.
    """

    @pytest.mark.parametrize("input_requires_grad", [True, False], ids=["hidden", "first"])
    @pytest.mark.parametrize(
        "batch,fan_in,fan_out",
        [
            # the benchmark MLP's four layers, then odd shapes
            (32, 256, 1024),
            (32, 1024, 1024),
            (32, 1024, 512),
            (32, 512, 10),
            (7, 13, 5),
            (1, 3, 2),
            (33, 257, 129),
            (5, 1, 1),
        ],
    )
    def test_bit_identical_to_the_transposed_matmul_graph(
        self, batch, fan_in, fan_out, input_requires_grad
    ):
        x_data = rng.normal(size=(batch, fan_in)).astype(np.float32)
        w_data = rng.normal(size=(fan_out, fan_in)).astype(np.float32)
        b_data = rng.normal(size=(fan_out,)).astype(np.float32)
        grad_out = rng.normal(size=(batch, fan_out)).astype(np.float32)

        def run(affine):
            x = Tensor(x_data, requires_grad=input_requires_grad)
            w, b = Tensor(w_data, requires_grad=True), Tensor(b_data, requires_grad=True)
            out = affine(x, w, b)
            out.backward(grad_out)
            return out.data, x.grad, w.grad, b.grad

        new = run(F.linear)
        old = run(lambda x, w, b: F.add(F.matmul(x, F.transpose(w)), b))
        for fresh, reference in zip(new, old):
            if reference is None:
                assert fresh is None
            else:
                np.testing.assert_array_equal(fresh, reference)
        # The point of the product: the weight gradient lands in W's own layout.
        assert new[2].flags.c_contiguous
        assert input_requires_grad == (new[1] is not None)

    def test_gradcheck(self):
        x, w, b = _leaf((4, 5)), _leaf((3, 5)), _leaf((3,))
        assert gradcheck(F.linear, [x, w, b])

    def test_batched_input_gradcheck_and_weight_gradient_layout(self):
        x, w, b = _leaf((2, 4, 5)), _leaf((3, 5)), _leaf((3,))
        assert F.linear(x, w, b).shape == (2, 4, 3)
        assert gradcheck(F.linear, [x, w, b])
        # gradcheck leaves the analytic gradient of its one backward in .grad
        assert w.grad.shape == (3, 5)
        assert w.grad.flags.c_contiguous

    def test_weight_must_be_2d(self):
        with pytest.raises(ShapeError):
            F.linear(_leaf((4, 5)), _leaf((5,)))


def test_conv_lowering_has_no_scatter_ufunc_and_no_einsum_path_search():
    """ROADMAP item 1's counted witness: ``np.add.at`` (the unbuffered scatter)
    and ``einsum(..., optimize=...)`` (a contraction-path search per call) must
    not drift back into the file every forward and backward runs through."""
    with open(F.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls
    offenders = []
    for call in calls:
        name = ast.unparse(call.func)
        if name.endswith("add.at"):
            offenders.append((call.lineno, name))
        if name.endswith("einsum") and any(kw.arg == "optimize" for kw in call.keywords):
            offenders.append((call.lineno, name))
    assert offenders == []
