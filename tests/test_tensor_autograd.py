"""Gradient correctness of the autodiff engine (checked against finite differences)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GradientError
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.gradcheck import gradcheck
from repro.utils.rng import RandomState

rng = RandomState(99, name="autograd-tests")


def _tensor(shape, scale=1.0, requires_grad=True):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=requires_grad)


class TestElementwiseGradients:
    def test_add(self):
        a, b = _tensor((3, 4)), _tensor((3, 4))
        assert gradcheck(lambda a, b: F.add(a, b), [a, b])

    def test_add_broadcast_bias(self):
        a, b = _tensor((5, 3)), _tensor((3,))
        assert gradcheck(lambda a, b: F.add(a, b), [a, b])

    def test_sub(self):
        a, b = _tensor((2, 3)), _tensor((2, 3))
        assert gradcheck(lambda a, b: F.sub(a, b), [a, b])

    def test_mul(self):
        a, b = _tensor((4, 2)), _tensor((4, 2))
        assert gradcheck(lambda a, b: F.mul(a, b), [a, b])

    def test_mul_broadcast_scalar_shape(self):
        a, b = _tensor((4, 2)), _tensor((1,))
        assert gradcheck(lambda a, b: F.mul(a, b), [a, b])

    def test_div(self):
        a = _tensor((3, 3))
        b = Tensor(rng.uniform(low=0.5, high=2.0, size=(3, 3)), requires_grad=True)
        assert gradcheck(lambda a, b: F.div(a, b), [a, b])

    def test_neg(self):
        a = _tensor((3, 2))
        assert gradcheck(lambda a: F.neg(a), [a])

    def test_power(self):
        a = Tensor(rng.uniform(low=0.5, high=2.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda a: F.power(a, 3.0), [a])

    def test_relu(self):
        a = _tensor((5, 5))
        a.data[np.abs(a.data) < 0.05] = 0.3  # keep away from the kink
        assert gradcheck(lambda a: F.relu(a), [a])

    def test_sigmoid_tanh_exp_log(self):
        a = Tensor(rng.uniform(low=0.2, high=1.5, size=(4, 3)), requires_grad=True)
        assert gradcheck(lambda a: F.sigmoid(a), [a])
        assert gradcheck(lambda a: F.tanh(a), [a])
        assert gradcheck(lambda a: F.exp(a), [a])
        assert gradcheck(lambda a: F.log(a), [a])


class TestMatmulAndReductions:
    def test_matmul(self):
        a, b = _tensor((4, 3)), _tensor((3, 5))
        assert gradcheck(lambda a, b: F.matmul(a, b), [a, b])

    def test_linear_layer_function(self):
        x, w, b = _tensor((4, 6)), _tensor((3, 6)), _tensor((3,))
        assert gradcheck(lambda x, w, b: F.linear(x, w, b), [x, w, b])

    def test_sum_all(self):
        a = _tensor((3, 4))
        assert gradcheck(lambda a: F.sum(a), [a])

    def test_sum_axis(self):
        a = _tensor((3, 4))
        assert gradcheck(lambda a: F.sum(a, axis=1), [a])

    def test_mean_axis_keepdims(self):
        a = _tensor((3, 4, 2))
        assert gradcheck(lambda a: F.mean(a, axis=(1, 2), keepdims=True), [a])

    def test_reshape_transpose(self):
        a = _tensor((2, 3, 4))
        assert gradcheck(lambda a: F.reshape(a, (6, 4)), [a])
        assert gradcheck(lambda a: F.transpose(a, (2, 0, 1)), [a])


class TestConvPoolNormGradients:
    def test_conv2d_with_bias(self):
        x = _tensor((2, 3, 6, 6), scale=0.5)
        w = _tensor((4, 3, 3, 3), scale=0.3)
        b = _tensor((4,), scale=0.3)
        assert gradcheck(lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1), [x, w, b])

    def test_conv2d_stride_two_no_bias(self):
        x = _tensor((2, 2, 8, 8), scale=0.5)
        w = _tensor((3, 2, 3, 3), scale=0.3)
        assert gradcheck(lambda x, w: F.conv2d(x, w, stride=2, padding=1), [x, w])

    def test_max_pool2d(self):
        x = _tensor((2, 3, 6, 6))
        assert gradcheck(lambda x: F.max_pool2d(x, 2), [x])

    def test_avg_pool2d(self):
        x = _tensor((2, 3, 6, 6))
        assert gradcheck(lambda x: F.avg_pool2d(x, 2), [x])

    def test_batch_norm_2d(self):
        x = _tensor((4, 3, 5, 5))
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        assert gradcheck(lambda x, g, b: F.batch_norm(x, g, b), [x, gamma, beta])

    def test_softmax_and_log_softmax(self):
        x = _tensor((6, 5))
        assert gradcheck(lambda x: F.softmax(x), [x])
        assert gradcheck(lambda x: F.log_softmax(x), [x])

    def test_cross_entropy_matches_manual_gradient(self):
        logits = _tensor((8, 4))
        targets = rng.integers(0, 4, size=8)
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = probs.copy()
        expected[np.arange(8), targets] -= 1.0
        expected /= 8
        np.testing.assert_allclose(logits.grad, expected, atol=1e-5)


class TestBackwardSemantics:
    def test_backward_requires_scalar(self):
        a = _tensor((3, 3))
        out = F.mul(a, a)
        with pytest.raises(GradientError):
            out.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor(np.ones((2, 2)), requires_grad=False)
        with pytest.raises(GradientError):
            a.backward()

    def test_gradients_accumulate_when_tensor_used_twice(self):
        a = _tensor((3,))
        out = F.sum(F.add(F.mul(a, a), a))
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1, rtol=1e-5)

    def test_no_grad_disables_graph(self):
        a = _tensor((2, 2))
        with no_grad():
            out = F.mul(a, a)
        assert out.requires_grad is False
        assert out._ctx is None

    def test_detach_cuts_graph(self):
        a = _tensor((2, 2))
        detached = F.mul(a, a).detach()
        assert detached.requires_grad is False

    def test_operator_overloads_match_functional(self):
        a, b = _tensor((2, 3)), _tensor((2, 3))
        np.testing.assert_allclose((a + b).data, F.add(a, b).data)
        np.testing.assert_allclose((a - b).data, F.sub(a, b).data)
        np.testing.assert_allclose((a * b).data, F.mul(a, b).data)
        np.testing.assert_allclose((a / (b + 3.0)).data, F.div(a, F.add(b, Tensor(3.0))).data)
        np.testing.assert_allclose((-a).data, F.neg(a).data)

    def test_chained_mlp_gradcheck(self):
        x = _tensor((5, 4), scale=0.5)
        w1 = _tensor((3, 4), scale=0.5)
        w2 = _tensor((2, 3), scale=0.5)

        def network(x, w1, w2):
            hidden = F.relu(F.linear(x, w1))
            return F.linear(hidden, w2)

        assert gradcheck(network, [x, w1, w2])
