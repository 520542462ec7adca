"""Module container semantics: registration, state dicts, flat parameter views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, ReLU, Sequential
from repro.nn.layers import BatchNorm1d
from repro.utils.rng import RandomState


class _TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 3, rng=RandomState(0))
        self.act = ReLU()
        self.fc2 = Linear(3, 2, rng=RandomState(1))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestRegistration:
    def test_parameters_are_discovered_recursively(self):
        net = _TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_modules_are_discovered(self):
        net = _TinyNet()
        names = [name for name, _ in net.named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names

    def test_buffers_are_registered(self):
        bn = BatchNorm1d(5)
        buffer_names = [name for name, _ in bn.named_buffers()]
        assert sorted(buffer_names) == ["running_mean", "running_var"]

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2), ReLU())
        net.eval()
        assert all(not module.training for module in net.modules())
        net.train()
        assert all(module.training for module in net.modules())


class TestStateDict:
    def test_state_dict_round_trip(self):
        net_a, net_b = _TinyNet(), _TinyNet()
        state = net_a.state_dict()
        net_b.load_state_dict(state)
        np.testing.assert_allclose(net_a.parameter_vector(), net_b.parameter_vector())

    def test_state_dict_copies_data(self):
        net = _TinyNet()
        state = net.state_dict()
        state["fc1.weight"][...] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)

    def test_load_unknown_key_raises(self):
        net = _TinyNet()
        with pytest.raises(KeyError):
            net.load_state_dict({"nope": np.zeros(3)})

    def test_load_shape_mismatch_raises(self):
        net = _TinyNet()
        with pytest.raises(ValueError):
            net.load_state_dict({"fc1.weight": np.zeros((1, 1))})

    def test_buffers_round_trip_through_state_dict(self):
        bn_a, bn_b = BatchNorm1d(3), BatchNorm1d(3)
        bn_a.running_mean[...] = 7.0
        bn_b.load_state_dict(bn_a.state_dict())
        np.testing.assert_allclose(bn_b.running_mean, np.full(3, 7.0))


class TestFlatParameterView:
    def test_parameter_vector_round_trip(self):
        net = _TinyNet()
        vector = net.parameter_vector()
        assert vector.size == net.num_parameters()
        modified = vector + 1.0
        net.load_parameter_vector(modified)
        np.testing.assert_allclose(net.parameter_vector(), modified)

    def test_load_wrong_size_raises(self):
        net = _TinyNet()
        with pytest.raises(ValueError):
            net.load_parameter_vector(np.zeros(3))

    def test_gradient_vector_zero_when_no_grads(self):
        net = _TinyNet()
        grad = net.gradient_vector()
        assert grad.shape == (net.num_parameters(),)
        np.testing.assert_allclose(grad, 0.0)

    def test_gradient_gather_into_bank_row(self):
        """Gathering into a row of a ``(k, P)`` bank gives the allocating gather's floats."""
        net = _TinyNet()
        rng = np.random.default_rng(4)
        params = list(net.parameters())
        for index, param in enumerate(params):
            # Leave one parameter's gradient unset: gather must zero-fill it.
            param.grad = (
                None if index == 1 else rng.standard_normal(param.data.shape).astype(np.float32)
            )
        expected = np.concatenate(
            [np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1) for p in params]
        ).astype(np.float32)
        plain = net.gradient_vector()
        np.testing.assert_array_equal(plain, expected)
        bank = np.full((3, net.num_parameters()), np.nan, dtype=np.float32)
        row = net.gradient_vector(out=bank[1])
        assert np.shares_memory(row, bank[1])
        np.testing.assert_array_equal(bank[1], plain)
        assert np.isnan(bank[0]).all() and np.isnan(bank[2]).all()

    def test_parameter_bytes_is_four_bytes_per_weight(self):
        net = _TinyNet()
        assert net.parameter_bytes() == 4 * net.num_parameters()

    def test_clone_is_independent(self):
        net = _TinyNet()
        clone = net.clone()
        clone.fc1.weight.data[...] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)
        np.testing.assert_allclose(clone.fc2.weight.data, net.fc2.weight.data)

    def test_zero_grad_clears_gradients(self):
        net = _TinyNet()
        for param in net.parameters():
            param.grad = np.ones_like(param.data)
        net.zero_grad()
        assert all(param.grad is None for param in net.parameters())


class TestSequential:
    def test_len_iteration_and_indexing(self):
        seq = Sequential(Linear(2, 3), ReLU(), Linear(3, 1))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        assert len(list(iter(seq))) == 3

    def test_append(self):
        seq = Sequential(Linear(2, 2))
        seq.append(ReLU())
        assert len(seq) == 2

    def test_parameter_is_tensor_requiring_grad(self):
        param = Parameter(np.zeros((2, 2)))
        assert param.requires_grad
