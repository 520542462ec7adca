"""SGD with momentum and the learning-rate schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import (
    SGD,
    ConstantSchedule,
    MultiStepSchedule,
    StepDecaySchedule,
    schedule_for_model,
)
from repro.optim.schedules import hyperparameters_for_model
from repro.tensor import Tensor
from repro.utils.rng import RandomState

rng = RandomState(21, name="sgd-tests")


def _quadratic_model():
    """A single-parameter model whose loss is (w - 3)^2, for analytic checks."""
    from repro.nn.module import Module, Parameter

    class Quadratic(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(np.array([0.0], dtype=np.float32))

        def forward(self, _x=None):
            return self.w

    return Quadratic()


class TestSGD:
    def test_plain_sgd_step_matches_formula(self):
        model = _quadratic_model()
        optimizer = SGD(model, learning_rate=0.1, momentum=0.0)
        model.w.grad = np.array([2.0], dtype=np.float32)  # d/dw (w-3)^2 at w=0 is -6... use 2
        optimizer.step()
        assert model.w.data[0] == pytest.approx(-0.2)

    def test_momentum_accumulates_velocity(self):
        model = _quadratic_model()
        optimizer = SGD(model, learning_rate=0.1, momentum=0.9)
        for _ in range(2):
            model.w.grad = np.array([1.0], dtype=np.float32)
            optimizer.step()
        # v1 = -0.1; w1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19; w2 = -0.29
        assert model.w.data[0] == pytest.approx(-0.29, rel=1e-5)

    def test_weight_decay_shrinks_weights_without_gradient_signal(self):
        model = _quadratic_model()
        model.w.data[...] = 4.0
        optimizer = SGD(model, learning_rate=0.5, momentum=0.0, weight_decay=0.1)
        model.w.grad = np.array([0.0], dtype=np.float32)
        optimizer.step()
        assert model.w.data[0] < 4.0

    def test_parameters_without_grad_are_skipped(self):
        model = _quadratic_model()
        optimizer = SGD(model, learning_rate=0.1)
        optimizer.step()  # no grads set anywhere
        assert model.w.data[0] == 0.0

    def test_invalid_hyperparameters_rejected(self):
        model = _quadratic_model()
        with pytest.raises(ConfigurationError):
            SGD(model, learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            SGD(model, learning_rate=0.1, momentum=1.0)
        with pytest.raises(ConfigurationError):
            SGD(model, learning_rate=0.1, weight_decay=-0.1)

    def test_apply_update_vector_round_trip(self):
        model = MLP(input_dim=6, num_classes=3, hidden_sizes=(4,), rng=rng)
        optimizer = SGD(model, learning_rate=0.1)
        before = model.parameter_vector()
        update = np.ones_like(before)
        optimizer.apply_update_vector(update)
        np.testing.assert_allclose(model.parameter_vector(), before + 1.0, rtol=1e-6)
        with pytest.raises(ConfigurationError):
            optimizer.apply_update_vector(np.ones(3))

    def test_state_dict_round_trip_preserves_velocity(self):
        model = _quadratic_model()
        optimizer = SGD(model, learning_rate=0.1, momentum=0.9)
        model.w.grad = np.array([1.0], dtype=np.float32)
        optimizer.step()
        payload = optimizer.state_dict()

        model2 = _quadratic_model()
        model2.w.data[...] = model.w.data
        optimizer2 = SGD(model2, learning_rate=0.1, momentum=0.9)
        optimizer2.load_state_dict(payload)
        model2.w.grad = np.array([1.0], dtype=np.float32)
        model.w.grad = np.array([1.0], dtype=np.float32)
        optimizer.step()
        optimizer2.step()
        assert model.w.data[0] == pytest.approx(model2.w.data[0])

    def test_sgd_trains_mlp_to_high_accuracy(self, blobs_dataset):
        model = MLP(input_dim=16, num_classes=4, hidden_sizes=(16,), rng=rng)
        optimizer = SGD(model, learning_rate=0.1, momentum=0.9)
        loss_fn = CrossEntropyLoss()
        images = blobs_dataset.train_images
        labels = blobs_dataset.train_labels
        for _ in range(40):
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(images)), labels)
            loss.backward()
            optimizer.step()
        from repro.nn.metrics import accuracy
        from repro.tensor import no_grad

        model.eval()
        with no_grad():
            acc = accuracy(model(Tensor(blobs_dataset.test_images)), blobs_dataset.test_labels)
        assert acc > 0.9


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.05)
        assert schedule.rate(0) == schedule.rate(100) == 0.05

    def test_multistep_matches_resnet_recipe(self):
        schedule = MultiStepSchedule(0.1, milestones=[80, 120], gamma=0.1)
        assert schedule.rate(10) == pytest.approx(0.1)
        assert schedule.rate(80) == pytest.approx(0.01)
        assert schedule.rate(121) == pytest.approx(0.001)

    def test_step_decay_matches_vgg_recipe(self):
        schedule = StepDecaySchedule(0.1, period=20, gamma=0.5)
        assert schedule.rate(19) == pytest.approx(0.1)
        assert schedule.rate(20) == pytest.approx(0.05)
        assert schedule.rate(40) == pytest.approx(0.025)

    def test_changed_at_detects_boundaries(self):
        schedule = MultiStepSchedule(0.1, milestones=[5])
        assert not schedule.changed_at(3, 4)
        assert schedule.changed_at(4, 5)

    def test_schedule_for_model_shapes(self):
        assert isinstance(schedule_for_model("resnet32"), MultiStepSchedule)
        assert isinstance(schedule_for_model("vgg16"), StepDecaySchedule)
        assert isinstance(schedule_for_model("resnet50-scaled"), MultiStepSchedule)
        assert isinstance(schedule_for_model("lenet"), ConstantSchedule)

    def test_paper_hyperparameters_exist_for_all_models(self):
        for model in ("lenet", "resnet32", "resnet50", "vgg16"):
            params = hyperparameters_for_model(model)
            assert set(params) == {"learning_rate", "momentum", "weight_decay"}

    def test_unknown_model_hyperparameters_raise(self):
        with pytest.raises(ConfigurationError):
            hyperparameters_for_model("alexnet")

    def test_invalid_schedule_parameters(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.0)
        with pytest.raises(ConfigurationError):
            StepDecaySchedule(0.1, period=0)
        with pytest.raises(ConfigurationError):
            MultiStepSchedule(-0.1, milestones=[1])
