"""Benchmark model architectures: output shapes, sizes (Table 1) and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    LeNet,
    MLP,
    create_model,
    model_names,
    resnet32,
    resnet50,
    summarize_model,
    vgg16,
)
from repro.tensor import Tensor, no_grad
from repro.utils.rng import RandomState

rng = RandomState(3, name="model-tests")


def _forward(model, shape):
    model.eval()
    with no_grad():
        return model(Tensor(rng.normal(size=shape).astype(np.float32)))


class TestArchitectures:
    def test_lenet_output_shape(self):
        model = LeNet(num_classes=10, in_channels=1, input_size=28, width_multiplier=0.25, rng=rng)
        assert _forward(model, (2, 1, 28, 28)).shape == (2, 10)

    def test_lenet_scaled_input_size(self):
        model = LeNet(num_classes=10, in_channels=1, input_size=12, width_multiplier=0.25, rng=rng)
        assert _forward(model, (3, 1, 12, 12)).shape == (3, 10)

    def test_resnet32_scaled_output_shape(self):
        model = resnet32(num_classes=10, width_multiplier=0.25, blocks_per_stage=1, rng=rng)
        assert _forward(model, (2, 3, 16, 16)).shape == (2, 10)

    def test_resnet50_scaled_output_shape(self):
        model = resnet50(
            num_classes=10, width_multiplier=0.125, stage_blocks=(1, 1, 1, 1), rng=rng
        )
        assert _forward(model, (2, 3, 32, 32)).shape == (2, 10)

    def test_vgg_scaled_output_shape(self):
        model = vgg16(num_classes=10, input_size=16, width_multiplier=0.0625, rng=rng)
        assert _forward(model, (2, 3, 16, 16)).shape == (2, 10)

    def test_mlp_output_shape(self):
        model = MLP(input_dim=20, num_classes=5, hidden_sizes=(8,), rng=rng)
        assert _forward(model, (4, 1, 1, 20)).shape == (4, 5)

    def test_resnet_rejects_bad_block_type(self):
        from repro.models.resnet import ResNet

        with pytest.raises(ValueError):
            ResNet("weird", [1], [16], num_classes=10)

    def test_resnet_backward_pass_produces_gradients(self):
        from repro.tensor import functional as F

        model = resnet32(num_classes=4, width_multiplier=0.25, blocks_per_stage=1, rng=rng)
        x = Tensor(rng.normal(size=(4, 3, 8, 8)).astype(np.float32))
        loss = F.cross_entropy(model(x), rng.integers(0, 4, size=4))
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)


#: every registered model with a training input; the paper-size configurations
#: keep their layer types at a fraction of the width
_ZOO = {
    "mlp": ({}, (4, 32)),
    "lenet": ({"width_multiplier": 0.25}, (2, 1, 28, 28)),
    "lenet-scaled": ({}, (2, 1, 12, 12)),
    "resnet32": ({"width_multiplier": 0.25, "blocks_per_stage": 1}, (2, 3, 8, 8)),
    "resnet32-scaled": ({}, (2, 3, 8, 8)),
    "resnet50": ({"width_multiplier": 0.125, "stage_blocks": (1, 1, 1, 1)}, (2, 3, 32, 32)),
    "resnet50-scaled": ({}, (2, 3, 32, 32)),
    "vgg16": ({"width_multiplier": 0.0625}, (2, 3, 32, 32)),
    "vgg16-scaled": ({}, (2, 3, 16, 16)),
}


class TestGradientLayout:
    """The gradient gather is a memcpy only if every ``.grad`` is C-contiguous."""

    def test_zoo_covers_every_registered_model(self):
        assert set(_ZOO) == set(model_names())

    @pytest.mark.parametrize("name", sorted(_ZOO))
    def test_parameter_gradients_are_c_contiguous(self, name):
        from repro.tensor import functional as F

        overrides, shape = _ZOO[name]
        model = create_model(name, rng=RandomState(5), **overrides)
        x = Tensor(rng.normal(size=shape).astype(np.float32))
        logits = model(x)
        F.cross_entropy(logits, rng.integers(0, logits.shape[1], size=shape[0])).backward()
        for param_name, param in model.named_parameters():
            assert param.grad is not None, param_name
            assert param.grad.flags.c_contiguous, param_name


class TestTable1Sizes:
    """Model sizes reported in Table 1 of the paper (in MB, float32 weights)."""

    def test_resnet32_size_close_to_paper(self):
        summary = summarize_model(create_model("resnet32"))
        assert summary.model_size_mb == pytest.approx(1.79, abs=0.1)

    def test_vgg16_size_close_to_paper(self):
        summary = summarize_model(create_model("vgg16"))
        assert summary.model_size_mb == pytest.approx(57.37, abs=2.0)

    def test_resnet50_size_close_to_paper(self):
        summary = summarize_model(create_model("resnet50"))
        assert summary.model_size_mb == pytest.approx(97.49, abs=3.0)

    def test_lenet_size_order_of_magnitude(self):
        summary = summarize_model(create_model("lenet"))
        assert 2.0 < summary.model_size_mb < 8.0

    def test_operator_count_ordering_matches_paper(self):
        # Table 1: LeNet has the fewest operators, ResNet-50 the most,
        # and ResNet-32 has more than VGG-16.
        ops = {
            name: summarize_model(create_model(name)).num_operators
            for name in ("lenet", "vgg16", "resnet32", "resnet50")
        }
        assert ops["lenet"] < ops["vgg16"] < ops["resnet32"] < ops["resnet50"]


class TestRegistry:
    def test_all_expected_models_registered(self):
        names = model_names()
        for expected in ("lenet", "resnet32", "resnet50", "vgg16", "mlp"):
            assert expected in names
            assert f"{expected}-scaled" in names or expected == "mlp"

    def test_unknown_model_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="resnet32"):
            create_model("resnet34")

    def test_scaled_models_are_much_smaller(self):
        full = create_model("resnet32").num_parameters()
        scaled = create_model("resnet32-scaled").num_parameters()
        assert scaled < full / 4

    def test_model_overrides_are_applied(self):
        wide = create_model("mlp", hidden_sizes=(64, 64))
        narrow = create_model("mlp", hidden_sizes=(8,))
        assert wide.num_parameters() > narrow.num_parameters()

    def test_same_seed_gives_identical_weights(self):
        a = create_model("resnet32-scaled", rng=RandomState(5))
        b = create_model("resnet32-scaled", rng=RandomState(5))
        np.testing.assert_allclose(a.parameter_vector(), b.parameter_vector())
