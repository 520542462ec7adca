"""Model registry: paper-faithful and scaled configurations by name."""

from __future__ import annotations

from typing import Optional

from repro.models.lenet import LeNet
from repro.models.mlp import MLP
from repro.models.resnet import resnet32, resnet50
from repro.models.vgg import vgg16
from repro.utils.registry import Registry
from repro.utils.rng import RandomState

MODEL_REGISTRY = Registry("model")

# -- paper-faithful configurations (Table 1) ------------------------------------------


@MODEL_REGISTRY.register("lenet")
def _lenet(rng: Optional[RandomState] = None, **overrides):
    return LeNet(num_classes=10, in_channels=1, input_size=28, rng=rng, **overrides)


@MODEL_REGISTRY.register("resnet32")
def _resnet32(rng: Optional[RandomState] = None, **overrides):
    return resnet32(num_classes=10, in_channels=3, rng=rng, **overrides)


@MODEL_REGISTRY.register("resnet50")
def _resnet50(rng: Optional[RandomState] = None, **overrides):
    return resnet50(num_classes=1000, in_channels=3, rng=rng, **overrides)


@MODEL_REGISTRY.register("vgg16")
def _vgg16(rng: Optional[RandomState] = None, **overrides):
    return vgg16(num_classes=100, in_channels=3, input_size=32, rng=rng, **overrides)


# -- scaled configurations for CPU-bound convergence experiments ----------------------
# Same architecture family, reduced width and input resolution (see DESIGN.md §2).


@MODEL_REGISTRY.register("lenet-scaled")
def _lenet_scaled(rng: Optional[RandomState] = None, **overrides):
    params = {"num_classes": 10, "in_channels": 1, "input_size": 12, "width_multiplier": 0.25}
    params.update(overrides)
    return LeNet(rng=rng, **params)


@MODEL_REGISTRY.register("resnet32-scaled")
def _resnet32_scaled(rng: Optional[RandomState] = None, **overrides):
    params = {
        "num_classes": 10,
        "in_channels": 3,
        "width_multiplier": 0.5,
        "blocks_per_stage": 2,
    }
    params.update(overrides)
    return resnet32(rng=rng, **params)


@MODEL_REGISTRY.register("resnet50-scaled")
def _resnet50_scaled(rng: Optional[RandomState] = None, **overrides):
    params = {
        "num_classes": 10,
        "in_channels": 3,
        "width_multiplier": 0.125,
        "stage_blocks": (2, 2, 2, 2),
    }
    params.update(overrides)
    return resnet50(rng=rng, **params)


@MODEL_REGISTRY.register("vgg16-scaled")
def _vgg16_scaled(rng: Optional[RandomState] = None, **overrides):
    params = {
        "num_classes": 10,
        "in_channels": 3,
        "input_size": 16,
        "width_multiplier": 0.125,
        "dropout": 0.2,
    }
    params.update(overrides)
    return vgg16(rng=rng, **params)


@MODEL_REGISTRY.register("mlp")
def _mlp(rng: Optional[RandomState] = None, **overrides):
    params = {"input_dim": 32, "num_classes": 4, "hidden_sizes": (32, 16)}
    params.update(overrides)
    return MLP(rng=rng, **params)


def create_model(name: str, rng: Optional[RandomState] = None, **overrides):
    """Instantiate a registered model configuration by name."""
    return MODEL_REGISTRY.create(name, rng=rng, **overrides)
