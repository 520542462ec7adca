"""The benchmark models from Table 1 of the paper.

Each model is available in its paper-faithful configuration (``lenet``,
``resnet32``, ``resnet50``, ``vgg16``) and in a *scaled* configuration
(``lenet-scaled``, ``resnet32-scaled``, ...) with fewer channels and a lower
input resolution, which is what the CPU-bound convergence experiments train.
Scaled variants keep the architecture family — depth pattern, residual
connections, conv/BN/pool structure — so the per-model trends reported in the
paper survive the substitution (see DESIGN.md §2).
"""

from repro.models.registry import MODEL_REGISTRY, create_model
from repro.models.lenet import LeNet
from repro.models.resnet import ResNet, BasicBlock, BottleneckBlock, resnet32, resnet50
from repro.models.vgg import VGG, vgg16
from repro.models.mlp import MLP
from repro.models.summary import ModelSummary, summarize_model

__all__ = [
    "MODEL_REGISTRY",
    "create_model",
    "LeNet",
    "ResNet",
    "BasicBlock",
    "BottleneckBlock",
    "resnet32",
    "resnet50",
    "VGG",
    "vgg16",
    "MLP",
    "ModelSummary",
    "summarize_model",
]
