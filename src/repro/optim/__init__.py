"""Optimisers and synchronisation algorithms.

* :class:`~repro.optim.sgd.SGD` — mini-batch gradient descent with Polyak
  momentum and weight decay (Eq. 3 of the paper) on one module; no trainer
  uses it, tests keep it as the reference the fused steps must match.
* :class:`~repro.optim.sma.SMA` — synchronous model averaging, the paper's
  Algorithm 1 and core contribution.
* :class:`~repro.optim.easgd.EASGD` — elastic averaging SGD, the baseline the
  paper compares SMA against in §5.5.
* :class:`~repro.optim.ssgd.SSGD` — parallel synchronous SGD, the
  TensorFlow-style baseline of §2.3, as a fused step over the replica bank.
* :mod:`~repro.optim.schedules` — learning-rate schedules (step decay for
  ResNet-32, halving for VGG) shared by all trainers.
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.schedules import (
    ConstantSchedule,
    LearningRateSchedule,
    MultiStepSchedule,
    StepDecaySchedule,
    schedule_for_model,
)
from repro.optim.sma import SMA, SMAConfig
from repro.optim.easgd import EASGD, EASGDConfig
from repro.optim.ssgd import SSGD
from repro.optim.asgd import ASGD, StalenessModel

__all__ = [
    "Optimizer",
    "SGD",
    "LearningRateSchedule",
    "ConstantSchedule",
    "StepDecaySchedule",
    "MultiStepSchedule",
    "schedule_for_model",
    "SMA",
    "SMAConfig",
    "EASGD",
    "EASGDConfig",
    "SSGD",
    "ASGD",
    "StalenessModel",
]
