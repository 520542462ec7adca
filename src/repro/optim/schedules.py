"""Learning-rate schedules.

The paper's experimental set-up (§5.1) follows common practice: for ResNet-32
the learning rate is multiplied by 0.1 at epochs 80 and 120; for VGG it is
halved every 20 epochs.  SMA additionally restarts the averaging process when a
schedule change does not improve accuracy (§3.2) — the trainer consults
:meth:`LearningRateSchedule.changed_at` to detect those boundaries.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigurationError


class LearningRateSchedule:
    """Maps an epoch number (possibly fractional) to a learning rate."""

    def rate(self, epoch: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def changed_at(self, previous_epoch: float, epoch: float) -> bool:
        """True if the learning rate changed between the two epochs."""
        return self.rate(previous_epoch) != self.rate(epoch)


class ConstantSchedule(LearningRateSchedule):
    """A fixed learning rate."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        self.learning_rate = learning_rate

    def rate(self, epoch: float) -> float:
        return self.learning_rate


class MultiStepSchedule(LearningRateSchedule):
    """Multiply the base rate by ``gamma`` at each milestone epoch.

    ``MultiStepSchedule(0.1, milestones=[80, 120], gamma=0.1)`` is the ResNet-32
    recipe from the paper.
    """

    def __init__(self, base_rate: float, milestones: Sequence[float], gamma: float = 0.1) -> None:
        if base_rate <= 0:
            raise ConfigurationError("base learning rate must be positive")
        if gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        self.base_rate = base_rate
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def rate(self, epoch: float) -> float:
        rate = self.base_rate
        for milestone in self.milestones:
            if epoch >= milestone:
                rate *= self.gamma
        return rate


class StepDecaySchedule(LearningRateSchedule):
    """Multiply the base rate by ``gamma`` every ``period`` epochs.

    ``StepDecaySchedule(0.1, period=20, gamma=0.5)`` is the VGG recipe from the
    paper (halve the learning rate every 20 epochs).
    """

    def __init__(self, base_rate: float, period: float, gamma: float = 0.5) -> None:
        if base_rate <= 0 or period <= 0 or gamma <= 0:
            raise ConfigurationError("base rate, period and gamma must be positive")
        self.base_rate = base_rate
        self.period = period
        self.gamma = gamma

    def rate(self, epoch: float) -> float:
        steps = int(epoch // self.period)
        return self.base_rate * (self.gamma**steps)


# Hyper-parameters used in the paper's evaluation (Figure 9 captions): learning
# rate, momentum and weight decay per model, plus the schedule shape.
PAPER_HYPERPARAMETERS: Dict[str, Dict[str, float]] = {
    "lenet": {"learning_rate": 0.001, "momentum": 0.9, "weight_decay": 1e-4},
    "resnet32": {"learning_rate": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
    "resnet50": {"learning_rate": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
    "vgg16": {"learning_rate": 0.1, "momentum": 0.9, "weight_decay": 5e-4},
    "mlp": {"learning_rate": 0.05, "momentum": 0.9, "weight_decay": 0.0},
}


def hyperparameters_for_model(model_name: str) -> Dict[str, float]:
    """Learning rate / momentum / weight decay used by the paper for a model."""
    base_name = model_name.replace("-scaled", "")
    if base_name not in PAPER_HYPERPARAMETERS:
        raise ConfigurationError(f"no hyper-parameters recorded for model {model_name!r}")
    return dict(PAPER_HYPERPARAMETERS[base_name])


def schedule_for_model(model_name: str, base_rate: float = None) -> LearningRateSchedule:
    """The learning-rate schedule the paper uses for a benchmark model."""
    base_name = model_name.replace("-scaled", "")
    params = hyperparameters_for_model(base_name)
    rate = base_rate if base_rate is not None else params["learning_rate"]
    if base_name == "resnet32":
        return MultiStepSchedule(rate, milestones=[80, 120], gamma=0.1)
    if base_name == "vgg16":
        return StepDecaySchedule(rate, period=20, gamma=0.5)
    if base_name == "resnet50":
        return MultiStepSchedule(rate, milestones=[30, 60], gamma=0.1)
    return ConstantSchedule(rate)
