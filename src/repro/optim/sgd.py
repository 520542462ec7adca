"""Mini-batch SGD with Polyak momentum and weight decay (Eq. 1–3 of the paper)."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


# repro: waive[R6] - the reference the fused steps are tested against bit for bit
class SGD(Optimizer):
    """Stochastic gradient descent with momentum.

    Implements ``w_{n+1} = w_n - γ ∇l(w_n) + µ (w_n - w_{n-1})`` via the usual
    velocity formulation, with optional L2 weight decay added to the gradient.
    It drives no trainer: the one training loop applies every update as a
    fused step over the replica bank (:mod:`repro.optim.step`,
    :mod:`repro.optim.ssgd`), and tests keep this per-parameter optimiser as
    the reference those steps must match bit for bit.
    """

    def __init__(
        self,
        module: Module,
        learning_rate: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(module)
        if learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ConfigurationError("weight decay must be non-negative")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self) -> None:
        """Apply one update using the gradients stored on the parameters."""
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                entry = self.state.setdefault(id(param), {})
                velocity = entry.get("velocity")
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity - self.learning_rate * grad
                entry["velocity"] = velocity
                param.data += velocity
            else:
                param.data -= self.learning_rate * grad
        self.iteration += 1

    def apply_update_vector(self, update: np.ndarray) -> None:
        """Add a flat update vector directly to the parameters.

        Used by the synchronisation algorithms, which compute corrections on the
        flat parameter view of a replica.
        """
        expected = sum(param.data.size for param in self.params)
        if update.size != expected:
            raise ConfigurationError(
                f"update vector has {update.size} elements but parameters have {expected}"
            )
        offset = 0
        for param in self.params:
            size = param.data.size
            param.data += update[offset : offset + size].reshape(param.data.shape)
            offset += size
