"""Elastic averaging SGD (EA-SGD), the synchronisation baseline of §5.5.

EA-SGD (Zhang et al., 2015) also maintains a central model, but differs from
SMA in two ways that the paper's comparison isolates:

* the central model update carries **no momentum term** — it only moves by the
  elastic force exerted by the replicas, and
* replicas synchronise with the centre every ``communication_period`` (τ)
  iterations rather than every iteration.

The update rule per synchronisation round, with elasticity ``ρ``:
``w_j ← w_j − ρ (w_j − z)`` and ``z ← z + ρ Σ_j (w_j − z)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.optim.step import BlockedStep, validate_step_matrix


@dataclass
class EASGDConfig:
    """Hyper-parameters of elastic averaging SGD.

    Parameters
    ----------
    elasticity : float, optional
        The elastic force ρ in ``(0, 1]``; ``None`` (default) resolves to
        ``1/k``.  Unlike :class:`~repro.optim.sma.SMAConfig`, ρ = 0 is *not*
        accepted: a zero elasticity never moves the centre nor the replicas,
        so the τ = ∞ "no synchronisation" ablation is expressed with SMA's
        ``alpha=0.0`` mode (``CrossbowConfig(synchronisation="none")``)
        instead of a degenerate EA-SGD.
    communication_period : int
        τ — replicas exchange elastic forces every τ-th iteration.
    """

    elasticity: Optional[float] = None  # ρ; defaults to 1/k like SMA's α
    communication_period: int = 1  # τ

    def __post_init__(self) -> None:
        if self.elasticity is not None and not 0.0 < self.elasticity <= 1.0:
            raise ConfigurationError("elasticity must be in (0, 1]")
        if self.communication_period < 1:
            raise ConfigurationError("communication period τ must be >= 1")


class EASGD:
    """State and update rule of elastic averaging SGD over flat parameter vectors."""

    def __init__(
        self,
        initial_model: np.ndarray,
        num_replicas: int,
        config: Optional[EASGDConfig] = None,
    ) -> None:
        if num_replicas < 1:
            raise ConfigurationError("EA-SGD needs at least one replica")
        self.config = config if config is not None else EASGDConfig()
        self.num_replicas = num_replicas
        self.elasticity = (
            self.config.elasticity if self.config.elasticity is not None else 1.0 / num_replicas
        )
        self.center = np.array(initial_model, dtype=np.float32, copy=True)
        self._blocked_step = BlockedStep(num_replicas, self.center.size)
        self.iteration = 0
        #: monotone counter bumped by every mutating operation, mirroring
        #: :attr:`repro.optim.sma.SMA.version` for central-model caching.
        self.version = 0

    def should_synchronise(self) -> bool:
        return (self.iteration + 1) % self.config.communication_period == 0

    def correction(self, replica: np.ndarray) -> np.ndarray:
        """Elastic force pulling one replica towards the centre."""
        return self.elasticity * (np.asarray(replica, dtype=np.float32) - self.center)

    def apply_corrections(self, corrections: Sequence[np.ndarray]) -> np.ndarray:
        """Move the centre by the sum of elastic forces (no momentum term)."""
        if len(corrections) != self.num_replicas:
            raise ConfigurationError(
                f"expected {self.num_replicas} corrections, got {len(corrections)}"
            )
        total = np.sum(np.stack([np.asarray(c, dtype=np.float32) for c in corrections]), axis=0)
        self.center = self.center + total
        self.iteration += 1
        self.version += 1
        return self.center

    def step(self, replicas: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Synchronise replicas with the centre (every τ-th call)."""
        if len(replicas) != self.num_replicas:
            raise ConfigurationError(
                f"expected {self.num_replicas} replicas, got {len(replicas)}"
            )
        if not self.should_synchronise():
            self.iteration += 1
            self.version += 1
            return [np.asarray(r, dtype=np.float32) for r in replicas]
        corrections = [self.correction(replica) for replica in replicas]
        corrected = [
            np.asarray(replica, dtype=np.float32) - correction
            for replica, correction in zip(replicas, corrections)
        ]
        self.apply_corrections(corrections)
        return corrected

    def step_matrix(
        self,
        weights: np.ndarray,
        updates: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        learning_rate: float = 1.0,
        weight_decay: float = 0.0,
    ) -> np.ndarray:
        """One fused EA-SGD iteration over a ``(k, P)`` replica bank.

        Mirrors :meth:`SMA.step_matrix` minus the momentum term (the raw
        gradient rows become ``U = η G + η λ W`` in place the same way): with
        ``C = ρ (W − z)``, applies ``z ← z + C.sum(0)`` and ``W ← W − (U + C)``
        in place — or into ``out`` (deferred publish for the pipelined
        executor: ``weights`` stays untouched as the front buffer, the centre
        and :attr:`version` advance immediately).  Returns the new central
        model, which is :attr:`center` itself: it moves in place, so copy it
        to keep a snapshot.
        """
        out = validate_step_matrix((self.num_replicas, self.center.size), weights, updates, out)
        if self.should_synchronise():
            self._blocked_step(
                weights, updates, out, self.center, self.elasticity, learning_rate, weight_decay
            )
        else:
            self._blocked_step.local(weights, updates, out, learning_rate, weight_decay)
        self.iteration += 1
        self.version += 1
        return self.center

    def restart(self, initial_model: Optional[np.ndarray] = None) -> None:
        """Provided for interface parity with SMA (EA-SGD keeps no momentum state)."""
        if initial_model is not None:
            self.center = np.array(initial_model, dtype=np.float32, copy=True)
        self.version += 1

    def divergence(self, replicas: Sequence[np.ndarray]) -> float:
        distances = [float(np.linalg.norm(np.asarray(r) - self.center)) for r in replicas]
        return float(np.mean(distances)) if distances else 0.0
