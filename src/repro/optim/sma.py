"""Synchronous model averaging (SMA) — Algorithm 1 of the paper.

``k`` learners each train their own model replica ``w_j``.  In every iteration
each learner computes a gradient ``g_j`` on its own batch, computes a
correction ``c_j = α (w_j − z)`` against the central average model ``z``,
and updates its replica with ``w_j ← w_j − g_j − c_j``.  The central average
model then moves by the sum of all corrections plus a Polyak momentum term:
``z ← z + Σ_j c_j + µ (z − z_prev)``.

The implementation operates on *flat parameter vectors* so it is agnostic to
the model architecture; the task engine wires it to the per-replica modules.
It also supports the two refinements described in §3.2/§3.3 of the paper:

* ``synchronisation_period`` (τ): corrections are applied every τ iterations —
  τ = 1 in Crossbow, larger values only exist for the Figure 16/17 experiments,
* ``restart()``: re-initialise the averaging process from the current central
  average model (used when a learning-rate change does not improve accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.optim.step import BlockedStep, validate_step_matrix


@dataclass
class SMAConfig:
    """Hyper-parameters of the SMA synchronisation algorithm.

    Parameters
    ----------
    momentum : float
        Polyak momentum µ of the central-model update, in ``[0, 1)``.
    alpha : float, optional
        Correction weight α in ``[0, 1]``; ``None`` (default) resolves to
        ``1/k`` at construction time.  ``alpha=0.0`` is an explicitly
        supported *no-correction* mode used by the τ = ∞ ablation: replicas
        train independently, the central model only moves by its momentum
        term, and no near-zero sentinel is substituted (earlier versions
        rewrote 0 to ``1e-12``; since PR 1 the zero is honoured exactly and
        the ``(k, P)`` correction matrix work is skipped).
    synchronisation_period : int
        τ — corrections are exchanged every τ-th iteration.  Crossbow always
        uses 1; larger values exist only for the Figure 16/17 experiments.
    """

    momentum: float = 0.9
    alpha: Optional[float] = None  # defaults to 1/k at construction time
    synchronisation_period: int = 1  # τ; the paper always uses 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("SMA momentum must be in [0, 1)")
        # α = 0 is a valid no-correction mode (the τ = ∞ ablation): replicas
        # train independently and the central model never moves.
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("SMA alpha must be in [0, 1]")
        if self.synchronisation_period < 1:
            raise ConfigurationError("synchronisation period τ must be >= 1")


class SMA:
    """State and update rule of synchronous model averaging.

    Parameters
    ----------
    initial_model:
        Flat parameter vector ``w_0`` used to initialise the central average
        model; replicas are expected to start from the same vector.
    num_replicas:
        The number of learners ``k`` whose corrections are consolidated.
    config:
        Algorithm hyper-parameters (momentum µ, correction weight α, period τ).
    """

    def __init__(
        self,
        initial_model: np.ndarray,
        num_replicas: int,
        config: Optional[SMAConfig] = None,
    ) -> None:
        if num_replicas < 1:
            raise ConfigurationError("SMA needs at least one replica")
        self.config = config if config is not None else SMAConfig()
        self.num_replicas = num_replicas
        self.alpha = self.config.alpha if self.config.alpha is not None else 1.0 / num_replicas
        self.center = np.array(initial_model, dtype=np.float32, copy=True)
        self._previous_center = self.center.copy()
        self._blocked_step = BlockedStep(num_replicas, self.center.size)
        self.iteration = 0
        self.restarts = 0
        #: monotone counter bumped by every mutating operation (step, restart);
        #: consumers cache derived state (the trainer's materialised central
        #: model) keyed on it and invalidate when it moves.
        self.version = 0

    # -- per-replica correction -------------------------------------------------------
    def correction(self, replica: np.ndarray) -> np.ndarray:
        """The correction ``c_j = α (w_j − z)`` for one replica (line 9 of Alg. 1)."""
        return self.alpha * (np.asarray(replica, dtype=np.float32) - self.center)

    def should_synchronise(self) -> bool:
        """Whether corrections are exchanged this iteration (τ-periodic)."""
        return (self.iteration + 1) % self.config.synchronisation_period == 0

    # -- central model update ----------------------------------------------------------
    def apply_corrections(self, corrections: Sequence[np.ndarray]) -> np.ndarray:
        """Advance the central average model with the replicas' corrections.

        Implements line 12 of Algorithm 1:
        ``z ← z + Σ_j c_j + µ (z − z_prev)``.  Returns the new central model.
        """
        if len(corrections) != self.num_replicas:
            raise ConfigurationError(
                f"expected {self.num_replicas} corrections, got {len(corrections)}"
            )
        previous = self.center.copy()
        total_correction = np.sum(
            np.stack([np.asarray(c, dtype=np.float32) for c in corrections]), axis=0
        )
        momentum_term = self.config.momentum * (self.center - self._previous_center)
        self.center = self.center + total_correction + momentum_term
        self._previous_center = previous
        self.iteration += 1
        self.version += 1
        return self.center

    def step(self, replicas: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Convenience driver used by the reference (non-engine) training loop.

        Given the replicas *after* their local gradient updates, computes each
        correction, applies it to the replica, updates the central model and
        returns the corrected replicas.  When τ > 1 and this is not a
        synchronisation iteration, replicas are returned unchanged.
        """
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
        """One fused Algorithm-1 iteration over a ``(k, P)`` replica bank.

        Computes the correction matrix ``C = α (W − z)``, then advances the
        central model ``z ← z + C.sum(0) + µ (z − z_prev)`` and the replicas
        ``W ← W − (U + C)`` — bit-identical to the per-replica
        :meth:`correction` / :meth:`apply_corrections` loop, without any
        per-learner Python iteration or flatten/unflatten round trips.  The
        arithmetic runs one cache block of ``P`` at a time
        (:class:`~repro.optim.step.BlockedStep`) and allocates nothing.

        Parameters
        ----------
        weights : numpy.ndarray
            The bank's active ``(k, P)`` matrix — row ``j`` *is* replica
            ``w_j``'s flat weights.  Updated **in place** unless ``out`` is
            given; a list of rows is rejected because the update would mutate
            a silent copy.
        updates : numpy.ndarray, optional
            ``(k, P)`` gradient rows ``G``; row ``j`` is learner ``j``'s raw
            gradient ``g_j``.  The step turns them **in place** into the local
            updates ``U = η G + η λ W`` (``learning_rate`` ``η``,
            ``weight_decay`` ``λ``), one cache block at a time.  With the
            defaults (``η = 1``, ``λ = 0``) they are taken as pre-scaled
            updates and left unchanged.  When omitted, only the
            correction/centre move is applied.
        out : numpy.ndarray, optional
            Deferred publish: write the new replica matrix into ``out``
            instead of mutating ``weights``, leaving ``weights`` untouched as
            the front buffer that pipelined workers keep reading while the
            caller later publishes ``out`` with a buffer flip.  The central
            model and :attr:`version` still advance immediately — ``z`` is
            owned by this object, not by either buffer — so version-keyed
            caches (the trainer's materialised central model) stay correct
            regardless of which buffer is currently published.

        Returns
        -------
        numpy.ndarray
            The new central model ``z`` of shape ``(P,)`` (also stored on
            :attr:`center`).  This is the synchroniser's own buffer: ``z`` and
            ``z_prev`` are double-buffered, so the array is overwritten two
            synchronisation steps later — copy it to keep it.  When this is
            not a synchronisation iteration (τ > 1) or ``alpha == 0`` the
            replicas receive no corrections, but local updates are still
            applied and the iteration counter advances.
        """
        shape = (self.num_replicas, self.center.size)
        out = validate_step_matrix(shape, weights, updates, out)
        synchronise = self.should_synchronise()
        if synchronise and self.alpha != 0.0:
            self._blocked_step(
                weights,
                updates,
                out,
                self.center,
                self.alpha,
                learning_rate,
                weight_decay,
                previous=self._previous_center,
                momentum=self.config.momentum,
            )
        else:
            if synchronise:
                # No-correction mode (τ = ∞ ablation): skip the (k, P) zero-matrix
                # work but keep the central-model momentum bookkeeping identical:
                # z_prev's buffer becomes z + µ (z − z_prev).
                moved = self._previous_center
                np.subtract(self.center, moved, out=moved)
                np.multiply(moved, self.config.momentum, out=moved)
                np.add(self.center, moved, out=moved)
            self._blocked_step.local(weights, updates, out, learning_rate, weight_decay)
        if synchronise:
            # The new centre was written into z_prev's buffer; the old one is z_prev now.
            self.center, self._previous_center = self._previous_center, self.center
        self.iteration += 1
        self.version += 1
        return self.center

    # -- restart (hyper-parameter changes, §3.2) -----------------------------------------
    def restart(self, initial_model: Optional[np.ndarray] = None) -> None:
        """Restart the averaging process from the current (or given) central model."""
        if initial_model is not None:
            self.center = np.array(initial_model, dtype=np.float32, copy=True)
        self._previous_center = self.center.copy()
        self.restarts += 1
        self.version += 1

    # -- introspection --------------------------------------------------------------------
    def divergence(self, replicas: Sequence[np.ndarray]) -> float:
        """Mean L2 distance between the replicas and the central average model."""
        distances = [float(np.linalg.norm(np.asarray(r) - self.center)) for r in replicas]
        return float(np.mean(distances)) if distances else 0.0
