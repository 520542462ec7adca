"""Parallel synchronous SGD (S-SGD), the TensorFlow-style baseline of §2.3 (Figure 1).

``g`` replicas compute partial gradients ``G_j`` on equal shares of one
aggregate batch; their share-weighted average drives one momentum-SGD update
of every replica: ``a = Σ_j G_j / g + λ w``, ``v ← µ v − η a``, ``w ← w + v``.
The rows of the ``(g, P)`` bank therefore stay identical, and equal the
centre ``z``.  One blocked pass computes the floats of averaging the flat
gradients in row order and handing the average to :class:`~repro.optim.sgd.SGD`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.optim.step import block_columns, validate_step_matrix


class SSGD:
    """State and update rule of S-SGD over a ``(g, P)`` replica bank, momentum ``µ``."""

    def __init__(self, initial_model: np.ndarray, num_replicas: int, momentum: float) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("S-SGD momentum must be in [0, 1)")
        self.num_replicas = num_replicas
        self.momentum = momentum
        self.share = 1.0 / num_replicas  # each partial gradient's weight
        self.center = np.array(initial_model, dtype=np.float32, copy=True)
        self._velocity = np.zeros_like(self.center)
        self.block = min(block_columns(num_replicas), max(1, self.center.size))
        self._average = np.empty(self.block, dtype=np.float32)
        self._term = np.empty(self.block, dtype=np.float32)
        self.version = 0  # bumped by every step, like SMA.version

    def should_synchronise(self) -> bool:
        return True

    def step_matrix(
        self,
        weights: np.ndarray,
        updates: np.ndarray,
        out: Optional[np.ndarray] = None,
        learning_rate: float = 1.0,
        weight_decay: float = 0.0,
    ) -> np.ndarray:
        """Average the raw gradient rows ``updates`` and step every row of ``weights``.

        ``updates`` is left unchanged; the new rows land in ``out`` when given.
        Returns :attr:`center`, which moves in place: copy it to keep it.
        """
        out = validate_step_matrix((self.num_replicas, self.center.size), weights, updates, out)
        for start in range(0, weights.shape[1], self.block):
            stop = min(start + self.block, weights.shape[1])
            average, term = self._average[: stop - start], self._term[: stop - start]
            np.multiply(updates[0, start:stop], self.share, out=average)
            for row in updates[1:, start:stop]:
                np.multiply(row, self.share, out=term)
                np.add(average, term, out=average)
            if weight_decay:
                np.multiply(weights[0, start:stop], weight_decay, out=term)
                np.add(average, term, out=average)
            np.multiply(average, learning_rate, out=average)
            z = self.center[start:stop]
            if self.momentum:
                velocity = self._velocity[start:stop]
                np.multiply(velocity, self.momentum, out=velocity)
                np.subtract(velocity, average, out=velocity)
                np.add(weights[:, start:stop], velocity, out=out[:, start:stop])
                np.add(z, velocity, out=z)
            else:  # SGD without momentum subtracts the step
                np.subtract(weights[:, start:stop], average, out=out[:, start:stop])
                np.subtract(z, average, out=z)
        self.version += 1
        return self.center
