"""The trainer's learning-rate row scaling, ``updates *= lr``.

One op survives here: :meth:`KernelBackend.scale_rows`, which the trainer
calls once per iteration on its ``(k, P)`` update matrix before the fused
step (:mod:`repro.optim.step`).  It stays a method on a class, rather than a
plain function, because it is the span boundary the end-to-end harness wraps
to time ``optim.scale_rows_s``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelBackend"]


class KernelBackend:
    """Holder of the update-row scaling the trainer runs before each step."""

    def scale_rows(self, matrix: np.ndarray, scale: float) -> np.ndarray:
        """``matrix *= scale`` in place — the learning-rate scaling of the gather."""
        np.multiply(matrix, scale, out=matrix)
        return matrix
