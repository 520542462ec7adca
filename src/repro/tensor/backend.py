"""A learning-rate row scaling, ``updates *= lr``, that nothing in ``src/`` calls.

The trainer hands the fused step its raw ``(k, P)`` gradient rows, and the
step folds the learning rate and the weight decay into its block loop
(:mod:`repro.optim.step`).  :class:`KernelBackend` stays importable only
because the end-to-end harness (``benchmarks/e2e/trace.py``) wraps
``KernelBackend.scale_rows`` by name to time ``optim.scale_rows_s``, which
now reads 0.  It goes when that wrapper does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelBackend"]


class KernelBackend:
    """Holder of the update-row scaling the end-to-end harness still wraps."""

    def scale_rows(self, matrix: np.ndarray, scale: float) -> np.ndarray:
        """``matrix *= scale`` in place."""
        np.multiply(matrix, scale, out=matrix)
        return matrix
