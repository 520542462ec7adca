"""The fused Algorithm-1 step over a ``(k, P)`` replica bank, one cache block at a time.

Both model-averaging synchronisers advance their central model ``z`` and the
replica bank ``W`` with the same passes: the local update
``U ← η G + η λ W`` from the raw gradient rows ``G`` (learning rate ``η``,
weight decay ``λ``), the correction ``C = c (W − z)``, its column sum
``Σ_j C_j``, the centre move, ``C += U`` and ``W ← W − C``.  Run over the
whole bank, every pass is a trip through memory -- at the benchmark MLP's
1.84M parameters one row is 7 MB, far past L2.  :class:`BlockedStep` runs
every pass over one column block of ``P`` before it moves to the next,
writing through ``out=`` into scratch allocated once per synchroniser, so a
step creates no ``(k, P)`` or ``P``-sized temporary.

Tiling ``P`` changes no float.  Every pass is elementwise along ``P``, and
the column sum still adds the ``k`` rows one column at a time, in row order,
starting from ``+0.0`` -- the order ``sum(axis=0)`` uses on a C-ordered
``(k, P)`` matrix (the one exception is a single-column matrix with ``k >=
8``, which NumPy sums pairwise).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Bytes of the ``(k, block)`` float32 correction tile.  The tile, the
#: block's slice of ``W`` and the per-column rows stay in L2 while every pass
#: of the step runs over the block.
STEP_CACHE_BYTES = 256 * 1024


def block_columns(num_replicas: int) -> int:
    """Columns per block: a ``(k, block)`` float32 tile fills :data:`STEP_CACHE_BYTES`."""
    return max(1, STEP_CACHE_BYTES // (4 * num_replicas))


def validate_step_matrix(
    shape: Tuple[int, int],
    weights: np.ndarray,
    updates: Optional[np.ndarray],
    out: Optional[np.ndarray],
) -> np.ndarray:
    """Shared shape/type checks for the fused ``step_matrix`` updates.

    ``shape`` is the synchroniser's ``(k, P)``.  Used by both
    :meth:`repro.optim.sma.SMA.step_matrix` and
    :meth:`repro.optim.easgd.EASGD.step_matrix` so the deferred-publish
    contract (``out=``) cannot silently diverge between the synchronisers.
    Returns the resolved output matrix: ``out`` when given, else ``weights``
    (in-place update).
    """
    if not isinstance(weights, np.ndarray):
        # np.asarray would copy a list of rows and the in-place update
        # would silently mutate the copy, not the caller's replicas.
        raise ConfigurationError("step_matrix requires an ndarray updated in place")
    if weights.shape != shape:
        raise ConfigurationError(f"expected a {shape} weight matrix, got {weights.shape}")
    if updates is not None and updates.shape != shape:
        raise ConfigurationError(f"update matrix has shape {updates.shape}, expected {shape}")
    if out is None:
        return weights
    if not isinstance(out, np.ndarray) or out.shape != shape:
        raise ConfigurationError(f"out matrix must be an ndarray of shape {shape}")
    return out


class BlockedStep:
    """One synchroniser's fused step kernel and the scratch it reuses.

    Both entry points turn each block of the raw gradient rows ``U`` into
    local updates in place, ``U_b *= lr`` then ``U_b += W_b * (lr * wd)``,
    before the block's other passes: per element, the floats of scaling the
    whole bank and then adding a whole-bank decay term.  The defaults
    (``lr = 1``, ``wd = 0``) leave pre-scaled updates untouched.

    Parameters
    ----------
    num_replicas, num_parameters:
        The bank's ``(k, P)``; the scratch is a ``(k, block)`` tile and one
        ``block``-long row, with ``block = min(block_columns(k), P)``.
    """

    def __init__(self, num_replicas: int, num_parameters: int) -> None:
        self.block = min(block_columns(num_replicas), max(1, num_parameters))
        self._tile = np.empty((num_replicas, self.block), dtype=np.float32)
        self._sums = np.empty(self.block, dtype=np.float32)

    def __call__(
        self,
        weights: np.ndarray,
        updates: Optional[np.ndarray],
        out: np.ndarray,
        center: np.ndarray,
        coefficient: float,
        learning_rate: float = 1.0,
        weight_decay: float = 0.0,
        previous: Optional[np.ndarray] = None,
        momentum: float = 0.0,
    ) -> None:
        """Advance ``z`` and write ``W − (U + c (W − z))`` into ``out``.

        Without ``previous`` (EA-SGD) the centre moves in place,
        ``z ← z + Σ_j C_j``.  With it (SMA) the new centre
        ``z + Σ_j C_j + µ (z − previous)`` is written into ``previous`` and
        ``center`` is left untouched, so the caller swaps the two buffers.
        ``out`` may be ``weights``.
        """
        size = weights.shape[1]
        for start in range(0, size, self.block):
            stop = min(start + self.block, size)
            tile = self._tile[:, : stop - start]
            sums = self._sums[: stop - start]
            block = weights[:, start:stop]
            if updates is not None:
                self._fold(updates[:, start:stop], block, tile, learning_rate, weight_decay)
            z = center[start:stop]
            np.subtract(block, z, out=tile)
            np.multiply(tile, coefficient, out=tile)
            sums.fill(0.0)
            for row in tile:
                np.add(sums, row, out=sums)
            if previous is None:
                np.add(z, sums, out=z)
            else:
                moved = previous[start:stop]
                np.subtract(z, moved, out=moved)
                np.multiply(moved, momentum, out=moved)
                np.add(sums, z, out=sums)  # z + ΣC: IEEE addition commutes
                np.add(sums, moved, out=moved)
            if updates is not None:
                np.add(tile, updates[:, start:stop], out=tile)
            np.subtract(block, tile, out=out[:, start:stop])

    def local(
        self,
        weights: np.ndarray,
        updates: Optional[np.ndarray],
        out: np.ndarray,
        learning_rate: float = 1.0,
        weight_decay: float = 0.0,
    ) -> None:
        """``out = W − U`` (or a copy of ``W``): a step that exchanges no correction."""
        if updates is None:
            if out is not weights:
                np.copyto(out, weights)
            return
        for start in range(0, weights.shape[1], self.block):
            stop = min(start + self.block, weights.shape[1])
            block, rows = weights[:, start:stop], updates[:, start:stop]
            self._fold(rows, block, self._tile[:, : stop - start], learning_rate, weight_decay)
            np.subtract(block, rows, out=out[:, start:stop])

    @staticmethod
    def _fold(updates, weights, tile, learning_rate: float, weight_decay: float) -> None:
        """One block of raw gradients into local updates: ``U *= lr``, ``U += W (lr wd)``."""
        if learning_rate != 1.0:
            np.multiply(updates, learning_rate, out=updates)
        if weight_decay:
            np.multiply(weights, learning_rate * weight_decay, out=tile)
            np.add(updates, tile, out=updates)
