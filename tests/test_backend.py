"""Tests for the trainer's sync section.

The sync section -- ``KernelBackend.scale_rows`` on the ``(k, P)`` update
matrix, then the fused ``step_matrix`` -- must produce the exact floats of
Algorithm 1 run one replica at a time, for SMA and EA-SGD at k in {1, 4, 16}.
So must the step that takes the raw gradient rows with the learning rate and
weight decay and folds them into its block loop, against the unfused
order: scale, add the decay term, then step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim.easgd import EASGD
from repro.optim.sma import SMA, SMAConfig
from repro.tensor.backend import KernelBackend


def _bank(k, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, p)).astype(np.float32)


def _sync_section_matches_per_replica_loop(make_sync, k, p, seed, weight_decay=None):
    """``scale_rows`` + fused ``step_matrix`` == Algorithm 1 one replica at a time.

    With ``weight_decay``, the step gets the raw gradients, the learning rate
    and the decay instead, and the oracle adds ``w (lr wd)`` to each row.
    """
    backend = KernelBackend()
    initial = _bank(1, p, seed=seed)[0]
    fused, oracle = make_sync(initial), make_sync(initial)
    weights = initial + 0.1 * _bank(k, p, seed=seed + 1)
    replicas = list(weights.copy())
    for step in range(4):
        gradients = _bank(k, p, seed=seed + 10 + step)
        if weight_decay is None:
            fused.step_matrix(weights, backend.scale_rows(gradients.copy(), 0.05))
        else:
            fused.step_matrix(
                weights, gradients.copy(), learning_rate=0.05, weight_decay=weight_decay
            )
        corrections = [oracle.correction(w) for w in replicas]
        scaled = [g * np.float32(0.05) for g in gradients]
        if weight_decay is not None:
            scaled = [u + w * np.float32(0.05 * weight_decay) for u, w in zip(scaled, replicas)]
        replicas = [w - (u + c) for w, u, c in zip(replicas, scaled, corrections)]
        oracle.apply_corrections(corrections)
    np.testing.assert_array_equal(weights, np.stack(replicas))
    np.testing.assert_array_equal(fused.center, oracle.center)


# ------------------------------------------------------------------- sync section
@pytest.mark.parametrize("k", [1, 4, 16])
class TestSyncSection:
    def test_sma_step_matrix(self, k):
        _sync_section_matches_per_replica_loop(lambda z: SMA(z, num_replicas=k), k, p=257, seed=1)

    def test_easgd_step_matrix(self, k):
        _sync_section_matches_per_replica_loop(
            lambda z: EASGD(z, num_replicas=k), k, p=129, seed=2
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda z, k: SMA(z, num_replicas=k),
            lambda z, k: SMA(z, num_replicas=k, config=SMAConfig(alpha=0.0)),
            lambda z, k: EASGD(z, num_replicas=k),
        ],
        ids=["sma", "sma-alpha0", "easgd"],
    )
    def test_raw_gradients_with_learning_rate_and_decay(self, k, make):
        _sync_section_matches_per_replica_loop(
            lambda z: make(z, k), k, p=193, seed=3, weight_decay=1e-2
        )
