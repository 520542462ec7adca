"""The cache-blocked fused step (``repro.optim.step``) against the arithmetic it replaced.

``_FrozenSMA`` / ``_FrozenEASGD`` keep the whole-bank ``step_matrix``
arithmetic of the synchronisers before the step was blocked, pass for pass.
The blocked kernel must reproduce it bit for bit (sign of zero included) on
bank widths around the block boundary, for τ in {1, 2}, α in {0, 1/k}, in
place and through ``out=``, and must allocate nothing while doing so.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.optim import EASGD, EASGDConfig, SMA, SMAConfig
from repro.optim.step import block_columns


class _FrozenSMA:
    """``SMA.step_matrix`` as whole-bank passes with ``(k, P)`` temporaries."""

    def __init__(self, initial, k, alpha, momentum, period):
        self.center = np.array(initial, dtype=np.float32, copy=True)
        self.previous = self.center.copy()
        self.alpha = alpha if alpha is not None else 1.0 / k
        self.momentum = momentum
        self.period = period
        self.iteration = 0

    def step_matrix(self, weights, updates=None, out=None):
        out = weights if out is None else out
        synchronise = (self.iteration + 1) % self.period == 0
        self.iteration += 1
        if synchronise and self.alpha != 0.0:
            corrections = self.alpha * (weights - self.center)
            previous = self.center.copy()
            total = corrections.sum(axis=0)
            momentum_term = self.momentum * (self.center - self.previous)
            self.center = self.center + total + momentum_term
            self.previous = previous
            if updates is not None:
                np.add(corrections, updates, out=corrections)
            np.subtract(weights, corrections, out=out)
            return
        if synchronise:
            previous = self.center.copy()
            self.center = self.center + self.momentum * (self.center - self.previous)
            self.previous = previous
        if updates is not None:
            np.subtract(weights, updates, out=out)
        elif out is not weights:
            np.copyto(out, weights)


class _FrozenEASGD:
    """``EASGD.step_matrix`` as whole-bank passes with ``(k, P)`` temporaries."""

    def __init__(self, initial, k, elasticity, period):
        self.center = np.array(initial, dtype=np.float32, copy=True)
        self.elasticity = elasticity if elasticity is not None else 1.0 / k
        self.period = period
        self.iteration = 0

    def step_matrix(self, weights, updates=None, out=None):
        out = weights if out is None else out
        synchronise = (self.iteration + 1) % self.period == 0
        self.iteration += 1
        if not synchronise:
            if updates is not None:
                np.subtract(weights, updates, out=out)
            elif out is not weights:
                np.copyto(out, weights)
            return
        corrections = self.elasticity * (weights - self.center)
        self.center = self.center + corrections.sum(axis=0)
        if updates is not None:
            np.add(corrections, updates, out=corrections)
        np.subtract(weights, corrections, out=out)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


def _problem(k, p, seed):
    """Centre, bank and four update matrices, with exact and signed zeros mixed in."""
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(p).astype(np.float32)
    weights = center + (0.1 * rng.standard_normal((k, p))).astype(np.float32)
    weights[:, ::7] = center[::7]  # W − z = 0 exactly in these columns
    # z = −0 and W − z the smallest negative subnormal: α (W − z) rounds to
    # −0 for k >= 2, and only a column sum that starts from +0.0 (as
    # sum(axis=0) does) moves EA-SGD's centre to +0.
    center[-1], weights[:, -1] = -0.0, -np.float32(1e-45)
    updates = [(0.01 * rng.standard_normal((k, p))).astype(np.float32) for _ in range(4)]
    updates[0][:, ::5] = -0.0
    updates[2] = None  # one step with no local update: correction only
    return center, weights, updates


def _flip(front, back):
    """The pipelined buffer flip: the stepped back buffer becomes the published one."""
    return back, front


def _run(make_fused, make_frozen, k, p, in_place, seed=3):
    center, weights, updates = _problem(k, p, seed)
    fused, frozen = make_fused(center), make_frozen(center)
    fused_bank, frozen_bank = weights.copy(), weights.copy()
    fused_back, frozen_back = np.empty_like(weights), np.empty_like(weights)
    for step, update in enumerate(updates):
        if in_place:
            fused.step_matrix(fused_bank, update)
            frozen.step_matrix(frozen_bank, update)
        else:
            # Deferred publish: step into the back buffer, then flip.
            front = fused_bank.copy()
            fused.step_matrix(fused_bank, update, out=fused_back)
            frozen.step_matrix(frozen_bank, update, out=frozen_back)
            np.testing.assert_array_equal(_bits(fused_bank), _bits(front))
            fused_bank, fused_back = _flip(fused_bank, fused_back)
            frozen_bank, frozen_back = _flip(frozen_bank, frozen_back)
        message = f"step {step}"
        np.testing.assert_array_equal(_bits(fused_bank), _bits(frozen_bank), err_msg=message)
        np.testing.assert_array_equal(_bits(fused.center), _bits(frozen.center), err_msg=message)


def _widths(k):
    block = block_columns(k)
    return [1, block - 1, block, block + 1, 3 * block + 7]


_WIDTH_NAMES = ("1", "b-1", "b", "b+1", "3b+7")
_GRID = [(k, index) for k in (1, 2, 3, 5) for index in range(len(_WIDTH_NAMES))]
_IDS = [f"k{k}-{_WIDTH_NAMES[index]}" for k, index in _GRID]


@pytest.mark.parametrize("k, width", _GRID, ids=_IDS)
class TestBlockedStepMatchesFrozenArithmetic:
    @pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "out"])
    def test_sma(self, k, width, in_place):
        p = _widths(k)[width]
        for period in (1, 2):
            for alpha in (0.0, None):
                config = SMAConfig(momentum=0.9, alpha=alpha, synchronisation_period=period)
                _run(
                    lambda c: SMA(c, k, config),
                    lambda c: _FrozenSMA(c, k, alpha, 0.9, period),
                    k,
                    p,
                    in_place,
                )

    @pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "out"])
    def test_easgd(self, k, width, in_place):
        p = _widths(k)[width]
        for period in (1, 2):
            for elasticity in (None, 0.3):
                config = EASGDConfig(elasticity=elasticity, communication_period=period)
                _run(
                    lambda c: EASGD(c, k, config),
                    lambda c: _FrozenEASGD(c, k, elasticity, period),
                    k,
                    p,
                    in_place,
                )


class TestBlockedStepContract:
    @pytest.mark.parametrize(
        "make",
        [
            lambda c: SMA(c, 2),
            lambda c: SMA(c, 2, SMAConfig(alpha=0.0)),
            lambda c: SMA(c, 2, SMAConfig(synchronisation_period=2)),
            lambda c: EASGD(c, 2),
        ],
        ids=["sma", "sma-alpha0", "sma-skip", "easgd"],
    )
    def test_one_step_of_the_benchmark_mlp_allocates_under_one_mib(self, make):
        # k = 2 at the wide MLP's 1.84M parameters: the whole-bank arithmetic
        # allocated ~20-40 MB of temporaries per step.
        p = 1_840_000
        rng = np.random.default_rng(0)
        center = rng.standard_normal(p).astype(np.float32)
        weights = np.tile(center, (2, 1))
        updates = (0.01 * rng.standard_normal((2, p))).astype(np.float32)
        sync = make(center)
        tracemalloc.start()
        try:
            sync.step_matrix(weights, updates)
            sync.step_matrix(weights, updates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak / 2**20:.1f} MiB allocated"

    def test_updates_are_left_unchanged(self):
        center, weights, updates = _problem(3, 50, seed=5)
        before = updates[0].copy()
        SMA(center, 3).step_matrix(weights, updates[0])
        np.testing.assert_array_equal(updates[0], before)

    def test_bank_width_must_match_the_centre(self):
        center = np.zeros(4, dtype=np.float32)
        for sync in (SMA(center, 2), EASGD(center, 2)):
            with pytest.raises(ConfigurationError):
                sync.step_matrix(np.zeros((2, 5), dtype=np.float32))


class TestCentreOwnership:
    """``step_matrix`` moves the centre in the synchroniser's own buffers
    (SMA double-buffers ``z`` / ``z_prev``; EA-SGD updates ``z`` in place), so
    every snapshot a caller keeps must be a copy, not a view of them."""

    @pytest.mark.parametrize("synchronisation", ["sma", "easgd"])
    def test_snapshots_taken_before_a_step_keep_their_bytes(self, synchronisation):
        from repro.engine import CrossbowConfig, CrossbowTrainer

        config = CrossbowConfig(
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=1,
            replicas_per_gpu=2,
            batch_size=16,
            max_epochs=1,
            target_accuracy=None,
            synchronisation=synchronisation,
            dataset_overrides={"num_train": 64, "num_test": 32},
            seed=3,
        )
        trainer = CrossbowTrainer(config)
        try:
            trainer.train()
            central = trainer.central_model()
            snapshots = {
                "central_model": central.parameter_vector(copy=False),
                "checkpoint": trainer.publish_checkpoint().parameters,
                "central_model_vector": trainer.central_model_vector(),
            }
            expected = {name: array.copy() for name, array in snapshots.items()}
            center_before = trainer.synchroniser.center.copy()
            weights = trainer.replica_bank.active_matrix()
            updates = np.full_like(weights, 0.01)
            for _ in range(2):  # two steps: the double buffer comes back around
                trainer.synchroniser.step_matrix(weights, updates)
            assert not np.array_equal(trainer.synchroniser.center, center_before)
            for name, array in snapshots.items():
                np.testing.assert_array_equal(_bits(array), _bits(expected[name]), err_msg=name)
        finally:
            trainer.close()
