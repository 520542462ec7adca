"""SMA (Algorithm 1) and EA-SGD."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.optim import EASGD, EASGDConfig, SMA, SMAConfig
from repro.utils.rng import RandomState


def _quadratic_grad(w, target):
    """Gradient of 0.5 * ||w - target||^2."""
    return w - target


class TestSMAAlgorithm:
    def test_alpha_defaults_to_one_over_k(self):
        sma = SMA(np.zeros(4, dtype=np.float32), num_replicas=5)
        assert sma.alpha == pytest.approx(0.2)

    def test_correction_is_alpha_times_divergence(self):
        sma = SMA(np.zeros(3, dtype=np.float32), num_replicas=2)
        replica = np.array([1.0, -2.0, 4.0], dtype=np.float32)
        np.testing.assert_allclose(sma.correction(replica), 0.5 * replica)

    def test_identical_replicas_keep_center_fixed_without_momentum(self):
        center = np.ones(4, dtype=np.float32)
        sma = SMA(center, num_replicas=3, config=SMAConfig(momentum=0.0))
        corrections = [sma.correction(center) for _ in range(3)]
        new_center = sma.apply_corrections(corrections)
        np.testing.assert_allclose(new_center, center, atol=1e-7)

    def test_center_moves_toward_replica_mean(self):
        sma = SMA(np.zeros(2, dtype=np.float32), num_replicas=2, config=SMAConfig(momentum=0.0))
        replicas = [np.array([2.0, 0.0], dtype=np.float32), np.array([0.0, 2.0], dtype=np.float32)]
        corrections = [sma.correction(r) for r in replicas]
        center = sma.apply_corrections(corrections)
        np.testing.assert_allclose(center, [1.0, 1.0], atol=1e-6)

    def test_momentum_keeps_center_moving_in_persistent_direction(self):
        sma_plain = SMA(np.zeros(1, dtype=np.float32), 1, SMAConfig(momentum=0.0, alpha=1.0))
        sma_momentum = SMA(np.zeros(1, dtype=np.float32), 1, SMAConfig(momentum=0.9, alpha=1.0))
        for sma in (sma_plain, sma_momentum):
            for _ in range(5):
                replica = sma.center + 1.0  # the replica is always one step ahead
                sma.apply_corrections([sma.correction(replica)])
        assert sma_momentum.center[0] > sma_plain.center[0]

    def test_wrong_number_of_corrections_raises(self):
        sma = SMA(np.zeros(2, dtype=np.float32), num_replicas=3)
        with pytest.raises(ConfigurationError):
            sma.apply_corrections([np.zeros(2)])

    def test_step_applies_corrections_to_replicas(self):
        sma = SMA(np.zeros(2, dtype=np.float32), num_replicas=2, config=SMAConfig(momentum=0.0))
        replicas = [np.array([4.0, 0.0], dtype=np.float32), np.array([0.0, 4.0], dtype=np.float32)]
        corrected = sma.step(replicas)
        # Each replica is pulled toward the (old) centre at the origin by α = 0.5.
        np.testing.assert_allclose(corrected[0], [2.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(corrected[1], [0.0, 2.0], atol=1e-6)

    def test_synchronisation_period_skips_iterations(self):
        sma = SMA(np.zeros(1, dtype=np.float32), 2, SMAConfig(synchronisation_period=3))
        synchronised = []
        for _ in range(6):
            synchronised.append(sma.should_synchronise())
            sma.step([np.ones(1, dtype=np.float32)] * 2)
        assert synchronised == [False, False, True, False, False, True]

    def test_restart_resets_momentum_reference(self):
        sma = SMA(np.zeros(2, dtype=np.float32), 1, SMAConfig(momentum=0.9, alpha=1.0))
        sma.apply_corrections([np.ones(2, dtype=np.float32)])
        sma.restart()
        assert sma.restarts == 1
        np.testing.assert_allclose(sma._previous_center, sma.center)

    def test_divergence_metric(self):
        sma = SMA(np.zeros(2, dtype=np.float32), 2)
        replicas = [np.array([3.0, 4.0], dtype=np.float32), np.zeros(2, dtype=np.float32)]
        assert sma.divergence(replicas) == pytest.approx(2.5)

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            SMAConfig(momentum=1.5)
        with pytest.raises(ConfigurationError):
            SMAConfig(alpha=-0.1)
        with pytest.raises(ConfigurationError):
            SMAConfig(alpha=1.5)
        # α = 0 is the valid no-correction mode used by the τ = ∞ ablation.
        assert SMAConfig(alpha=0.0).alpha == 0.0
        with pytest.raises(ConfigurationError):
            SMAConfig(synchronisation_period=0)
        with pytest.raises(ConfigurationError):
            SMA(np.zeros(2), num_replicas=0)

    def test_sma_learners_converge_on_quadratic_problem(self):
        """Replicas descending a quadratic with SMA corrections: the centre reaches
        the optimum and the replicas agree with it (the Figure 5 intuition)."""
        target = np.array([2.0, -1.0, 0.5], dtype=np.float32)
        k = 4
        learning_rate = 0.1
        replicas = [np.zeros(3, dtype=np.float32) for _ in range(k)]
        sma = SMA(np.zeros(3, dtype=np.float32), k, SMAConfig(momentum=0.5))
        stream = RandomState(3, name="quadratic")
        for _ in range(200):
            corrections = []
            for j in range(k):
                noise = stream.normal(scale=0.1, size=3).astype(np.float32)
                gradient = _quadratic_grad(replicas[j], target) + noise
                correction = sma.correction(replicas[j])
                replicas[j] = replicas[j] - learning_rate * gradient - correction
                corrections.append(correction)
            sma.apply_corrections(corrections)
        np.testing.assert_allclose(sma.center, target, atol=0.15)
        assert sma.divergence(replicas) < 0.5

    def test_sma_center_has_lower_variance_than_replicas(self):
        """The averaged model should fluctuate less than individual replicas."""
        target = np.zeros(2, dtype=np.float32)
        k = 8
        replicas = [np.ones(2, dtype=np.float32) for _ in range(k)]
        sma = SMA(np.ones(2, dtype=np.float32), k, SMAConfig(momentum=0.0))
        stream = RandomState(5, name="variance")
        center_history, replica_history = [], []
        for _ in range(300):
            corrections = []
            for j in range(k):
                gradient = _quadratic_grad(replicas[j], target) + stream.normal(
                    scale=0.5, size=2
                ).astype(np.float32)
                correction = sma.correction(replicas[j])
                replicas[j] = replicas[j] - 0.1 * gradient - correction
                corrections.append(correction)
            sma.apply_corrections(corrections)
            center_history.append(sma.center.copy())
            replica_history.append(replicas[0].copy())
        center_var = np.var(np.stack(center_history[100:]), axis=0).mean()
        replica_var = np.var(np.stack(replica_history[100:]), axis=0).mean()
        assert center_var < replica_var


class TestEASGD:
    def test_elasticity_defaults_to_one_over_k(self):
        easgd = EASGD(np.zeros(2, dtype=np.float32), num_replicas=4)
        assert easgd.elasticity == pytest.approx(0.25)

    def test_center_update_has_no_momentum(self):
        center = np.zeros(1, dtype=np.float32)
        easgd = EASGD(center, 1, EASGDConfig(elasticity=1.0))
        easgd.apply_corrections([np.array([1.0], dtype=np.float32)])
        first_move = easgd.center.copy()
        easgd.apply_corrections([np.array([0.0], dtype=np.float32)])
        # Without momentum the second (zero) correction leaves the centre in place.
        np.testing.assert_allclose(easgd.center, first_move)

    def test_communication_period_controls_synchronisation(self):
        easgd = EASGD(np.zeros(1, dtype=np.float32), 2, EASGDConfig(communication_period=2))
        flags = []
        for _ in range(4):
            flags.append(easgd.should_synchronise())
            easgd.step([np.ones(1, dtype=np.float32)] * 2)
        assert flags == [False, True, False, True]

    def test_step_pulls_replicas_toward_center(self):
        easgd = EASGD(np.zeros(2, dtype=np.float32), 2, EASGDConfig(elasticity=0.5))
        replicas = [np.array([4.0, 0.0], dtype=np.float32), np.array([0.0, 4.0], dtype=np.float32)]
        corrected = easgd.step(replicas)
        assert np.linalg.norm(corrected[0]) < np.linalg.norm(replicas[0])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            EASGDConfig(elasticity=2.0)
        with pytest.raises(ConfigurationError):
            EASGDConfig(communication_period=0)
        with pytest.raises(ConfigurationError):
            EASGD(np.zeros(2), num_replicas=0)

    def test_sma_with_momentum_converges_faster_than_easgd_on_quadratic(self):
        """The §5.5 claim in miniature: momentum on the centre accelerates convergence."""
        target = np.full(4, 3.0, dtype=np.float32)
        k = 4

        def run(sync):
            replicas = [np.zeros(4, dtype=np.float32) for _ in range(k)]
            stream = RandomState(11, name="race")
            distances = []
            for _ in range(80):
                corrections = []
                for j in range(k):
                    gradient = _quadratic_grad(replicas[j], target) + stream.normal(
                        scale=0.2, size=4
                    ).astype(np.float32)
                    correction = sync.correction(replicas[j])
                    replicas[j] = replicas[j] - 0.05 * gradient - correction
                    corrections.append(correction)
                sync.apply_corrections(corrections)
                distances.append(float(np.linalg.norm(sync.center - target)))
            return distances

        sma_distances = run(SMA(np.zeros(4, dtype=np.float32), k, SMAConfig(momentum=0.9)))
        easgd_distances = run(EASGD(np.zeros(4, dtype=np.float32), k))
        # Compare the area under the distance curve: smaller = faster convergence.
        assert np.mean(sma_distances) < np.mean(easgd_distances)


@pytest.mark.parametrize("algorithm", [SMA, EASGD], ids=["sma", "easgd"])
def test_centre_fluctuates_less_than_any_replica(algorithm):
    """§3.2: the central model averages out the replicas' gradient noise.

    k = 4 learners descend a quadratic with unit gradient noise; once they
    hover around the optimum, every coordinate of the centre varies less
    over time than the same coordinate of any replica.
    """
    k, size = 4, 256
    sync = algorithm(np.zeros(size, dtype=np.float32), k)
    replicas = [np.zeros(size, dtype=np.float32) for _ in range(k)]
    noise = RandomState(5, name="fluctuation")
    centres, banks = [], []
    for step in range(600):
        corrections = []
        for j in range(k):
            gradient = replicas[j] + noise.normal(size=size).astype(np.float32)
            correction = sync.correction(replicas[j])
            replicas[j] = replicas[j] - 0.05 * gradient - correction
            corrections.append(correction)
        sync.apply_corrections(corrections)
        if step >= 200:
            centres.append(sync.center.copy())
            banks.append(np.stack(replicas))
    centre_variance = np.stack(centres).var(axis=0).mean()
    replica_variances = np.stack(banks).var(axis=0).mean(axis=1)
    assert centre_variance < replica_variances.min()
