"""End-to-end integration tests of both trainers on fast synthetic workloads."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer
from repro.errors import ConfigurationError

BLOBS = {"num_train": 256, "num_test": 128}


def _crossbow_config(**overrides):
    base = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=2,
        batch_size=16,
        replicas_per_gpu=2,
        max_epochs=4,
        target_accuracy=0.9,
        dataset_overrides=BLOBS,
        seed=13,
    )
    base.update(overrides)
    return CrossbowConfig(**base)


def _ssgd_config(**overrides):
    """The S-SGD baseline; ``batch_size`` is per GPU (aggregate = num_gpus x batch_size)."""
    base = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=2,
        batch_size=16,
        max_epochs=4,
        target_accuracy=0.9,
        dataset_overrides=BLOBS,
        synchronisation="ssgd",
        seed=13,
    )
    base.update(overrides)
    return CrossbowConfig(**base)


class TestSSGDTrainer:
    def test_reaches_target_on_separable_data(self):
        result = CrossbowTrainer(_ssgd_config()).train()
        assert result.reached_target
        assert result.metrics.best_accuracy() > 0.9
        assert result.throughput() > 0
        assert result.time_to_accuracy() is not None

    def test_single_gpu_configuration(self):
        result = CrossbowTrainer(_ssgd_config(num_gpus=1, batch_size=16)).train()
        assert result.num_gpus == 1
        assert result.metrics.best_accuracy() > 0.8

    def test_simulated_time_decreases_with_more_gpus_for_scaled_batch(self):
        slow = CrossbowTrainer(
            _ssgd_config(num_gpus=1, batch_size=32, target_accuracy=None, max_epochs=2)
        ).train()
        fast = CrossbowTrainer(
            _ssgd_config(num_gpus=4, batch_size=32, target_accuracy=None, max_epochs=2)
        ).train()
        assert fast.metrics.records[-1].sim_time < slow.metrics.records[-1].sim_time

    def test_result_summary_fields(self):
        result = CrossbowTrainer(_ssgd_config(max_epochs=1, target_accuracy=None)).train()
        summary = result.summary()
        for key in ("system", "model", "gpus", "throughput_img_s", "best_accuracy"):
            assert key in summary
        assert summary["system"] == "tensorflow-ssgd"

    def test_evaluate_every_epochs_zero_runs_no_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(CrossbowTrainer, "evaluate", lambda self: calls.append(1))
        config = _ssgd_config(max_epochs=2, target_accuracy=None, evaluate_every_epochs=0)
        result = CrossbowTrainer(config).train()
        assert calls == []
        assert [record.test_accuracy for record in result.metrics.records] == [0.0, 0.0]


class TestCrossbowTrainer:
    def test_reaches_target_on_separable_data(self):
        result = CrossbowTrainer(_crossbow_config()).train()
        assert result.reached_target
        assert result.metrics.best_accuracy() > 0.9
        assert result.system == "crossbow"
        assert result.total_replicas == 4

    def test_single_learner_single_gpu(self):
        result = CrossbowTrainer(_crossbow_config(num_gpus=1, replicas_per_gpu=1)).train()
        assert result.metrics.best_accuracy() > 0.8

    def test_multiple_learners_increase_throughput(self):
        one = CrossbowTrainer(
            _crossbow_config(num_gpus=1, replicas_per_gpu=1, target_accuracy=None, max_epochs=2)
        ).train()
        four = CrossbowTrainer(
            _crossbow_config(num_gpus=1, replicas_per_gpu=4, target_accuracy=None, max_epochs=2)
        ).train()
        assert four.throughput() > one.throughput()

    def test_central_model_is_evaluated(self):
        trainer = CrossbowTrainer(_crossbow_config(max_epochs=2, target_accuracy=None))
        trainer.train()
        center = trainer.central_model_vector()
        assert center.shape == (trainer.initial_model.num_parameters(),)
        assert np.isfinite(center).all()
        model = trainer.central_model()
        np.testing.assert_allclose(model.parameter_vector(), center, rtol=1e-6)

    def test_easgd_synchronisation_runs(self):
        result = CrossbowTrainer(_crossbow_config(synchronisation="easgd")).train()
        assert result.metrics.best_accuracy() > 0.8

    def test_synchronisation_none_trains_with_alpha_zero(self):
        """``"none"`` is the third accepted value: the SMA container, never correcting."""
        trainer = CrossbowTrainer(
            _crossbow_config(synchronisation="none", target_accuracy=None, max_epochs=2)
        )
        assert trainer.synchroniser.alpha == 0.0
        result = trainer.train()
        assert len(result.metrics) == 2
        # No correction ever reaches the centre, so it is still the initial model.
        np.testing.assert_array_equal(
            trainer.synchroniser.center, trainer.initial_model.parameter_vector()
        )
        with pytest.raises(ConfigurationError, match="'sma', 'easgd' or 'none'"):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", synchronisation="other")

    def test_synchronisation_period_greater_than_one(self):
        result = CrossbowTrainer(
            _crossbow_config(synchronisation_period=3, target_accuracy=None, max_epochs=2)
        ).train()
        assert len(result.metrics) == 2

    def test_auto_tuner_adjusts_replicas(self):
        config = _crossbow_config(
            num_gpus=1,
            replicas_per_gpu=1,
            auto_tune=True,
            auto_tune_interval=4,
            max_replicas_per_gpu=4,
            target_accuracy=None,
            max_epochs=3,
        )
        trainer = CrossbowTrainer(config)
        result = trainer.train()
        assert trainer.replicas_per_gpu() >= 1
        assert len(trainer.learners) == trainer.replicas_per_gpu() * config.num_gpus
        assert result.metrics.best_accuracy() > 0.5

    def test_crossbow_tta_beats_ssgd_on_same_workload(self):
        """The headline claim in miniature: same data, same epochs — Crossbow's
        simulated time-to-accuracy is shorter thanks to higher hardware efficiency."""
        crossbow = CrossbowTrainer(
            _crossbow_config(num_gpus=2, replicas_per_gpu=2, batch_size=16, max_epochs=4)
        ).train()
        ssgd = CrossbowTrainer(_ssgd_config(num_gpus=2, batch_size=16, max_epochs=4)).train()
        assert crossbow.reached_target and ssgd.reached_target
        assert crossbow.time_to_accuracy() < ssgd.time_to_accuracy()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", replicas_per_gpu=0)
        with pytest.raises(ConfigurationError):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", synchronisation="other")
        with pytest.raises(ConfigurationError):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", target_accuracy=2.0)
        # S-SGD is one replica per GPU behind a global barrier (Figure 1).
        for ssgd_only in (
            {"replicas_per_gpu": 2},
            {"auto_tune": True, "max_replicas_per_gpu": 2},
            {"execution": "process", "pipeline_depth": 1},
        ):
            with pytest.raises(ConfigurationError, match="ssgd"):
                CrossbowConfig(
                    model_name="mlp", dataset_name="blobs", synchronisation="ssgd", **ssgd_only
                )

    @pytest.mark.parametrize("synchronisation", ["sma", "ssgd"])
    def test_trainer_is_freed_without_the_cycle_collector(self, synchronisation):
        """No reference cycle: dropping a trainer frees its bank and replicas at once,
        before a server that runs next in the same process starts allocating."""
        config = _crossbow_config(
            replicas_per_gpu=1, max_epochs=1, target_accuracy=None, synchronisation=synchronisation
        )
        gc.disable()
        try:
            trainer = CrossbowTrainer(config)
            trainer.train()
            freed = weakref.ref(trainer)
            del trainer
            assert freed() is None
        finally:
            gc.enable()

    def test_deterministic_given_seed(self):
        a = CrossbowTrainer(_crossbow_config(seed=5, max_epochs=2, target_accuracy=None)).train()
        b = CrossbowTrainer(_crossbow_config(seed=5, max_epochs=2, target_accuracy=None)).train()
        assert a.metrics.records[-1].test_accuracy == b.metrics.records[-1].test_accuracy
        np.testing.assert_allclose(
            a.metrics.records[-1].sim_time, b.metrics.records[-1].sim_time, rtol=1e-9
        )

    def test_cnn_workload_trains_end_to_end(self, tiny_image_dataset):
        """A small convolutional model goes through the full Crossbow stack."""
        config = CrossbowConfig(
            model_name="resnet32-scaled",
            dataset_name="cifar10-scaled",
            num_gpus=1,
            batch_size=16,
            replicas_per_gpu=2,
            max_epochs=2,
            dataset_overrides={"num_train": 128, "num_test": 64},
            model_overrides={"width_multiplier": 0.25, "blocks_per_stage": 1},
            seed=2,
        )
        result = CrossbowTrainer(config).train()
        assert len(result.metrics) == 2
        assert np.isfinite(result.metrics.records[-1].train_loss)
