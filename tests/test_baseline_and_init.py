"""S-SGD baseline numerics, weight initialisers and trainer configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.batching import Batch
from repro.data.sharding import partition_batch
from repro.engine import CrossbowConfig, CrossbowTrainer
from repro.errors import ConfigurationError
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor, init
from repro.utils.rng import RandomState

rng = RandomState(31, name="baseline-tests")


class TestShardedGradientEquivalence:
    """Averaging per-shard gradients must equal the full aggregate-batch gradient,
    which is the correctness property parallel S-SGD relies on (Eq. 2)."""

    def _gradient(self, model, images, labels):
        model.zero_grad()
        loss = CrossEntropyLoss()(model(Tensor(images)), labels)
        loss.backward()
        return model.gradient_vector()

    def test_sharded_equals_full_batch_gradient(self):
        model = MLP(input_dim=10, num_classes=4, hidden_sizes=(8,), rng=rng)
        images = rng.normal(size=(24, 1, 1, 10)).astype(np.float32)
        labels = rng.integers(0, 4, size=24)
        full = self._gradient(model, images, labels)

        batch = Batch(images=images, labels=labels, index=0, epoch=0)
        shards = partition_batch(batch, 3)
        accumulated = np.zeros_like(full)
        for shard in shards:
            accumulated += self._gradient(model, shard.images, shard.labels) * (
                shard.size / batch.size
            )
        np.testing.assert_allclose(accumulated, full, atol=1e-5)

    def test_uneven_shards_are_weighted_correctly(self):
        model = MLP(input_dim=6, num_classes=3, hidden_sizes=(5,), rng=rng)
        images = rng.normal(size=(10, 1, 1, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=10)
        full = self._gradient(model, images, labels)
        batch = Batch(images=images, labels=labels, index=0, epoch=0)
        shards = partition_batch(batch, 4)  # shard sizes 3, 3, 2, 2
        accumulated = np.zeros_like(full)
        for shard in shards:
            accumulated += self._gradient(model, shard.images, shard.labels) * (
                shard.size / batch.size
            )
        np.testing.assert_allclose(accumulated, full, atol=1e-5)


class TestSSGDTrainerInternals:
    """The S-SGD baseline is ``CrossbowConfig(synchronisation="ssgd")`` on the one loop."""

    def test_learning_rate_schedule_is_applied(self):
        config = CrossbowConfig(
            synchronisation="ssgd",
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=1,
            batch_size=32,
            max_epochs=1,
            learning_rate=0.2,
            dataset_overrides={"num_train": 128, "num_test": 64},
        )
        trainer = CrossbowTrainer(config)
        assert trainer.learning_rate == pytest.approx(0.2)
        assert trainer.schedule.rate(0) == pytest.approx(0.2)

    def test_paper_hyperparameters_used_by_default(self):
        config = CrossbowConfig(
            synchronisation="ssgd",
            model_name="resnet32-scaled",
            dataset_name="cifar10-scaled",
            num_gpus=1,
            batch_size=16,
            max_epochs=1,
            dataset_overrides={"num_train": 64, "num_test": 32},
        )
        trainer = CrossbowTrainer(config)
        assert trainer.learning_rate == pytest.approx(0.1)
        assert trainer.momentum == pytest.approx(0.9)
        assert trainer.weight_decay == pytest.approx(1e-4)

    def test_evaluation_covers_whole_test_set(self):
        config = CrossbowConfig(
            synchronisation="ssgd",
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=1,
            batch_size=16,
            max_epochs=1,
            dataset_overrides={"num_train": 128, "num_test": 96},
        )
        trainer = CrossbowTrainer(config)
        accuracy = trainer.evaluate(batch_size=40)  # uneven final batch
        assert 0.0 <= accuracy <= 1.0


class TestInitializers:
    def test_fans_for_dense_and_conv_shapes(self):
        assert init.compute_fans((8, 4)) == (4, 8)
        assert init.compute_fans((16, 3, 5, 5)) == (3 * 25, 16 * 25)
        assert init.compute_fans((7,)) == (7, 7)
        with pytest.raises(ValueError):
            init.compute_fans(())

    def test_xavier_and_kaiming_scales(self):
        stream = RandomState(3)
        shape = (256, 128)
        xavier = init.xavier_normal(shape, rng=stream)
        kaiming = init.kaiming_normal(shape, rng=stream)
        assert xavier.std() == pytest.approx(np.sqrt(2.0 / (128 + 256)), rel=0.15)
        assert kaiming.std() == pytest.approx(np.sqrt(2.0 / 128), rel=0.15)

    def test_uniform_initialisers_respect_bounds(self):
        stream = RandomState(4)
        shape = (64, 32)
        xavier = init.xavier_uniform(shape, rng=stream)
        kaiming = init.kaiming_uniform(shape, rng=stream)
        assert np.abs(xavier).max() <= np.sqrt(6.0 / (32 + 64)) + 1e-6
        assert np.abs(kaiming).max() <= np.sqrt(6.0 / 32) + 1e-6

    def test_constant_zero_one_initialisers(self):
        assert init.zeros((3, 3)).sum() == 0
        assert init.ones((3, 3)).sum() == 9
        np.testing.assert_allclose(init.constant((2, 2), 0.5), np.full((2, 2), 0.5))
        assert init.normal((1000,), std=0.02, rng=RandomState(1)).std() == pytest.approx(
            0.02, rel=0.2
        )
        assert init.uniform((10,), low=-1, high=1, rng=RandomState(2)).dtype == np.float32

    def test_initialisers_are_deterministic_given_stream(self):
        a = init.kaiming_normal((4, 4), rng=RandomState(9))
        b = init.kaiming_normal((4, 4), rng=RandomState(9))
        np.testing.assert_allclose(a, b)


class TestConfigurationValidation:
    def test_trainer_config_bounds(self):
        with pytest.raises(ConfigurationError):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", num_gpus=0)
        with pytest.raises(ConfigurationError):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", batch_size=0)
        with pytest.raises(ConfigurationError):
            CrossbowConfig(model_name="mlp", dataset_name="blobs", max_epochs=0)

    def test_crossbow_rejects_too_many_learners_for_dataset(self):
        config = CrossbowConfig(
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=4,
            batch_size=32,
            replicas_per_gpu=4,  # 16 learners x 32 > 128 training samples
            max_epochs=1,
            dataset_overrides={"num_train": 128, "num_test": 64},
        )
        with pytest.raises(ConfigurationError, match="learners"):
            CrossbowTrainer(config)
