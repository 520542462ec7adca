"""Data substrate: synthetic datasets, batching pipeline, sharding, augmentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    DATASET_REGISTRY,
    AugmentationPipeline,
    BatchPipeline,
    CircularBatchBuffer,
    DataPreProcessor,
    create_dataset,
    partition_batch,
    random_crop,
    random_horizontal_flip,
)
from repro.data.batching import Batch
from repro.errors import DataError
from repro.utils.rng import RandomState


class TestDatasets:
    def test_registered_datasets_cover_paper_benchmarks(self):
        names = DATASET_REGISTRY.names()
        for expected in ("mnist", "cifar10", "cifar100", "imagenet", "blobs"):
            assert expected in names

    def test_shapes_match_real_datasets(self):
        mnist = create_dataset("mnist", num_train=32, num_test=16)
        assert mnist.sample_shape == (1, 28, 28)
        cifar = create_dataset("cifar10", num_train=32, num_test=16)
        assert cifar.sample_shape == (3, 32, 32)
        assert cifar.num_classes == 10
        cifar100 = create_dataset("cifar100", num_train=32, num_test=16)
        assert cifar100.num_classes == 100

    def test_labels_cover_multiple_classes(self):
        dataset = create_dataset("cifar10-scaled", num_train=256, num_test=64)
        assert len(np.unique(dataset.train_labels)) >= 8

    def test_generation_is_deterministic_per_seed(self):
        a = create_dataset("cifar10-scaled", num_train=64, num_test=32, seed=9)
        b = create_dataset("cifar10-scaled", num_train=64, num_test=32, seed=9)
        np.testing.assert_allclose(a.train_images, b.train_images)
        c = create_dataset("cifar10-scaled", num_train=64, num_test=32, seed=10)
        assert not np.allclose(a.train_images, c.train_images)

    def test_classes_are_separable_but_noisy(self):
        dataset = create_dataset("cifar10-scaled", num_train=512, num_test=128)
        # Nearest-prototype classification on the raw pixels should beat chance
        # by a wide margin but stay below perfect: the noise matters.
        prototypes = np.stack(
            [
                dataset.train_images[dataset.train_labels == c].mean(axis=0)
                for c in range(dataset.num_classes)
            ]
        )
        flat_test = dataset.test_images.reshape(len(dataset.test_labels), -1)
        flat_proto = prototypes.reshape(dataset.num_classes, -1)
        distances = ((flat_test[:, None, :] - flat_proto[None, :, :]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        acc = (predictions == dataset.test_labels).mean()
        assert acc > 0.3

    def test_subset_view(self):
        dataset = create_dataset("blobs", num_train=128, num_test=64)
        small = dataset.subset(32, 16)
        assert small.num_train == 32 and small.num_test == 16

    def test_input_size_mb_positive(self):
        dataset = create_dataset("mnist", num_train=64, num_test=16)
        assert dataset.input_size_mb() > 0

    def test_mismatched_lengths_raise(self):
        from repro.data.datasets import Dataset

        with pytest.raises(DataError):
            Dataset(
                name="bad",
                train_images=np.zeros((4, 1, 2, 2)),
                train_labels=np.zeros(3, dtype=np.int64),
                test_images=np.zeros((2, 1, 2, 2)),
                test_labels=np.zeros(2, dtype=np.int64),
                num_classes=2,
            )


class TestCircularBuffer:
    def _batch(self, index=0):
        return Batch(
            images=np.zeros((2, 1, 2, 2), dtype=np.float32),
            labels=np.zeros(2),
            index=index,
            epoch=0,
        )

    def test_put_get_release_cycle(self):
        buffer = CircularBatchBuffer(2)
        slot = buffer.put(self._batch(0))
        assert buffer.get(slot).index == 0
        assert buffer.occupancy() == 1
        buffer.release(slot)
        assert buffer.occupancy() == 0

    def test_full_buffer_rejects_put(self):
        buffer = CircularBatchBuffer(1)
        buffer.put(self._batch(0))
        with pytest.raises(DataError):
            buffer.put(self._batch(1))

    def test_release_empty_slot_raises(self):
        buffer = CircularBatchBuffer(1)
        with pytest.raises(DataError):
            buffer.release(0)

    def test_slots_are_reused_in_round_robin(self):
        buffer = CircularBatchBuffer(3)
        slots = []
        for i in range(6):
            slot = buffer.put(self._batch(i))
            slots.append(slot)
            buffer.release(slot)
        assert set(slots) == {0, 1, 2}

    def test_zero_slots_rejected(self):
        with pytest.raises(DataError):
            CircularBatchBuffer(0)


class TestPreProcessorAndPipeline:
    def test_epoch_covers_dataset_once(self, blobs_dataset):
        pre = DataPreProcessor(blobs_dataset, batch_size=32, rng=RandomState(0))
        batches = list(pre.epoch_batches(0))
        assert len(batches) == blobs_dataset.num_train // 32
        assert sum(b.size for b in batches) == pre.batches_per_epoch * 32

    def test_batches_are_shuffled_between_epochs(self, blobs_dataset):
        pre = DataPreProcessor(blobs_dataset, batch_size=16, rng=RandomState(0))
        first = np.concatenate([b.labels for b in pre.epoch_batches(0)])
        second = np.concatenate([b.labels for b in pre.epoch_batches(1)])
        assert not np.array_equal(first, second)

    def test_per_batch_gather_matches_a_whole_set_permutation(self, tiny_image_dataset):
        """Gathering each batch's rows equals permuting the whole set, then slicing."""
        dataset = tiny_image_dataset
        pre = DataPreProcessor(
            dataset,
            batch_size=10,
            augmentation=AugmentationPipeline.cifar_default(RandomState(3)),
            rng=RandomState(4),
        )
        shuffle, augment = RandomState(4), AugmentationPipeline.cifar_default(RandomState(3))
        for epoch in range(3):
            order = shuffle.permutation(dataset.num_train)
            images, labels = dataset.train_images[order], dataset.train_labels[order]
            batches = list(pre.epoch_batches(epoch))
            assert len(batches) == dataset.num_train // 10
            for index, batch in enumerate(batches):
                rows = slice(index * 10, (index + 1) * 10)
                np.testing.assert_array_equal(batch.images, augment(images[rows]))
                np.testing.assert_array_equal(batch.labels, labels[rows])

    def test_batch_size_larger_than_dataset_raises(self, blobs_dataset):
        with pytest.raises(DataError):
            DataPreProcessor(blobs_dataset, batch_size=blobs_dataset.num_train + 1)

    def test_pipeline_slot_invariant(self, blobs_dataset):
        pipeline = BatchPipeline(blobs_dataset, batch_size=16, num_learners=4)
        assert pipeline.buffer.num_slots >= 4
        with pytest.raises(DataError):
            BatchPipeline(blobs_dataset, batch_size=16, num_learners=4, min_slots=2)

    def test_pipeline_epoch_iteration_and_test_batches(self, blobs_dataset):
        pipeline = BatchPipeline(blobs_dataset, batch_size=32, num_learners=2)
        train_batches = list(pipeline.epoch_batches(0))
        assert len(train_batches) == pipeline.batches_per_epoch
        test_total = sum(b.size for b in pipeline.test_batches())
        assert test_total == blobs_dataset.num_test

    def test_pipeline_releases_slots_after_iteration(self, blobs_dataset):
        pipeline = BatchPipeline(blobs_dataset, batch_size=16, num_learners=2)
        for _ in pipeline.epoch_batches(0):
            assert pipeline.buffer.occupancy() <= pipeline.buffer.num_slots
        assert pipeline.buffer.occupancy() == 0


class TestSharding:
    def test_partition_covers_all_samples(self):
        batch = Batch(
            images=np.arange(40, dtype=np.float32).reshape(10, 1, 2, 2),
            labels=np.arange(10),
            index=0,
            epoch=0,
        )
        shards = partition_batch(batch, 4)
        assert sum(s.size for s in shards) == 10
        assert max(s.size for s in shards) - min(s.size for s in shards) <= 1
        recombined = np.concatenate([s.labels for s in shards])
        np.testing.assert_array_equal(np.sort(recombined), np.arange(10))

    def test_partition_too_small_batch_raises(self):
        batch = Batch(
            images=np.zeros((2, 1, 1, 1), dtype=np.float32), labels=np.zeros(2), index=0, epoch=0
        )
        with pytest.raises(DataError):
            partition_batch(batch, 3)


class TestAugmentation:
    def test_flip_preserves_pixel_multiset(self, rng):
        images = rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        flipped = random_horizontal_flip(images, RandomState(1), probability=1.0)
        np.testing.assert_allclose(flipped, images[:, :, :, ::-1])

    def test_crop_preserves_shape(self, rng):
        images = rng.normal(size=(8, 3, 12, 12)).astype(np.float32)
        out = random_crop(images, RandomState(2), padding=2)
        assert out.shape == images.shape

    def test_pipeline_composition_and_identity(self, rng):
        images = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        identity = AugmentationPipeline.identity()
        np.testing.assert_allclose(identity(images), images)
        cifar = AugmentationPipeline.cifar_default(RandomState(3))
        assert cifar(images).shape == images.shape
        assert len(cifar) == 2
