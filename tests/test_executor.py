"""Tests for the multi-process learner executor and its shared-memory buffers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import AugmentationPipeline, BatchPipeline
from repro.engine import (
    CrossbowConfig,
    CrossbowTrainer,
    ReplicaBank,
    SharedMatrix,
    SharedReplicaBank,
    process_execution_supported,
)
from repro.engine.learner import EpochDraw
from repro.errors import ConfigurationError
from repro.models import create_model
from repro.utils.rng import RandomState

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)


def _config(execution="serial", **overrides):
    defaults = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=2,
        max_epochs=2,
        dataset_overrides={"num_train": 256, "num_test": 64},
        seed=7,
        execution=execution,
    )
    defaults.update(overrides)
    return CrossbowConfig(**defaults)


# --------------------------------------------------------------------- shared memory
class TestSharedMatrix:
    def test_shape_and_zero_init(self):
        matrix = SharedMatrix(3, 5)
        try:
            assert matrix.array.shape == (3, 5)
            assert matrix.array.dtype == np.float32
            assert np.all(matrix.array == 0.0)
        finally:
            matrix.close()

    def test_close_is_idempotent(self):
        matrix = SharedMatrix(2, 2)
        matrix.close()
        matrix.close()

    def test_rejects_negative_dimensions(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            SharedMatrix(-1, 4)


class TestSharedReplicaBank:
    def test_behaves_like_replica_bank(self, rng):
        model = create_model("mlp", rng=rng, input_dim=16, num_classes=4, hidden_sizes=(8,))
        p = model.num_parameters()
        shared = SharedReplicaBank(p, capacity=3)
        plain = ReplicaBank(p, capacity=3)
        try:
            models = [model.clone() for _ in range(3)]
            for owned in models:
                shared.attach(owned)
                plain.attach(owned.clone())
            assert shared.active_matrix().shape == plain.active_matrix().shape
            np.testing.assert_array_equal(shared.active_matrix(), plain.active_matrix())
            # Writing through the bank is visible through the module parameters.
            shared.active_matrix()[1] = 42.0
            assert np.all(models[1].parameter_vector() == 42.0)
        finally:
            shared.close()

    def test_grow_bumps_generation(self, rng):
        model = create_model("mlp", rng=rng, input_dim=16, num_classes=4, hidden_sizes=(8,))
        bank = SharedReplicaBank(model.num_parameters(), capacity=1)
        try:
            first_generation = bank.generation
            bank.attach(model.clone())
            bank.attach(model.clone())  # forces grow
            assert bank.generation > first_generation
            assert len(bank) == 2
        finally:
            bank.close()


# --------------------------------------------------------------------- the one input path
def _augmented_pipeline(dataset, num_learners):
    return BatchPipeline(
        dataset,
        batch_size=7,
        num_learners=num_learners,
        augmentation=AugmentationPipeline.cifar_default(RandomState(2, name="augmentation")),
        rng=RandomState(11, name="pipeline"),
    )


class TestEpochDraw:
    """Both executors draw the trainer's pipeline in its order."""

    def test_matches_serial_batch_assignment(self, tiny_image_dataset):
        """Learner j gets batch i·k + j, and the tail keeps the next epoch aligned."""
        k = 3
        draw = EpochDraw(_augmented_pipeline(tiny_image_dataset, k))
        reference = _augmented_pipeline(tiny_image_dataset, k)
        learners = [None] * k  # the draw only counts its learners
        for epoch in range(2):
            expected = list(reference.epoch_batches(epoch))
            assert len(expected) % k == 1  # 13 batches: a one-batch tail
            draw.begin_epoch(epoch)
            for i in range(len(expected) // k):
                for j, batch in enumerate(draw._take(learners)):
                    np.testing.assert_array_equal(batch.images, expected[i * k + j].images)
                    np.testing.assert_array_equal(batch.labels, expected[i * k + j].labels)
            assert draw.batches_remaining() == 1
            draw.end_epoch()
            assert draw.batches_remaining() == 0

    def test_end_epoch_mid_epoch_drains_the_rest(self, tiny_image_dataset):
        """An epoch cut short still advances the augmentation stream fully."""
        k = 2
        draw = EpochDraw(_augmented_pipeline(tiny_image_dataset, k))
        reference = _augmented_pipeline(tiny_image_dataset, k)
        draw.begin_epoch(0)
        draw._take([None] * k)
        draw.end_epoch()
        list(reference.epoch_batches(0))
        draw.begin_epoch(1)
        for expected, batch in zip(reference.epoch_batches(1), draw._take([None] * k)):
            np.testing.assert_array_equal(batch.images, expected.images)
            np.testing.assert_array_equal(batch.labels, expected.labels)


@needs_fork
class TestSharedInputRows:
    """Forked learners read their batches from the executor's shared rows."""

    @staticmethod
    def _rows(executor, count):
        # Copies: a live view would keep the segment from being unlinked on close.
        images, labels = executor._inputs
        return images[:count].copy(), labels[:count].copy()

    def test_sized_like_the_update_matrices(self):
        trainer = CrossbowTrainer(_config("process"))
        try:
            executor = trainer._executor
            (images_shape, images_dtype), (labels_shape, labels_dtype) = [
                (matrix.shape, matrix.dtype) for matrix in executor._inputs
            ]
            rows = executor._update_matrices[0].shape[0]
            dataset = trainer.dataset
            assert images_shape == (rows, 16, *dataset.train_images.shape[1:])
            assert labels_shape == (rows, 16)
            assert images_dtype == dataset.train_images.dtype
            assert labels_dtype == dataset.train_labels.dtype
        finally:
            trainer.close()

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # 32 images of 3x16x16 float32: 96 KiB, more than a pipe buffer holds.
            dict(
                model_name="resnet32-scaled",
                dataset_name="cifar10-scaled",
                use_augmentation=True,
                batch_size=32,
                dataset_overrides={"num_train": 128, "num_test": 32},
                model_overrides={"width_multiplier": 0.25, "blocks_per_stage": 1},
            ),
        ],
        ids=["mlp", "resnet-augmented"],
    )
    def test_rows_hold_each_learners_batch(self, overrides):
        trainer = CrossbowTrainer(_config("process", **overrides))
        reference = CrossbowTrainer(_config("serial", **overrides))
        try:
            expected = list(reference.pipeline.epoch_batches(0))
            executor = trainer._executor
            k = len(trainer.learners)
            executor.begin_epoch(0)
            for i in range(2):
                executor.issue_step(trainer.learners)
                assert np.isfinite(executor.collect_step()).all()
                images, labels = self._rows(executor, k)
                for j in range(k):
                    np.testing.assert_array_equal(images[j], expected[i * k + j].images)
                    np.testing.assert_array_equal(labels[j], expected[i * k + j].labels)
            executor.end_epoch()
        finally:
            trainer.close()
            reference.close()

    def test_in_place_resize_mid_epoch_continues_the_draw(self):
        """A resize re-points the workers; the surviving rows take the next batches."""
        trainer = CrossbowTrainer(_config("process", replicas_per_gpu=3))
        reference = CrossbowTrainer(_config("serial", replicas_per_gpu=3))
        try:
            expected = list(reference.pipeline.epoch_batches(0))
            executor = trainer._executor
            executor.begin_epoch(0)
            executor.issue_step(trainer.learners)
            executor.collect_step()
            survivors = trainer.learners[:2]
            assert executor.resize(survivors) == "in-place"
            executor.issue_step(survivors)
            assert np.isfinite(executor.collect_step()).all()
            images, labels = self._rows(executor, 2)
            for j in range(2):
                np.testing.assert_array_equal(images[j], expected[3 + j].images)
                np.testing.assert_array_equal(labels[j], expected[3 + j].labels)
            assert executor.batches_remaining() == len(expected) - 5
            executor.end_epoch()
        finally:
            trainer.close()
            reference.close()

    def test_rebinding_reallocates_and_close_releases_them(self):
        from repro.errors import SchedulingError

        trainer = CrossbowTrainer(_config("process"))
        executor = trainer._executor
        bank = trainer.replica_bank
        rows, cols = executor._update_matrices[0].shape
        replacement = SharedMatrix(rows + 1, cols)
        try:
            bound = list(executor._input_segments)
            executor.bind_buffers(bank, (), list(executor._update_matrices))
            assert executor._input_segments == bound  # same buffers: nothing reallocated
            executor.bind_buffers(bank, (), [replacement.array])
            assert all(segment.closed for segment in bound)
            assert executor._inputs[0].shape[0] == rows + 1
            fresh = list(executor._input_segments)
            executor.bind_buffers(bank, (), [trainer._update_matrix])
            assert all(segment.closed for segment in fresh)
            final = list(executor._input_segments)
            trainer.close()
            assert all(segment.closed for segment in final)
            executor.begin_epoch(0)
            with pytest.raises(SchedulingError, match="after close"):
                executor.issue_step(trainer.learners)
        finally:
            trainer.close()
            replacement.close()


# --------------------------------------------------------------------- end-to-end equality
@needs_fork
class TestProcessExecution:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # Augmented batches come from the one pipeline in both modes.
            dict(
                model_name="resnet32-scaled",
                dataset_name="cifar10-scaled",
                use_augmentation=True,
                max_epochs=1,
                seed=3,
                dataset_overrides={"num_train": 96, "num_test": 32},
            ),
        ],
        ids=["mlp", "resnet-augmented"],
    )
    def test_process_matches_serial_bitwise(self, overrides):
        """The acceptance criterion: identical central model across modes."""
        results = {}
        for execution in ("serial", "process"):
            trainer = CrossbowTrainer(_config(execution, **overrides))
            try:
                trainer.train()
                results[execution] = {
                    "center": trainer.central_model_vector(),
                    "weights": trainer.replica_bank.active_matrix().copy(),
                    "accuracy": trainer.evaluate(),
                }
            finally:
                trainer.close()
        np.testing.assert_array_equal(
            results["process"]["center"], results["serial"]["center"]
        )
        np.testing.assert_array_equal(
            results["process"]["weights"], results["serial"]["weights"]
        )
        assert results["process"]["accuracy"] == results["serial"]["accuracy"]

    def test_process_smoke_k2(self):
        """CI smoke: a short k=2 MLP run trains end to end under process mode."""
        trainer = CrossbowTrainer(_config("process", max_epochs=1))
        try:
            result = trainer.train()
            assert len(result.metrics.records) == 1
            assert np.isfinite(result.metrics.records[-1].train_loss)
            assert trainer.evaluate() > 0.5
        finally:
            trainer.close()

    def test_process_with_autotuner_resizes_pool(self):
        trainer = CrossbowTrainer(
            _config(
                "process",
                batch_size=8,
                replicas_per_gpu=1,
                max_replicas_per_gpu=4,
                auto_tune=True,
                auto_tune_interval=4,
                max_epochs=3,
                seed=3,
            )
        )
        try:
            result = trainer.train()
            assert len(result.metrics.records) == 3
            # The throughput model rewards more learners on this tiny model,
            # so the tuner grows beyond the single seed learner.
            assert len(trainer.learners) > 1
            assert len(trainer.replica_bank) == len(trainer.learners)
        finally:
            trainer.close()

    def test_easgd_process_matches_serial(self):
        centers = {}
        for execution in ("serial", "process"):
            trainer = CrossbowTrainer(
                _config(execution, synchronisation="easgd", max_epochs=1)
            )
            try:
                trainer.train()
                centers[execution] = trainer.central_model_vector()
            finally:
                trainer.close()
        np.testing.assert_array_equal(centers["process"], centers["serial"])

    def test_dead_worker_raises_instead_of_hanging(self):
        """A worker that dies without reporting must fail the step, not hang it."""
        from repro.errors import SchedulingError

        trainer = CrossbowTrainer(_config("process", max_epochs=1))
        try:
            trainer.train()
            executor = trainer._executor
            pool = executor._pool
            assert pool is not None and pool.is_alive()
            # Fresh epoch so the surviving worker has batches and reports fine;
            # the killed one simply never answers.
            executor.begin_epoch(1)
            pool._handles[0].process.terminate()
            pool._handles[0].process.join(timeout=10.0)
            with pytest.raises(SchedulingError, match="died without reporting"):
                pool.issue_step()
                pool.collect_step()
        finally:
            trainer.close()

    def test_close_is_idempotent_and_allows_eval(self):
        trainer = CrossbowTrainer(_config("process", max_epochs=1))
        trainer.train()
        trainer.close()
        trainer.close()
        assert 0.0 <= trainer.evaluate() <= 1.0


def test_execution_knob_validated():
    with pytest.raises(ConfigurationError):
        _config(execution="threads")
