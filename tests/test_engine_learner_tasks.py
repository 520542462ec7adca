"""Learners, task descriptors and the training-result container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.batching import Batch
from repro.engine import (
    GlobalSyncTask,
    LearningTask,
    Learner,
    LearnerSlot,
    LocalSyncTask,
    TaskKind,
    TrainingMetrics,
    TrainingResult,
)
from repro.engine.metrics import EpochRecord
from repro.engine.tasks import IterationTasks
from repro.models import MLP
from repro.utils.rng import RandomState

rng = RandomState(77, name="learner-tests")


def _learner():
    model = MLP(input_dim=8, num_classes=3, hidden_sizes=(6,), rng=rng)
    return Learner(model, LearnerSlot(learner_id=0, gpu_id=0, stream_id=2))


def _batch(size=16):
    images = rng.normal(size=(size, 1, 1, 8)).astype(np.float32)
    labels = rng.integers(0, 3, size=size)
    return Batch(images=images, labels=labels, index=0, epoch=0)


class TestLearner:
    def test_compute_gradient_returns_flat_vector_and_loss(self):
        learner = _learner()
        gradient, loss = learner.compute_gradient(_batch())
        assert gradient.shape == (learner.model.num_parameters(),)
        assert np.isfinite(gradient).all()
        assert loss > 0

    def test_compute_gradient_does_not_modify_weights(self):
        learner = _learner()
        before = learner.model.parameter_vector()
        learner.compute_gradient(_batch())
        np.testing.assert_allclose(learner.model.parameter_vector(), before)

    def test_gradient_descends_the_loss(self):
        learner = _learner()
        batch = _batch(32)
        gradient, loss_before = learner.compute_gradient(batch)
        learner.model.load_parameter_vector(learner.model.parameter_vector() - 0.1 * gradient)
        _, loss_after = learner.compute_gradient(batch)
        assert loss_after < loss_before

    def test_learner_exposes_gpu_and_stream(self):
        learner = _learner()
        assert learner.slot.gpu_id == 0
        assert learner.slot.stream_id == 2


class TestTaskDescriptors:
    def test_task_kinds_and_durations(self):
        learning = LearningTask(1, 0, 0, 0, 1, 5, 32, start=1.0, end=2.5)
        local = LocalSyncTask(2, 0, 0, 0, 1, start=2.5, end=2.6)
        global_task = GlobalSyncTask(3, 0, 0, start=2.6, end=2.9, payload_bytes=1000)
        assert learning.kind is TaskKind.LEARNING
        assert local.kind is TaskKind.LOCAL_SYNC
        assert global_task.kind is TaskKind.GLOBAL_SYNC
        assert learning.duration == pytest.approx(1.5)
        assert global_task.duration == pytest.approx(0.3)

    def test_iteration_tasks_aggregate_times(self):
        learning = LearningTask(1, 0, 0, 0, 1, 5, 32, start=1.0, end=2.0)
        local = LocalSyncTask(2, 0, 0, 0, 1, start=2.0, end=2.2)
        tasks = IterationTasks(0, (learning,), (local,), (), synchronised=False)
        assert tasks.start_time() == pytest.approx(1.0)
        assert tasks.end_time() == pytest.approx(2.2)
        empty = IterationTasks(1, (), (), (), synchronised=True)
        assert empty.start_time() == 0.0 and empty.end_time() == 0.0


class TestTrainingResult:
    def _result(self, target=0.8):
        metrics = TrainingMetrics()
        for epoch, acc in enumerate([0.5, 0.9, 0.95]):
            metrics.add(
                EpochRecord(
                    epoch=epoch,
                    sim_time=float(epoch + 1),
                    test_accuracy=acc,
                    train_loss=0.5,
                    samples_processed=(epoch + 1) * 128,
                    learning_rate=0.1,
                    replicas=4,
                )
            )
        return TrainingResult(
            system="crossbow",
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=2,
            replicas_per_gpu=2,
            batch_size=16,
            metrics=metrics,
            reached_target=True,
            target_accuracy=target,
            wall_clock_seconds=1.0,
        )

    def test_default_threshold_is_the_target(self):
        result = self._result(target=0.8)
        assert result.time_to_accuracy() == result.metrics.time_to_accuracy(0.8)
        assert result.epochs_to_accuracy() == result.metrics.epochs_to_accuracy(0.8)

    def test_no_target_returns_none(self):
        result = self._result(target=0.8)
        result.target_accuracy = None
        assert result.time_to_accuracy() is None
        assert result.epochs_to_accuracy() is None

    def test_total_replicas_and_summary(self):
        result = self._result()
        assert result.total_replicas == 4
        summary = result.summary()
        assert summary["replicas_per_gpu"] == 2
        assert summary["reached_target"] is True
        assert summary["epochs"] == 3
