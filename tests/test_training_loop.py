"""The trainer's one epoch loop over either executor.

``CrossbowTrainer._train_epoch`` drives the in-process lanes and the worker
pool through the same ``begin_epoch`` / ``issue_step`` / ``collect_step``
surface.  These tests pin what that surface refuses, and that the serial
executor draws every batch of an epoch, the tail that fills no iteration
included, so the augmentation stream of the next epoch is the one a plain
loop over ``BatchPipeline.epoch_batches`` would see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer, process_execution_supported
from repro.errors import SchedulingError
from repro.tensor.backend import KernelBackend

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)


def test_serial_augmented_epochs_match_a_hand_rolled_loop():
    """Two augmented epochs with a tail equal a plain loop over the pipeline's batches."""
    config = CrossbowConfig(
        model_name="resnet32-scaled",
        dataset_name="cifar10-scaled",
        num_gpus=1,
        replicas_per_gpu=3,
        batch_size=4,
        weight_decay=0.0,
        use_augmentation=True,
        max_epochs=2,
        target_accuracy=None,
        evaluate_every_epochs=0,
        dataset_overrides={"num_train": 32, "num_test": 8},
        seed=5,
    )
    trainer = CrossbowTrainer(config)
    reference = CrossbowTrainer(config)
    try:
        k = len(reference.learners)
        assert reference.pipeline.batches_per_epoch % k == 2  # a tail every epoch
        trainer.train()

        backend = KernelBackend()
        updates = np.zeros((k, reference.initial_model.num_parameters()), dtype=np.float32)
        for epoch in range(config.max_epochs):
            rate = reference.schedule.rate(float(epoch))
            batches = list(reference.pipeline.epoch_batches(epoch))
            for start in range(0, len(batches) - k + 1, k):
                for j, learner in enumerate(reference.learners):
                    learner.compute_gradient(batches[start + j], out=updates[j])
                backend.scale_rows(updates, rate)
                reference.synchroniser.step_matrix(reference.replica_bank.active_matrix(), updates)

        np.testing.assert_array_equal(
            trainer.replica_bank.active_matrix(), reference.replica_bank.active_matrix()
        )
        np.testing.assert_array_equal(
            trainer.central_model_vector(), reference.central_model_vector()
        )
    finally:
        trainer.close()
        reference.close()


@pytest.mark.parametrize("execution", ["serial", pytest.param("process", marks=needs_fork)])
def test_issue_step_refuses_steps_without_a_batch_per_learner(execution):
    trainer = CrossbowTrainer(
        CrossbowConfig(
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=1,
            replicas_per_gpu=2,
            batch_size=16,
            max_epochs=1,
            dataset_overrides={"num_train": 48, "num_test": 16},
            seed=7,
            execution=execution,
        )
    )
    executor = trainer._executor
    try:
        with pytest.raises(SchedulingError, match="before begin_epoch"):
            executor.issue_step(trainer.learners)
        executor.begin_epoch(0)
        executor.issue_step(trainer.learners)
        assert np.isfinite(executor.collect_step()).all()
        assert executor.batches_remaining() == 1
        with pytest.raises(SchedulingError, match="1 batches left for 2 learners"):
            executor.issue_step(trainer.learners)
    finally:
        trainer.close()
