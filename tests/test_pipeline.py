"""Tests for pipelined synchronisation (depth 0/1) and the persistent worker pool."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.engine import (
    CrossbowConfig,
    CrossbowTrainer,
    SyncCounters,
    process_execution_supported,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.serve import EvaluationService

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)


def _config(**overrides):
    defaults = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=2,
        max_epochs=2,
        dataset_overrides={"num_train": 256, "num_test": 64},
        seed=7,
        execution="process",
    )
    defaults.update(overrides)
    return CrossbowConfig(**defaults)


def _respawn_on_resize(trainer):
    """Make every resize take the automatic respawn fallback.

    The fallback is what a reallocated shared buffer triggers by itself;
    forcing it gives the in-place resize a reference run to be bit-compared
    against.
    """
    executor = trainer._executor

    def resize(learners):
        executor.invalidate()
        return "respawn"

    executor.resize = resize


def _final_state(config, respawn_on_resize=False):
    trainer = CrossbowTrainer(config)
    if respawn_on_resize:
        _respawn_on_resize(trainer)
    try:
        result = trainer.train()
        return {
            "center": trainer.central_model_vector(),
            "weights": trainer.replica_bank.active_matrix().copy(),
            "accuracy": trainer.evaluate(),
            "extra": result.extra,
        }
    finally:
        trainer.close()


# --------------------------------------------------------------------- configuration
def test_pipeline_depth_validated():
    with pytest.raises(ConfigurationError):
        _config(pipeline_depth=2)
    with pytest.raises(ConfigurationError):
        _config(execution="serial", pipeline_depth=1)
    assert _config(pipeline_depth=1).pipeline_depth == 1


def test_sync_counters_accounting():
    counters = SyncCounters()
    counters.record(0.25, overlapped=False, staleness=0)
    counters.record(0.75, overlapped=True, staleness=1)
    assert counters.iterations == 2
    assert counters.stale_iterations == 1
    assert counters.max_staleness == 1
    assert counters.overlap_fraction == pytest.approx(0.75)
    flat = counters.as_dict()
    assert flat["sync_stall_seconds"] == pytest.approx(0.25)
    assert flat["overlapped_sync_seconds"] == pytest.approx(0.75)


# --------------------------------------------------------------------- depth-0 identity
@needs_fork
class TestDepthZeroIdentity:
    def test_depth0_bit_identical_to_serial(self):
        """pipeline_depth=0 must keep the PR-2 guarantee: identical to serial."""
        serial = _final_state(_config(execution="serial"))
        depth0 = _final_state(_config(pipeline_depth=0))
        np.testing.assert_array_equal(depth0["center"], serial["center"])
        np.testing.assert_array_equal(depth0["weights"], serial["weights"])
        assert depth0["accuracy"] == serial["accuracy"]
        # Synchronous schedule: every step_matrix ran with workers idle.
        assert depth0["extra"]["max_staleness"] == 0
        assert depth0["extra"]["overlapped_sync_seconds"] == 0.0

    def test_depth0_identical_with_and_without_persistent_pool(self):
        persistent = _final_state(_config(pipeline_depth=0))
        respawned = _final_state(_config(pipeline_depth=0), respawn_on_resize=True)
        np.testing.assert_array_equal(persistent["center"], respawned["center"])
        np.testing.assert_array_equal(persistent["weights"], respawned["weights"])


# --------------------------------------------------------------------- depth-1 semantics
@needs_fork
class TestPipelinedExecution:
    def test_depth1_trains_and_bounds_staleness(self):
        state = _final_state(_config(pipeline_depth=1))
        assert np.isfinite(state["center"]).all()
        assert state["accuracy"] > 0.5
        extra = state["extra"]
        # Exactly one fresh iteration per epoch (the pipeline fill); everything
        # else ran on weights exactly one update stale — the explicit bound.
        assert extra["max_staleness"] == 1
        assert extra["stale_iterations"] == extra["sync_iterations"] - 2  # 2 epochs
        assert extra["overlapped_sync_seconds"] > 0.0

    def test_depth1_matches_stale_gradient_reference(self):
        """Depth 1 must equal a hand-rolled one-iteration-stale SMA schedule.

        The reference drives the *serial* trainer's own components: gradients
        for iteration ``t`` are computed on the weights as of iteration
        ``t-1`` (``t=0`` runs fresh — the pipeline fill), the fused update is
        applied to the weights of iteration ``t``, and every epoch drains.
        Bit-equality here pins the publish/flip protocol's exact semantics:
        same batch assignment, same decay association, same flip points.
        """
        epochs = 2
        config = _config(pipeline_depth=1, max_epochs=epochs, weight_decay=1e-3)
        pipelined = _final_state(config)

        ref = CrossbowTrainer(
            _config(execution="serial", max_epochs=epochs, weight_decay=1e-3)
        )
        k = len(ref.learners)
        bank = ref.replica_bank.active_matrix()
        lr = ref.schedule.rate(0.0)
        decay = ref.weight_decay
        updates = np.zeros_like(bank)
        for epoch in range(epochs):
            batches = list(ref.pipeline.epoch_batches(epoch))
            iterations = len(batches) // k
            # history[j] = weights after j applied updates (this epoch)
            history = [bank.copy()]
            for t in range(iterations):
                stale = history[max(t - 1, 0)]
                bank[...] = stale
                for j in range(k):
                    ref.learners[j].compute_gradient(
                        batches[t * k + j], out=updates[j]
                    )
                np.multiply(updates, lr, out=updates)
                if decay:
                    updates += lr * decay * history[t]
                new = history[t].copy()
                ref.synchroniser.step_matrix(new, updates)
                history.append(new)
            bank[...] = history[-1]

        np.testing.assert_array_equal(pipelined["weights"], bank)
        np.testing.assert_array_equal(
            pipelined["center"], np.asarray(ref.synchroniser.center)
        )

    def test_depth1_flush_on_midtraining_checkpoint(self):
        """central_model() mid-epoch must apply the in-flight update first."""
        trainer = CrossbowTrainer(_config(pipeline_depth=1, max_epochs=1))
        try:
            executor = trainer._executor
            trainer._apply_schedule(0)
            executor.begin_epoch(0)
            # Run two pipelined iterations by hand; the second leaves a
            # pending update and a flipped publish buffer.
            for _ in range(2):
                staleness = 1 if trainer._pending is not None else 0
                update_index = trainer._next_update_index
                executor.issue_step(
                    trainer.learners, trainer._published_index, update_index
                )
                trainer._next_update_index = 1 - update_index
                if trainer._pending is not None:
                    trainer._apply_pending(overlapped=True)
                losses = executor.collect_step()
                from repro.engine.crossbow import _PendingIteration

                trainer._pending = _PendingIteration(
                    losses=losses,
                    slots=[learner.slot for learner in trainer.learners],
                    update_index=update_index,
                    staleness=staleness,
                )
            assert trainer._pending is not None
            version_before = trainer.synchroniser.version
            model = trainer.central_model()
            assert trainer._pending is None  # flushed
            assert trainer._published_index == 0  # bank republished
            assert trainer.synchroniser.version == version_before + 1
            np.testing.assert_array_equal(
                model.parameter_vector(), np.asarray(trainer.synchroniser.center)
            )
        finally:
            trainer.close()

    def test_depth1_dead_worker_during_inflight_flip(self):
        """A worker dying mid-flip must raise, not hang, and close() must work."""
        trainer = CrossbowTrainer(_config(pipeline_depth=1, max_epochs=1))
        try:
            trainer._apply_schedule(0)
            executor = trainer._executor
            executor.begin_epoch(0)
            executor.issue_step(trainer.learners, 0, 0)
            pending_losses = executor.collect_step()
            assert np.isfinite(pending_losses).all()
            # Freeze worker 0 before the second step is issued, then kill it:
            # a running worker could post its loss before the signal lands,
            # and collect_step would succeed.  The kill happens while the
            # parent would be applying the first iteration's update into the
            # back buffer.
            victim = executor._pool._handles[0].process
            os.kill(victim.pid, signal.SIGSTOP)
            executor.issue_step(trainer.learners, 0, 1)
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            with pytest.raises(SchedulingError, match="died without reporting"):
                executor.collect_step()
        finally:
            trainer.close()


# --------------------------------------------------------------------- persistent pool
@needs_fork
class TestPersistentPool:
    def _autotune_config(self, **overrides):
        defaults = dict(
            batch_size=8,
            replicas_per_gpu=1,
            max_replicas_per_gpu=4,
            auto_tune=True,
            auto_tune_interval=4,
            max_epochs=3,
            seed=3,
        )
        defaults.update(overrides)
        return _config(**defaults)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # Augmentation lives in the parent's pipeline, so it stays in place.
            dict(
                model_name="resnet32-scaled",
                dataset_name="cifar10-scaled",
                use_augmentation=True,
                batch_size=16,
                max_replicas_per_gpu=2,
                auto_tune_interval=2,
                max_epochs=2,
                seed=11,
                dataset_overrides={"num_train": 128, "num_test": 32},
                model_overrides={"width_multiplier": 0.25, "blocks_per_stage": 1},
            ),
        ],
        ids=["mlp", "resnet-augmented"],
    )
    def test_persistent_resize_matches_respawn_bitwise(self, overrides):
        """In-place re-sharding must be numerically invisible."""
        persistent = _final_state(self._autotune_config(**overrides))
        respawned = _final_state(self._autotune_config(**overrides), respawn_on_resize=True)
        np.testing.assert_array_equal(persistent["center"], respawned["center"])
        np.testing.assert_array_equal(persistent["weights"], respawned["weights"])
        assert persistent["accuracy"] == respawned["accuracy"]
        # The persistent run really took the in-place path.
        assert persistent["extra"]["pool_resizes_in_place"] > 0
        assert persistent["extra"]["pool_respawns"] == 1
        assert respawned["extra"]["pool_resizes_in_place"] == 0
        assert respawned["extra"]["pool_respawns"] > 1

    def test_persistent_resize_keeps_pool_object(self):
        # Headroom above what the tuner reaches, so the manual grow below
        # stays within the pre-allocated bank (no generation bump).
        trainer = CrossbowTrainer(self._autotune_config(max_replicas_per_gpu=8))
        try:
            trainer.train()
            executor = trainer._executor
            pool_before = executor._pool
            assert pool_before is not None and pool_before.is_alive()
            # Mid-training style resize: fake an epoch in progress.
            executor.begin_epoch(trainer.config.max_epochs)
            trainer._grow_learners()
            assert executor._pool is pool_before
            assert pool_before.num_workers == len(trainer.learners)
            executor.issue_step(trainer.learners)
            losses = executor.collect_step()
            assert losses.shape == (len(trainer.learners),)
            assert np.isfinite(losses).all()
        finally:
            trainer.close()

    def test_persistent_resize_preserves_bn_buffer_sync_back(self):
        """Batch-norm running stats must survive an in-place resize.

        The persistent path deliberately skips the pre-respawn buffer
        round-trip (worker-private BN state survives in the worker), so the
        central model after a resize must still see the accumulated
        statistics — asserted by bit-comparing against the respawn path,
        which does sync buffers through the parent.
        """
        results = {}
        for persistent in (True, False):
            trainer = CrossbowTrainer(
                CrossbowConfig(
                    model_name="resnet32-scaled",
                    dataset_name="cifar10-scaled",
                    num_gpus=1,
                    batch_size=16,
                    replicas_per_gpu=1,
                    max_replicas_per_gpu=2,
                    auto_tune=True,
                    auto_tune_interval=2,
                    max_epochs=2,
                    seed=11,
                    execution="process",
                    dataset_overrides={"num_train": 128, "num_test": 32},
                    model_overrides={"width_multiplier": 0.25, "blocks_per_stage": 1},
                )
            )
            if not persistent:
                _respawn_on_resize(trainer)
            try:
                trainer.train()
                model = trainer.central_model()
                buffers = {name: value.copy() for name, value in model.named_buffers()}
                assert buffers, "resnet central model must expose BN buffers"
                results[persistent] = (buffers, trainer.evaluate())
            finally:
                trainer.close()
        buffers_a, accuracy_a = results[True]
        buffers_b, accuracy_b = results[False]
        assert accuracy_a == accuracy_b
        for name in buffers_a:
            np.testing.assert_array_equal(buffers_a[name], buffers_b[name])
        # The BN statistics actually moved during training.
        assert any(
            not np.allclose(value, 0.0) and not np.allclose(value, 1.0)
            for value in buffers_a.values()
        )

    def test_resize_drains_pending_offpath_evaluation(self):
        """Bugfix: a resize must drain queued off-path evaluations first."""
        trainer = CrossbowTrainer(_config(max_epochs=1))
        service = trainer.attach_evaluation_service(EvaluationService(execution="serial"))
        try:
            trainer.train()
            # Queue an evaluation but do not drain it (no target accuracy and
            # serial service = deferred queue).
            checkpoint = trainer.publish_checkpoint(epoch=99)
            service.submit(checkpoint, epoch=99)
            assert service.pending() == 1
            executor = trainer._executor
            executor.begin_epoch(1)
            trainer._grow_learners()
            assert service.pending() == 0, "resize must drain the evaluation service"
            assert service.accuracy_for_epoch(99) is not None
        finally:
            trainer.close()
            service.close()
