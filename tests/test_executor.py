"""Tests for the multi-process learner executor and the sharded input path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchPipeline, ShardedBatchPipeline, ShardedBatchStream, create_dataset
from repro.engine import (
    CrossbowConfig,
    CrossbowTrainer,
    ModelReplica,
    ReplicaBank,
    SharedMatrix,
    SharedReplicaBank,
    process_execution_supported,
)
from repro.errors import ConfigurationError, DataError
from repro.models import create_model
from repro.utils.rng import RandomState

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)


def _dataset(num_train=256, num_test=64):
    return create_dataset("blobs", num_train=num_train, num_test=num_test)


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
            for bank in (shared, plain):
                for j in range(3):
                    bank.attach(ModelReplica(j, model.clone(), gpu_id=0, stream_id=j))
            assert shared.active_matrix().shape == plain.active_matrix().shape
            np.testing.assert_array_equal(shared.active_matrix(), plain.active_matrix())
            # Writing through the bank is visible through the module parameters.
            shared.active_matrix()[1] = 42.0
            assert np.all(shared.owners()[1].model.parameter_vector() == 42.0)
        finally:
            shared.close()

    def test_grow_bumps_generation(self, rng):
        model = create_model("mlp", rng=rng, input_dim=16, num_classes=4, hidden_sizes=(8,))
        bank = SharedReplicaBank(model.num_parameters(), capacity=1)
        try:
            first_generation = bank.generation
            bank.attach(ModelReplica(0, model.clone(), gpu_id=0, stream_id=0))
            bank.attach(ModelReplica(1, model.clone(), gpu_id=0, stream_id=1))  # forces grow
            assert bank.generation > first_generation
            assert len(bank) == 2
        finally:
            bank.close()


# --------------------------------------------------------------------- sharded streaming
class TestShardedPipeline:
    def test_matches_serial_batch_assignment(self):
        """Shard j must stream exactly the batches learner j gets serially."""
        dataset = _dataset()
        k, batch_size, seed = 3, 16, 11
        serial = BatchPipeline(
            dataset, batch_size=batch_size, num_learners=k, rng=RandomState(seed, name="pipe")
        )
        sharded = ShardedBatchPipeline(
            dataset, batch_size=batch_size, num_shards=k, rng=RandomState(seed, name="pipe")
        )
        for epoch in range(2):
            serial_batches = list(serial.epoch_batches(epoch))
            order = sharded.begin_epoch(epoch)
            for stream in sharded.streams:
                stream.start_epoch(epoch, order)
            iterations = sharded.iterations_per_epoch()
            assert iterations == serial.batches_per_epoch // k
            for i in range(iterations):
                for j, stream in enumerate(sharded.streams):
                    expected = serial_batches[i * k + j]
                    batch = stream.next_batch()
                    np.testing.assert_array_equal(batch.images, expected.images)
                    np.testing.assert_array_equal(batch.labels, expected.labels)

    def test_prefetch_double_buffering(self):
        dataset = _dataset()
        pipeline = ShardedBatchPipeline(dataset, batch_size=16, num_shards=2, prefetch_depth=2)
        stream = pipeline.streams[0]
        order = pipeline.begin_epoch(0)
        stream.start_epoch(0, order)
        # start_epoch fills the buffer up to the prefetch depth.
        assert len(stream._buffer) == 2
        first = stream.next_batch()
        assert first.index == 0
        assert stream.prefetch() == 2

    def test_stream_exhaustion(self):
        dataset = _dataset(num_train=64)
        pipeline = ShardedBatchPipeline(dataset, batch_size=16, num_shards=2)
        stream = pipeline.streams[1]
        stream.start_epoch(0, pipeline.begin_epoch(0))
        consumed = 0
        while stream.remaining():
            stream.next_batch()
            consumed += 1
        assert consumed == 2  # 4 global batches, stride 2
        with pytest.raises(DataError):
            stream.next_batch()

    def test_mid_epoch_offset_resumes_correctly(self):
        """A resize re-creates streams mid-epoch; offset skips consumed batches."""
        dataset = _dataset()
        pipeline = ShardedBatchPipeline(dataset, batch_size=16, num_shards=2)
        order = pipeline.begin_epoch(0)
        streams = pipeline.reshard(4)
        for stream in streams:
            stream.start_epoch(0, order, offset=8)
        assert streams[0].next_batch().index == 8
        assert streams[3].next_batch().index == 11

    def test_reshard_preserves_master_stream(self):
        dataset = _dataset()
        a = ShardedBatchPipeline(dataset, batch_size=16, num_shards=2, rng=RandomState(5))
        b = ShardedBatchPipeline(dataset, batch_size=16, num_shards=2, rng=RandomState(5))
        b.reshard(4)
        b.reshard(2)
        np.testing.assert_array_equal(a.begin_epoch(0), b.begin_epoch(0))

    def test_validation(self):
        dataset = _dataset(num_train=64)
        with pytest.raises(DataError):
            ShardedBatchPipeline(dataset, batch_size=128, num_shards=1)
        with pytest.raises(DataError):
            ShardedBatchPipeline(dataset, batch_size=16, num_shards=0)
        with pytest.raises(DataError):
            ShardedBatchStream(dataset, batch_size=16, shard_index=2, num_shards=2)


# --------------------------------------------------------------------- end-to-end equality
@needs_fork
class TestProcessExecution:
    def test_process_matches_serial_bitwise(self):
        """The acceptance criterion: identical central model across modes."""
        results = {}
        for execution in ("serial", "process"):
            trainer = CrossbowTrainer(_config(execution))
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
