"""Engine components: replica pool, task manager, auto-tuner, metrics, memory plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    AutoTuner,
    AutoTunerDecision,
    EpochRecord,
    ModelReplica,
    OperatorSpec,
    ReplicaPool,
    TaskManager,
    TrainingMetrics,
    naive_memory_plan,
    offline_memory_plan,
    online_shared_plan,
    operator_specs_from_forward,
)
from repro.engine.scheduler import IterationTiming
from repro.errors import MemoryPlanError, SchedulingError
from repro.models import MLP, create_model
from repro.utils.rng import RandomState

rng = RandomState(41, name="engine-tests")


def _model():
    return MLP(input_dim=8, num_classes=3, hidden_sizes=(4,), rng=rng)


class TestReplicaPool:
    def test_add_acquire_release_cycle(self):
        pool = ReplicaPool()
        replica = pool.add(_model(), gpu_id=0, stream_id=2)
        assert len(pool) == 1
        acquired = pool.acquire()
        assert acquired is replica
        assert pool.available_count() == 0
        pool.release(acquired)
        assert pool.available_count() == 1

    def test_acquire_respects_gpu_affinity(self):
        pool = ReplicaPool()
        pool.add(_model(), gpu_id=0, stream_id=1)
        on_gpu1 = pool.add(_model(), gpu_id=1, stream_id=1)
        assert pool.acquire(gpu_id=1) is on_gpu1

    def test_acquire_empty_pool_raises(self):
        pool = ReplicaPool()
        with pytest.raises(SchedulingError):
            pool.acquire()

    def test_release_foreign_replica_raises(self):
        pool = ReplicaPool()
        foreign = ModelReplica(99, _model(), 0, 0)
        with pytest.raises(SchedulingError):
            pool.release(foreign)

    def test_double_release_raises(self):
        pool = ReplicaPool()
        replica = pool.add(_model(), 0, 0)
        acquired = pool.acquire()
        pool.release(acquired)
        with pytest.raises(SchedulingError):
            pool.release(replica)

    def test_locked_pool_rejects_mutation(self):
        pool = ReplicaPool()
        pool.add(_model(), 0, 0)
        pool.lock()
        with pytest.raises(SchedulingError):
            pool.acquire()
        with pytest.raises(SchedulingError):
            pool.add(_model(), 0, 1)
        pool.unlock()
        pool.acquire()

    def test_remove_last_on_gpu(self):
        pool = ReplicaPool()
        pool.add(_model(), 0, 0)
        last = pool.add(_model(), 0, 1)
        removed = pool.remove_last_on_gpu(0)
        assert removed.replica_id == last.replica_id
        assert pool.remove_last_on_gpu(3) is None

    def test_replica_vector_round_trip(self):
        replica = ModelReplica(0, _model(), 0, 0)
        vector = replica.vector()
        replica.load_vector(vector * 2.0)
        np.testing.assert_allclose(replica.vector(), vector * 2.0, rtol=1e-6)


class TestTaskManager:
    def _timing(self, iteration, end, samples=64, duration=0.5):
        return IterationTiming(
            iteration=iteration,
            start=end - duration,
            end=end,
            learning_end=end,
            sync_end=end,
            samples=samples,
        )

    def test_throughput_accumulates(self):
        manager = TaskManager(window=4)
        for i in range(5):
            manager.handle_completion(
                self._timing(i, end=(i + 1) * 1.0, samples=100, duration=1.0), 2
            )
        assert manager.cumulative_throughput() == pytest.approx(100.0)
        assert manager.recent_throughput() == pytest.approx(100.0)
        assert manager.total_learning_tasks == 10

    def test_recent_throughput_needs_two_events(self):
        manager = TaskManager()
        assert manager.recent_throughput() == 0.0
        manager.handle_completion(self._timing(0, end=1.0), 1)
        assert manager.recent_throughput() == 0.0

    def test_reset_window(self):
        manager = TaskManager(window=4)
        for i in range(4):
            manager.handle_completion(self._timing(i, end=i + 1.0), 1)
        manager.reset_window()
        assert manager.recent_throughput() == 0.0
        assert len(manager) == 4

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TaskManager(window=0)


class TestAutoTuner:
    def test_grows_while_throughput_improves_then_settles(self):
        tuner = AutoTuner(tolerance=0.05, max_learners=8)
        decisions = [tuner.observe(t) for t in (100.0, 150.0, 200.0, 202.0, 203.0)]
        assert decisions[0] is AutoTunerDecision.ADD_LEARNER
        assert decisions[1] is AutoTunerDecision.ADD_LEARNER
        assert decisions[2] is AutoTunerDecision.ADD_LEARNER
        # The fourth observation shows no gain from the last added learner: back it out.
        assert decisions[3] is AutoTunerDecision.REMOVE_LEARNER
        assert tuner.learners_per_gpu == 3

    def test_shrinks_on_throughput_drop(self):
        tuner = AutoTuner(tolerance=0.05, learners_per_gpu=4)
        tuner.previous_throughput = 200.0
        assert tuner.observe(120.0) is AutoTunerDecision.REMOVE_LEARNER
        assert tuner.learners_per_gpu == 3

    def test_never_exceeds_bounds(self):
        tuner = AutoTuner(tolerance=0.05, max_learners=2)
        for throughput in (10.0, 20.0, 40.0, 80.0, 160.0):
            tuner.observe(throughput)
        assert tuner.learners_per_gpu <= 2
        tuner = AutoTuner(tolerance=0.05, min_learners=1, learners_per_gpu=1)
        tuner.previous_throughput = 100.0
        tuner.observe(10.0)
        assert tuner.learners_per_gpu == 1

    def test_disabled_tuner_keeps_configuration(self):
        tuner = AutoTuner(enabled=False, learners_per_gpu=3)
        assert tuner.observe(500.0) is AutoTunerDecision.KEEP
        assert tuner.learners_per_gpu == 3

    def test_convergence_detection_and_reset(self):
        tuner = AutoTuner(tolerance=0.05, max_learners=1, learners_per_gpu=1)
        for _ in range(3):
            tuner.observe(100.0)
        assert tuner.converged()
        tuner.reset()
        assert not tuner.history


class TestTrainingMetrics:
    def _record(self, epoch, accuracy, sim_time=None):
        return EpochRecord(
            epoch=epoch,
            sim_time=sim_time if sim_time is not None else float(epoch + 1),
            test_accuracy=accuracy,
            train_loss=1.0,
            samples_processed=(epoch + 1) * 100,
            learning_rate=0.1,
            replicas=1,
        )

    def test_median_window_of_five(self):
        metrics = TrainingMetrics()
        for epoch, acc in enumerate([0.1, 0.2, 0.9, 0.2, 0.1, 0.1]):
            metrics.add(self._record(epoch, acc))
        # Median of the last five epochs at the end is 0.2 even though one epoch hit 0.9.
        assert metrics.median_accuracy_at(5) == pytest.approx(0.2)

    def test_time_and_epochs_to_accuracy(self):
        metrics = TrainingMetrics()
        for epoch, acc in enumerate([0.5, 0.7, 0.8, 0.85, 0.9]):
            metrics.add(self._record(epoch, acc))
        # The median of the trailing window reaches 0.8 only at the fifth epoch
        # (window [0.5, 0.7, 0.8, 0.85, 0.9] has median 0.8).
        assert metrics.epochs_to_accuracy(0.8) == 5
        assert metrics.time_to_accuracy(0.8) == pytest.approx(5.0)
        assert metrics.time_to_accuracy(0.99) is None
        assert metrics.epochs_to_accuracy(0.99) is None

    def test_best_final_and_curve(self):
        metrics = TrainingMetrics()
        for epoch, acc in enumerate([0.3, 0.6, 0.5]):
            metrics.add(self._record(epoch, acc))
        assert metrics.best_accuracy() == pytest.approx(0.6)
        assert metrics.final_accuracy() == pytest.approx(0.5)
        assert len(metrics.accuracy_curve()) == 3

    def test_empty_metrics(self):
        metrics = TrainingMetrics()
        assert metrics.best_accuracy() == 0.0
        assert metrics.average_throughput() == 0.0
        assert metrics.time_to_accuracy(0.5) is None


class TestMemoryPlans:
    def _chain(self, sizes):
        return [
            OperatorSpec(f"op{i}", size, (i - 1,) if i > 0 else ())
            for i, size in enumerate(sizes)
        ]

    def test_naive_plan_allocates_everything(self):
        plan = naive_memory_plan(self._chain([10, 20, 30]))
        assert plan.peak_bytes == 60
        assert plan.num_buffers == 3

    def test_offline_plan_reuses_buffers_on_a_chain(self):
        # On a pure chain only two buffers need to be live at any time.
        plan = offline_memory_plan(self._chain([10] * 8))
        assert plan.num_buffers <= 2
        assert plan.peak_bytes <= 20

    def test_offline_plan_halves_footprint_on_real_model(self):
        model = create_model("resnet32-scaled")
        specs = operator_specs_from_forward(model, (3, 16, 16), batch_size=4)
        assert len(specs) > 20
        naive = naive_memory_plan(specs)
        offline = offline_memory_plan(specs)
        # §4.5: the offline plan reduces the memory footprint by up to 50%.
        assert offline.peak_bytes < 0.6 * naive.peak_bytes
        assert offline.reuse_fraction(naive.total_allocated_bytes) > 0.3

    def test_online_shared_plan_saves_versus_replication(self):
        specs = self._chain([100] * 6)
        shared = online_shared_plan(specs, num_learners=4, concurrency=2)
        per_learner = offline_memory_plan(specs)
        assert shared.peak_bytes == 2 * per_learner.peak_bytes
        assert shared.peak_bytes < 4 * per_learner.peak_bytes

    def test_plan_validation(self):
        with pytest.raises(MemoryPlanError):
            OperatorSpec("bad", -1)
        with pytest.raises(MemoryPlanError):
            offline_memory_plan([OperatorSpec("a", 10, (3,))])
        with pytest.raises(MemoryPlanError):
            online_shared_plan(self._chain([1]), num_learners=0)

    def test_forward_wrapper_restores_model(self):
        model = create_model("mlp", input_dim=8, num_classes=3, hidden_sizes=(4,))
        before = model.parameter_vector()
        operator_specs_from_forward(model, (1, 1, 8), batch_size=2)
        np.testing.assert_allclose(model.parameter_vector(), before)
        # A second forward pass still works (wrappers were removed).
        from repro.tensor import Tensor

        out = model(Tensor(np.zeros((2, 1, 1, 8), dtype=np.float32)))
        assert out.shape == (2, 3)

    def test_forward_wrappers_are_removed_when_the_traced_forward_raises(self):
        model = create_model("mlp", input_dim=8, num_classes=3, hidden_sizes=(4,))
        leaves = [module for _, module in model.named_modules() if not module._modules]
        with pytest.raises(ValueError):
            operator_specs_from_forward(model, (1, 1, 5), batch_size=2)  # wrong input width
        for module in leaves:
            assert getattr(module.forward, "__func__", None) is type(module).forward

    def test_resnet_specs_form_a_chain_of_leaf_operators(self):
        model = create_model("resnet32-scaled", width_multiplier=0.25, blocks_per_stage=1)
        specs = operator_specs_from_forward(model, (3, 16, 16), batch_size=2)
        assert len(specs) == 29
        assert specs[0].input_indices == ()
        assert all(spec.input_indices == (i,) for i, spec in enumerate(specs[1:]))
        assert all(spec.output_bytes > 0 for spec in specs)
