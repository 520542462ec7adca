"""Scheduling invariants: overlap, dependencies, policies and the S-SGD iteration."""

from __future__ import annotations

import pytest

from repro.engine import LearnerSlot, SchedulingPolicy, TaskScheduler
from repro.errors import SchedulingError
from repro.gpusim import cost_profile_for_model, titan_x_server


def _build(num_gpus=2, replicas_per_gpu=2, model="resnet32", policy=SchedulingPolicy.FCFS_OVERLAP):
    server = titan_x_server(num_gpus)
    scheduler = TaskScheduler(
        server=server,
        profile=cost_profile_for_model(model),
        policy=policy,
        keep_task_records=True,
    )
    slots = [
        scheduler.add_learner(gpu.gpu_id) for gpu in server.gpus for _ in range(replicas_per_gpu)
    ]
    return server, scheduler, slots


class TestIterationScheduling:
    def test_iteration_timing_is_consistent(self):
        _, scheduler, replicas = _build()
        timing = scheduler.schedule_iteration(0, replicas, batch_size=32)
        assert timing.start >= 0.0
        assert timing.learning_end <= timing.end
        assert timing.samples == 32 * len(replicas)

    def test_empty_replica_list_rejected(self):
        _, scheduler, _ = _build()
        with pytest.raises(SchedulingError):
            scheduler.schedule_iteration(0, [], batch_size=32)

    def test_unknown_stream_rejected(self):
        _, scheduler, _ = _build()
        bogus = LearnerSlot(99, 0, 77)
        with pytest.raises(SchedulingError):
            scheduler.schedule_iteration(0, [bogus], batch_size=8)

    def test_tasks_on_one_stream_never_overlap(self):
        server, scheduler, replicas = _build(num_gpus=2, replicas_per_gpu=2)
        for iteration in range(5):
            scheduler.schedule_iteration(iteration, replicas, batch_size=16)
        for gpu in server.gpus:
            for stream in gpu.streams.values():
                records = sorted(stream.records, key=lambda r: r.start)
                for earlier, later in zip(records, records[1:]):
                    assert later.start >= earlier.end - 1e-12

    def test_local_sync_waits_for_learning_task(self):
        _, scheduler, replicas = _build()
        scheduler.schedule_iteration(0, replicas, batch_size=16)
        tasks = scheduler.iteration_history[0]
        learning_by_replica = {t.replica_id: t for t in tasks.learning}
        for local in tasks.local_sync:
            assert local.start >= learning_by_replica[local.replica_id].end - 1e-12

    def test_global_sync_waits_for_all_local_syncs(self):
        _, scheduler, replicas = _build()
        scheduler.schedule_iteration(0, replicas, batch_size=16)
        tasks = scheduler.iteration_history[0]
        latest_local = max(t.end for t in tasks.local_sync)
        for global_task in tasks.global_sync:
            assert global_task.start >= latest_local - 1e-12

    def test_overlap_learning_of_next_iteration_with_previous_sync(self):
        """The §4.2 claim: with FCFS/overlap, iteration N+1 learning tasks start
        before iteration N's global synchronisation has finished."""
        _, scheduler, replicas = _build(num_gpus=4, replicas_per_gpu=2, model="resnet50")
        scheduler.schedule_iteration(0, replicas, batch_size=16)
        scheduler.schedule_iteration(1, replicas, batch_size=16)
        first, second = scheduler.iteration_history
        sync_end = max(t.end for t in first.global_sync)
        earliest_next_learning = min(t.start for t in second.learning)
        assert earliest_next_learning < sync_end

    def test_lockstep_policy_serialises_iterations(self):
        _, scheduler, replicas = _build(policy=SchedulingPolicy.LOCKSTEP)
        scheduler.schedule_iteration(0, replicas, batch_size=16)
        scheduler.schedule_iteration(1, replicas, batch_size=16)
        first, second = scheduler.iteration_history
        assert min(t.start for t in second.learning) >= first.end_time() - 1e-9

    def test_fcfs_overlap_is_faster_than_lockstep(self):
        iterations = 10
        makespans = {}
        for policy in (SchedulingPolicy.FCFS_OVERLAP, SchedulingPolicy.LOCKSTEP):
            server, scheduler, replicas = _build(num_gpus=4, replicas_per_gpu=2, policy=policy)
            for i in range(iterations):
                scheduler.schedule_iteration(i, replicas, batch_size=32)
            makespans[policy] = server.now()
        assert makespans[SchedulingPolicy.FCFS_OVERLAP] < makespans[SchedulingPolicy.LOCKSTEP]

    def test_skipping_synchronisation_produces_no_global_tasks(self):
        _, scheduler, replicas = _build()
        scheduler.schedule_iteration(0, replicas, batch_size=16, synchronise=False)
        assert scheduler.iteration_history[0].global_sync == ()

    def test_barrier_delays_subsequent_work(self):
        server, scheduler, replicas = _build()
        scheduler.schedule_iteration(0, replicas, batch_size=16)
        barrier_time = scheduler.barrier()
        timing = scheduler.schedule_iteration(1, replicas, batch_size=16)
        assert timing.start >= barrier_time - 1e-12

    def test_more_gpus_increase_throughput(self):
        def throughput(num_gpus):
            server, scheduler, replicas = _build(num_gpus=num_gpus, replicas_per_gpu=1)
            samples = 0
            for i in range(10):
                timing = scheduler.schedule_iteration(i, replicas, batch_size=64)
                samples += timing.samples
            return samples / server.now()

        assert throughput(4) > 2.5 * throughput(1)

    def test_multiple_learners_per_gpu_increase_throughput_for_small_batches(self):
        def throughput(replicas_per_gpu):
            server, scheduler, replicas = _build(num_gpus=1, replicas_per_gpu=replicas_per_gpu)
            samples = 0
            for i in range(10):
                timing = scheduler.schedule_iteration(i, replicas, batch_size=16)
                samples += timing.samples
            return samples / server.now()

        assert throughput(4) > 1.5 * throughput(1)


class TestLearnerSlots:
    def test_remove_learner_retires_its_stream_for_the_next_add(self):
        server, scheduler, slots = _build(num_gpus=2, replicas_per_gpu=2)
        removed = slots[1]  # the second learner on GPU 0
        scheduler.remove_learner(removed)
        assert server.gpu(0).streams[removed.stream_id].kind == "retired"
        assert len(server.gpu(0).learner_streams()) == 1
        added = scheduler.add_learner(0)
        assert added.stream_id == removed.stream_id
        assert server.gpu(0).streams[added.stream_id].kind == "learner"
        assert len(server.gpu(0).streams) == len(server.gpu(1).streams)

    def test_learner_ids_are_never_reused(self):
        _, scheduler, slots = _build(num_gpus=1, replicas_per_gpu=2)
        scheduler.remove_learner(slots[1])
        assert scheduler.registered_learner_ids() == [0]
        added = scheduler.add_learner(0)
        assert added.learner_id == 2
        assert scheduler.registered_learner_ids() == [0, 2]
        scheduler.barrier()  # a barrier does not bring a removed learner back
        assert scheduler.registered_learner_ids() == [0, 2]


class TestSsgdScheduling:
    def test_ssgd_iteration_has_barrier_semantics(self):
        server, scheduler, _ = _build(
            num_gpus=4, replicas_per_gpu=1, policy=SchedulingPolicy.LOCKSTEP
        )
        first = scheduler.schedule_ssgd_iteration(0, batch_per_gpu=32)
        second = scheduler.schedule_ssgd_iteration(1, batch_per_gpu=32)
        assert second.start >= first.end - 1e-12
        assert first.samples == 32 * 4

    def test_ssgd_small_per_gpu_batches_scale_poorly(self):
        """The Figure 2 effect: fixed aggregate batch ⇒ sub-linear speed-up."""

        def images_per_second(num_gpus, aggregate_batch):
            server, scheduler, _ = _build(
                num_gpus=num_gpus, replicas_per_gpu=1, policy=SchedulingPolicy.LOCKSTEP
            )
            per_gpu = aggregate_batch // num_gpus
            for i in range(10):
                scheduler.schedule_ssgd_iteration(i, batch_per_gpu=per_gpu)
            return 10 * aggregate_batch / server.now()

        fixed_aggregate_speedup = images_per_second(8, 64) / images_per_second(1, 64)
        scaled_aggregate_speedup = images_per_second(8, 512) / images_per_second(1, 64)
        assert fixed_aggregate_speedup < 4.0
        assert scaled_aggregate_speedup > 4.0
