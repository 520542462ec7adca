"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.batching import Batch, CircularBatchBuffer
from repro.data.sharding import partition_batch
from repro.engine import OperatorSpec, naive_memory_plan, offline_memory_plan
from repro.engine.autotuner import AutoTuner
from repro.optim import SMA, SMAConfig
from repro.optim.schedules import MultiStepSchedule, StepDecaySchedule
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import unbroadcast
from repro.gpusim import cost_profile_for_model, learning_task_duration, ring_allreduce_time
from repro.gpusim.topology import pcie_tree_topology
from repro.scenarios import (
    ClosedLoopTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    PoissonTrace,
    Scenario,
    ServiceModel,
    SlowDrainTrace,
    rerun_identical,
    simulate,
)

# Hypothesis settings tuned for CI: few but meaningful examples, no deadline
# (NumPy work inside the properties can be slow on loaded machines).
SETTINGS = settings(max_examples=25, deadline=None)

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32)


class TestTensorProperties:
    @SETTINGS
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        data=st.data(),
    )
    def test_softmax_rows_always_sum_to_one(self, rows, cols, data):
        values = data.draw(
            st.lists(finite_floats, min_size=rows * cols, max_size=rows * cols)
        )
        logits = Tensor(np.array(values, dtype=np.float32).reshape(rows, cols))
        probs = F.softmax(logits).data
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(rows), atol=1e-4)

    @SETTINGS
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**16),
    )
    def test_unbroadcast_inverts_broadcasting(self, shape, seed):
        rng = np.random.default_rng(seed)
        # Randomly set some axes to 1 to create a broadcastable shape.
        reduced_shape = tuple(1 if rng.random() < 0.5 else dim for dim in shape)
        grad = rng.normal(size=shape).astype(np.float32)
        result = unbroadcast(grad, reduced_shape)
        assert result.shape == reduced_shape
        # The total "mass" of the gradient is preserved by summing.
        np.testing.assert_allclose(result.sum(), grad.sum(), rtol=1e-4, atol=1e-4)

    @SETTINGS
    @given(
        batch=st.integers(1, 4),
        features=st.integers(2, 8),
        seed=st.integers(0, 2**16),
    )
    def test_relu_gradient_is_subset_of_ones(self, batch, features, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(batch, features)).astype(np.float32), requires_grad=True)
        F.sum(F.relu(x)).backward()
        assert set(np.unique(x.grad)).issubset({0.0, 1.0})


class TestSmaProperties:
    @SETTINGS
    @given(
        k=st.integers(1, 8),
        dim=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_identical_replicas_produce_zero_corrections(self, k, dim, seed):
        rng = np.random.default_rng(seed)
        center = rng.normal(size=dim).astype(np.float32)
        sma = SMA(center, k, SMAConfig(momentum=0.0))
        corrections = [sma.correction(center.copy()) for _ in range(k)]
        for correction in corrections:
            np.testing.assert_allclose(correction, 0.0, atol=1e-6)
        new_center = sma.apply_corrections(corrections)
        np.testing.assert_allclose(new_center, center, atol=1e-6)

    @SETTINGS
    @given(
        k=st.integers(2, 8),
        dim=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_center_update_equals_mean_displacement(self, k, dim, seed):
        """With α=1/k and no momentum, the centre moves to the replica mean."""
        rng = np.random.default_rng(seed)
        center = rng.normal(size=dim).astype(np.float32)
        replicas = [center + rng.normal(size=dim).astype(np.float32) for _ in range(k)]
        sma = SMA(center, k, SMAConfig(momentum=0.0))
        corrections = [sma.correction(r) for r in replicas]
        new_center = sma.apply_corrections(corrections)
        np.testing.assert_allclose(new_center, np.mean(replicas, axis=0), atol=1e-4)

    @SETTINGS
    @given(
        k=st.integers(1, 6),
        dim=st.integers(1, 8),
        steps=st.integers(1, 10),
        seed=st.integers(0, 2**16),
    )
    def test_corrections_shrink_replica_divergence(self, k, dim, steps, seed):
        rng = np.random.default_rng(seed)
        center = np.zeros(dim, dtype=np.float32)
        sma = SMA(center, k, SMAConfig(momentum=0.0))
        replicas = [rng.normal(scale=5.0, size=dim).astype(np.float32) for _ in range(k)]
        before = sma.divergence(replicas)
        for _ in range(steps):
            corrections = [sma.correction(r) for r in replicas]
            replicas = [r - c for r, c in zip(replicas, corrections)]
            sma.apply_corrections(corrections)
        after = sma.divergence(replicas)
        assert after <= before + 1e-5


class TestDataStructureProperties:
    @SETTINGS
    @given(
        num_slots=st.integers(1, 8),
        operations=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_circular_buffer_occupancy_stays_bounded(self, num_slots, operations, seed):
        rng = np.random.default_rng(seed)
        buffer = CircularBatchBuffer(num_slots)
        live = []
        for index in range(operations):
            if live and (rng.random() < 0.5 or not buffer.has_free_slot()):
                buffer.release(live.pop())
            elif buffer.has_free_slot():
                batch = Batch(np.zeros((1, 1, 1, 1), dtype=np.float32), np.zeros(1), index, 0)
                live.append(buffer.put(batch))
            assert 0 <= buffer.occupancy() <= num_slots
        assert buffer.occupancy() == len(live)

    @SETTINGS
    @given(
        batch_size=st.integers(1, 64),
        partitions=st.integers(1, 8),
    )
    def test_partition_batch_conserves_samples(self, batch_size, partitions):
        if batch_size < partitions:
            return
        batch = Batch(
            images=np.arange(batch_size * 4, dtype=np.float32).reshape(batch_size, 1, 2, 2),
            labels=np.arange(batch_size),
            index=0,
            epoch=0,
        )
        shards = partition_batch(batch, partitions)
        assert sum(s.size for s in shards) == batch_size
        assert max(s.size for s in shards) - min(s.size for s in shards) <= 1

    @SETTINGS
    @given(
        sizes=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
    )
    def test_offline_plan_never_exceeds_naive_plan(self, sizes):
        specs = [
            OperatorSpec(f"op{i}", size, (i - 1,) if i > 0 else ())
            for i, size in enumerate(sizes)
        ]
        naive = naive_memory_plan(specs)
        offline = offline_memory_plan(specs)
        assert offline.peak_bytes <= naive.peak_bytes
        assert offline.total_allocated_bytes <= naive.total_allocated_bytes
        assert len(offline.buffer_of_operator) == len(specs)


class TestSimulatorProperties:
    @SETTINGS
    @given(
        batch=st.integers(1, 512),
        learners=st.integers(1, 8),
    )
    def test_learning_task_duration_is_monotone(self, batch, learners):
        profile = cost_profile_for_model("resnet32")
        base = learning_task_duration(profile, batch, learners)
        assert base > 0
        assert learning_task_duration(profile, batch + 1, learners) >= base
        assert learning_task_duration(profile, batch, learners + 1) >= base

    @SETTINGS
    @given(
        payload=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        gpus=st.integers(1, 8),
    )
    def test_allreduce_time_is_non_negative_and_monotone_in_payload(self, payload, gpus):
        topology = pcie_tree_topology(gpus)
        time_a = ring_allreduce_time(payload, topology)
        time_b = ring_allreduce_time(payload * 2, topology)
        assert time_a >= 0
        assert time_b >= time_a

    @SETTINGS
    @given(
        throughputs=st.lists(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=1, max_size=30
        ),
        max_learners=st.integers(1, 8),
    )
    def test_autotuner_respects_bounds_for_any_throughput_sequence(
        self, throughputs, max_learners
    ):
        tuner = AutoTuner(tolerance=0.05, max_learners=max_learners, min_learners=1)
        for value in throughputs:
            tuner.observe(value)
            assert 1 <= tuner.learners_per_gpu <= max_learners


@st.composite
def open_traces(draw):
    """An arbitrary valid open-loop trace (every catalogue shape, small)."""
    duration = draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
    low = draw(st.floats(min_value=1.0, max_value=40.0, allow_nan=False))
    high = draw(st.floats(min_value=40.0, max_value=90.0, allow_nan=False))
    kind = draw(st.sampled_from(["poisson", "diurnal", "flashcrowd", "slowdrain"]))
    if kind == "poisson":
        return PoissonTrace(duration_s=duration, rate_rps=high)
    if kind == "diurnal":
        return DiurnalTrace(
            duration_s=duration, base_rate=low, peak_rate_rps=high, period_s=duration
        )
    if kind == "flashcrowd":
        return FlashCrowdTrace(
            duration_s=duration,
            base_rate=low,
            burst_rate=high,
            burst_start_s=duration / 4.0,
            burst_duration_s=duration / 4.0,
        )
    return SlowDrainTrace(duration_s=duration, start_rate=high, end_rate=low)


any_traces = st.one_of(
    open_traces(),
    st.builds(
        ClosedLoopTrace,
        clients=st.integers(1, 8),
        requests_per_client=st.integers(1, 4),
        think_time_s=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    ),
)


@st.composite
def scenarios(draw):
    """An arbitrary valid scenario: any trace x policy x knobs the server accepts."""
    policy = draw(st.sampled_from(["none", "reject", "shed-oldest", "degrade"]))
    return Scenario(
        trace=draw(any_traces),
        admission_policy=policy,
        max_queue_depth=None if policy == "none" else draw(st.integers(1, 6)),
        deadline_ms=draw(
            st.one_of(st.none(), st.floats(min_value=5.0, max_value=200.0, allow_nan=False))
        ),
        workers=draw(st.integers(1, 3)),
        max_batch_size=draw(st.integers(1, 8)),
        max_latency_ms=draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False)),
        service=ServiceModel(
            batch_overhead_ms=2.0,
            per_sample_ms=draw(st.floats(min_value=1.0, max_value=15.0, allow_nan=False)),
        ),
        seed=draw(st.integers(0, 2**16)),
    )


class TestScenarioProperties:
    @SETTINGS
    @given(scenario=scenarios())
    def test_conservation_for_arbitrary_scenarios(self, scenario):
        """No replay loses a request: offered = accepted + rejected and every
        accepted request is served, shed, or expired — for any trace, policy,
        deadline, and lane count."""
        result = simulate(scenario)
        counters = result.counters
        assert counters.offered == counters.accepted + counters.rejected
        assert counters.accepted == result.served + counters.shed + counters.deadline_missed

    @SETTINGS
    @given(scenario=scenarios(), policy=st.sampled_from(["reject", "shed-oldest"]))
    def test_bounded_policies_never_exceed_queue_bound(self, scenario, policy):
        bounded = replace(
            scenario,
            admission_policy=policy,
            max_queue_depth=scenario.max_queue_depth or 4,
        )
        result = simulate(bounded)
        assert result.counters.max_queue_depth_seen <= bounded.max_queue_depth

    @SETTINGS
    @given(scenario=scenarios())
    def test_counters_never_negative(self, scenario):
        result = simulate(scenario)
        counters = result.counters
        for attribute in ("accepted", "rejected", "shed", "deadline_missed", "degraded_batches"):
            assert getattr(counters, attribute) >= 0
        assert result.served >= 0 and result.batches >= 0
        assert all(latency >= 0.0 for latency in result.latencies_ms)
        assert result.makespan_s >= 0.0

    @SETTINGS
    @given(scenario=scenarios())
    def test_fixed_seed_rerun_is_bit_identical(self, scenario):
        assert rerun_identical(scenario)


class TestScheduleProperties:
    @SETTINGS
    @given(
        base=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
        epoch_a=st.floats(min_value=0, max_value=300, allow_nan=False),
        epoch_b=st.floats(min_value=0, max_value=300, allow_nan=False),
    )
    def test_multistep_schedule_is_non_increasing(self, base, epoch_a, epoch_b):
        schedule = MultiStepSchedule(base, milestones=[80, 120], gamma=0.1)
        earlier, later = sorted((epoch_a, epoch_b))
        assert schedule.rate(later) <= schedule.rate(earlier) + 1e-12

    @SETTINGS
    @given(
        base=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
        period=st.integers(1, 50),
        epoch=st.floats(min_value=0, max_value=500, allow_nan=False),
    )
    def test_step_decay_stays_positive_and_bounded_by_base(self, base, period, epoch):
        schedule = StepDecaySchedule(base, period=period, gamma=0.5)
        rate = schedule.rate(epoch)
        assert 0 < rate <= base + 1e-12
