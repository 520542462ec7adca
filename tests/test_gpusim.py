"""The GPU server simulator: cost model, streams/events, topology, collectives."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.gpusim import (
    Event,
    Gpu,
    Interconnect,
    MultiGpuServer,
    Stream,
    Topology,
    Tracer,
    cost_profile_for_model,
    hierarchical_reduce_time,
    learning_task_duration,
    local_sync_duration,
    pcie_tree_topology,
    ring_allreduce_time,
    titan_x_server,
    utilisation,
)
from repro.gpusim.costmodel import GpuSpec, contention_factor, input_transfer_duration


class TestCostModel:
    def test_resnet50_learning_task_matches_paper_latency(self):
        # §5.2: a ResNet-50 learning task takes ~220 ms.
        profile = cost_profile_for_model("resnet50")
        assert learning_task_duration(profile, 32, 1) == pytest.approx(0.220, rel=0.1)

    def test_lenet_learning_task_is_about_a_millisecond(self):
        profile = cost_profile_for_model("lenet")
        assert learning_task_duration(profile, 4, 1) < 2e-3

    def test_duration_grows_with_batch_size(self):
        profile = cost_profile_for_model("resnet32")
        assert learning_task_duration(profile, 128, 1) > learning_task_duration(profile, 32, 1)

    def test_small_batch_does_not_saturate_gpu(self):
        profile = cost_profile_for_model("resnet32")
        assert utilisation(profile, 8) < 0.2
        assert utilisation(profile, profile.saturation_batch) == 1.0
        assert utilisation(profile, 10 * profile.saturation_batch) == 1.0

    def test_contention_kicks_in_beyond_full_demand(self):
        profile = cost_profile_for_model("resnet32")
        assert contention_factor(profile, 8, 2) == 1.0  # two small tasks coexist
        assert contention_factor(profile, profile.saturation_batch, 2) == pytest.approx(2.0)

    def test_concurrent_learners_increase_gpu_throughput_until_saturation(self):
        profile = cost_profile_for_model("resnet32")
        batch = 64

        def throughput(m):
            return m * batch / learning_task_duration(profile, batch, m)

        assert throughput(2) > throughput(1) * 1.2
        assert throughput(4) == pytest.approx(throughput(2), rel=0.15)

    def test_scaled_model_uses_base_profile(self):
        assert cost_profile_for_model("resnet32-scaled").model_name == "resnet32"

    def test_unknown_model_profile_raises(self):
        with pytest.raises(ConfigurationError):
            cost_profile_for_model("alexnet")

    def test_local_sync_is_much_cheaper_than_learning(self):
        profile = cost_profile_for_model("resnet32")
        assert local_sync_duration(profile, 1) < 0.1 * learning_task_duration(profile, 64, 1)

    def test_input_transfer_scales_with_batch(self):
        profile = cost_profile_for_model("resnet50")
        spec = GpuSpec()
        assert input_transfer_duration(profile, 64, spec) > input_transfer_duration(
            profile, 8, spec
        )

    def test_invalid_batch_raises(self):
        profile = cost_profile_for_model("resnet32")
        with pytest.raises(ConfigurationError):
            learning_task_duration(profile, 0, 1)
        with pytest.raises(ConfigurationError):
            learning_task_duration(profile, 32, 0)


class TestTopologyAndCollectives:
    def test_pcie_tree_link_classes(self):
        topo = pcie_tree_topology(8)
        assert topo.link(0, 1).name == "pcie-switch"
        assert topo.link(0, 2).name == "pcie-host-bridge"
        assert topo.link(0, 4).name == "qpi"

    def test_invalid_links_raise(self):
        topo = pcie_tree_topology(4)
        with pytest.raises(ConfigurationError):
            topo.link(0, 0)
        with pytest.raises(ConfigurationError):
            topo.link(0, 9)

    def test_ring_bottleneck_is_the_slowest_tree_crossing(self):
        bottlenecks = {g: pcie_tree_topology(g).ring_bottleneck().name for g in (1, 2, 4, 8)}
        assert bottlenecks == {
            1: "pcie-switch",
            2: "pcie-switch",
            4: "pcie-host-bridge",
            8: "qpi",
        }

    def test_allreduce_zero_for_single_gpu(self):
        assert ring_allreduce_time(1e6, pcie_tree_topology(1)) == 0.0

    def test_allreduce_grows_with_payload(self):
        topo = pcie_tree_topology(8)
        assert ring_allreduce_time(100e6, topo) > ring_allreduce_time(1e6, topo)

    def test_allreduce_per_gpu_traffic_stays_bounded_with_more_gpus(self):
        # Ring all-reduce transfers ~2(g-1)/g * S/B regardless of GPU count, so
        # going from 2 to 8 GPUs costs at most the 1.75/1.0 transfer factor times
        # the bandwidth drop from crossing QPI, plus a little latency — not 4x.
        payload = 50e6
        t2 = ring_allreduce_time(payload, pcie_tree_topology(2))
        t8 = ring_allreduce_time(payload, pcie_tree_topology(8))
        assert t2 < t8 < 3.5 * t2

    def test_nvlink_is_faster_than_pcie(self):
        nvlink = Interconnect("nvlink", 40e9, 3e-6)
        links = {(a, b): nvlink for a in range(8) for b in range(a + 1, 8)}
        payload = 97e6
        assert ring_allreduce_time(payload, Topology(8, links)) < ring_allreduce_time(
            payload, pcie_tree_topology(8)
        )

    def test_hierarchical_reduce_adds_intra_gpu_cost(self):
        topo = pcie_tree_topology(4)
        base = hierarchical_reduce_time(10e6, topo, replicas_per_gpu=1)
        with_replicas = hierarchical_reduce_time(10e6, topo, replicas_per_gpu=4)
        assert with_replicas > base

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(-1.0, pcie_tree_topology(2))


class TestStreamsAndServer:
    def test_stream_tasks_execute_in_issue_order(self):
        stream = Stream(0, 0)
        first = stream.schedule("a", 1.0)
        second = stream.schedule("b", 0.5)
        assert second.start >= first.end

    def test_dependencies_delay_start(self):
        stream = Stream(0, 0)
        record = stream.schedule("dependent", 1.0, dependencies=[5.0])
        assert record.start == 5.0

    def test_event_record_and_wait(self):
        event = Event("sync")
        with pytest.raises(SchedulingError):
            event.ready_time()
        event.record(3.0)
        assert event.ready_time() == 3.0

    def test_negative_duration_rejected(self):
        stream = Stream(0, 0)
        with pytest.raises(SchedulingError):
            stream.schedule("bad", -1.0)

    def test_gpu_streams_and_utilisation(self):
        gpu = Gpu(0)
        learner = gpu.add_learner_stream()
        learner.schedule("work", 2.0)
        assert gpu.busy_time() == pytest.approx(2.0)
        assert 0.0 < gpu.utilisation(4.0) <= 1.0

    def test_server_clock_advances_with_scheduled_work(self):
        server = titan_x_server(2)
        stream = server.gpu(0).add_learner_stream()
        assert server.now() == 0.0
        server.schedule_task(0, stream, "task", 1.5)
        assert server.now() == pytest.approx(1.5)

    def test_server_allreduce_occupies_all_sync_streams(self):
        server = titan_x_server(4)
        records = server.schedule_allreduce(10e6, ready_times=[1.0])
        assert set(records) == {0, 1, 2, 3}
        starts = {r.start for r in records.values()}
        assert len(starts) == 1  # collective starts simultaneously everywhere
        assert min(starts) >= 1.0

    def test_server_rejects_unknown_gpu(self):
        server = titan_x_server(2)
        with pytest.raises(SchedulingError):
            server.gpu(5)

    def test_schedule_task_on_wrong_gpu_raises(self):
        server = titan_x_server(2)
        stream = server.gpu(0).add_learner_stream()
        with pytest.raises(SchedulingError):
            server.schedule_task(1, stream, "oops", 1.0)

    def test_reset_clock(self):
        server = titan_x_server(2)
        stream = server.gpu(0).add_learner_stream()
        server.schedule_task(0, stream, "task", 1.0)
        server.reset_clock()
        assert server.now() == 0.0
        assert len(server.tracer) == 0

    def test_mismatched_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiGpuServer(num_gpus=4, topology=pcie_tree_topology(2))


class TestTracer:
    def test_tracer_records_and_filters(self):
        server = titan_x_server(2)
        stream = server.gpu(1).add_learner_stream()
        server.schedule_task(1, stream, "task", 1.0, kind="learning")
        server.schedule_allreduce(1e6, ready_times=[0.0])
        tracer = server.tracer
        assert len(tracer.by_kind("learning")) == 1
        assert len(tracer.by_gpu(1)) >= 1
        assert tracer.makespan() > 0
        assert all(isinstance(d, dict) for d in tracer.to_dicts())

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        server = MultiGpuServer(2, tracer=tracer)
        stream = server.gpu(0).add_learner_stream()
        server.schedule_task(0, stream, "task", 1.0)
        assert len(tracer) == 0
