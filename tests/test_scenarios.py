"""Tests for the scenario harness: traces, SLOs, the runner, and fault injection.

Four layers, mirroring the module structure:

* trace generators — fixed-seed determinism (in-process, across reruns, and
  across ``fan`` worker processes), seed sensitivity, and shape sanity for
  every catalogue trace;
* SLO specs — at least one genuine pass and one deliberate violation verdict,
  plus the bound arithmetic;
* the virtual-time runner — admission/deadline/batching semantics per policy,
  conservation after a full drain, sweep determinism for any ``n_jobs``,
  closed-loop accounting;
* live replays — conservation against a real ``InferenceServer`` thread, and
  the fault-injection scenario: an ``EvaluatorPool`` worker killed mid-run
  (under ``REPRO_SHM_SANITIZE=1``, so dead-holder reclamation runs end to
  end) with every request still resolved exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer, process_execution_supported
from repro.errors import ConfigurationError
from repro.models import create_model
from repro.scenarios import (
    ClosedLoopTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    PoissonTrace,
    Scenario,
    ScenarioRunner,
    ServiceModel,
    SlowDrainTrace,
    SLOSpec,
    TRACES,
    expand_grid,
    fan,
    rerun_identical,
    run_autotuner_hysteresis_study,
    simulate,
    trace_catalogue,
)
from repro.serve import Checkpoint, EvaluationService, InferenceServer
from repro.utils.rng import RandomState

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)

#: slow service so small traces still build queues (one lane ~80 req/s at batch 8)
STRESS = ServiceModel(batch_overhead_ms=4.0, per_sample_ms=12.0)


def _arrival_times(trace, seed):
    return [arrival.at_s for arrival in trace.arrivals(seed)]


def _arrival_times_seed11(trace):
    # Module-level so `fan` can pickle it into worker processes.
    return _arrival_times(trace, seed=11)


# ---------------------------------------------------------------------- trace generators
class TestTraceDeterminism:
    @pytest.mark.parametrize("name", sorted(set(TRACES) - {"closedloop"}))
    def test_same_seed_bit_identical_across_runs(self, name):
        trace = TRACES[name]()
        assert _arrival_times(trace, seed=42) == _arrival_times(trace, seed=42)

    @pytest.mark.parametrize("name", sorted(set(TRACES) - {"closedloop"}))
    def test_different_seeds_differ(self, name):
        trace = TRACES[name]()
        assert _arrival_times(trace, seed=0) != _arrival_times(trace, seed=1)

    def test_closed_loop_think_times_deterministic_and_seed_sensitive(self):
        trace = ClosedLoopTrace(clients=4, requests_per_client=3)
        np.testing.assert_array_equal(trace.think_times(5), trace.think_times(5))
        assert not np.array_equal(trace.think_times(5), trace.think_times(6))

    @needs_fork
    def test_same_seed_bit_identical_across_processes(self):
        """`fan` workers must see the exact sequences the parent computes."""
        traces = trace_catalogue(duration_s=2.0)
        in_process = [_arrival_times(trace, seed=11) for trace in traces]
        fanned = fan(_arrival_times_seed11, traces, n_jobs=4)
        assert fanned == in_process

    def test_traces_never_share_a_stream(self):
        """Same seed, different trace names: independent child streams."""
        poisson = PoissonTrace(rate_rps=40.0)
        drain = SlowDrainTrace(start_rate=40.0, end_rate=40.0)  # same profile
        assert _arrival_times(poisson, 3) != _arrival_times(drain, 3)


class TestTraceShapes:
    def test_arrivals_sorted_and_bounded(self):
        for trace in trace_catalogue(duration_s=4.0):
            times = _arrival_times(trace, seed=0)
            assert times == sorted(times)
            assert all(0.0 < at < trace.duration_s for at in times)

    def test_poisson_rate_matches_request_count(self):
        trace = PoissonTrace(rate_rps=200.0, duration_s=10.0)
        observed = trace.offered(seed=1) / trace.duration_s
        assert observed == pytest.approx(200.0, rel=0.15)

    def test_flash_crowd_concentrates_in_burst_window(self):
        trace = FlashCrowdTrace(
            base_rate=10.0, burst_rate=200.0, burst_start_s=2.0, burst_duration_s=1.0,
            duration_s=8.0,
        )
        times = _arrival_times(trace, seed=0)
        in_burst = sum(1 for at in times if 2.0 <= at < 3.0)
        # Burst window is 1/8 of the timeline but carries most of the load.
        assert in_burst / len(times) > 0.5

    def test_diurnal_peak_outweighs_trough(self):
        trace = DiurnalTrace(base_rate=5.0, peak_rate_rps=100.0, period_s=8.0, duration_s=8.0)
        times = _arrival_times(trace, seed=2)
        trough = sum(1 for at in times if at < 2.0)  # cosine starts at the trough
        peak = sum(1 for at in times if 3.0 <= at < 5.0)
        assert peak > 2 * trough

    def test_slow_drain_front_loads(self):
        trace = SlowDrainTrace(start_rate=100.0, end_rate=2.0, duration_s=8.0)
        times = _arrival_times(trace, seed=3)
        first_half = sum(1 for at in times if at < 4.0)
        assert first_half > 0.6 * len(times)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonTrace(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalTrace(base_rate=50.0, peak_rate_rps=10.0)
        with pytest.raises(ConfigurationError):
            FlashCrowdTrace(burst_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            SlowDrainTrace(start_rate=1.0, end_rate=5.0)
        with pytest.raises(ConfigurationError):
            ClosedLoopTrace(clients=0)
        with pytest.raises(ConfigurationError):
            ClosedLoopTrace().arrivals(0)  # closed loops have no fixed schedule
        with pytest.raises(ConfigurationError):
            trace_catalogue(scale=0.0)


# -------------------------------------------------------------------------- SLO verdicts
class TestSLOSpec:
    def test_pass_and_deliberate_violation_verdicts(self):
        """The acceptance pair: one scenario passes its SLO, one is designed
        to violate it (degrade mode under a flash crowd blows the p99 bound
        while serving everything)."""
        slo = SLOSpec(p99_latency_ms=400.0, min_served_fraction=0.5)
        calm = simulate(
            Scenario(
                trace=PoissonTrace(rate_rps=40.0, duration_s=2.0),
                admission_policy="reject",
                service=STRESS,
                slo=slo,
            )
        )
        overloaded = simulate(
            Scenario(
                trace=FlashCrowdTrace(duration_s=2.0, burst_start_s=0.5, burst_duration_s=0.5),
                admission_policy="degrade",
                service=STRESS,
                slo=slo,
            )
        )
        assert calm.slo_report is not None and calm.slo_report.verdict == "pass"
        assert overloaded.slo_report is not None and overloaded.slo_report.verdict == "fail"
        failed = overloaded.slo_report.failures()
        assert [check.objective for check in failed] == ["p99_latency_ms"]
        assert not overloaded.slo_report and bool(calm.slo_report)

    def test_bounds_arithmetic(self):
        spec = SLOSpec(
            p99_latency_ms=10.0,
            max_deadline_miss_rate=0.1,
            max_rejection_rate=0.25,
            min_served_fraction=0.5,
        )
        report = spec.evaluate(
            {
                "offered": 100,
                "accepted": 80,
                "rejected": 20,
                "shed": 10,
                "deadline_missed": 4,
                "served": 66,
                "p99_ms": 9.0,
            }
        )
        observed = {check.objective: (check.observed, check.ok) for check in report.checks}
        assert observed["p99_latency_ms"] == (9.0, True)
        assert observed["deadline_miss_rate"] == (pytest.approx(0.05), True)
        assert observed["rejection_rate"] == (pytest.approx(0.3), False)
        assert observed["served_fraction"] == (pytest.approx(0.66), True)
        assert report.verdict == "fail"

    def test_empty_spec_passes_vacuously(self):
        assert SLOSpec().evaluate({"offered": 0}).passed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SLOSpec(p99_latency_ms=-1.0)


# ------------------------------------------------------------------------ the simulator
class TestSimulatorSemantics:
    def _burst(self, **overrides):
        settings = dict(
            trace=FlashCrowdTrace(duration_s=2.0, burst_start_s=0.5, burst_duration_s=0.5),
            admission_policy="reject",
            max_queue_depth=4,
            service=STRESS,
            seed=0,
        )
        settings.update(overrides)
        return Scenario(**settings)

    def test_reject_bounds_queue_and_refuses(self):
        result = simulate(self._burst(admission_policy="reject"))
        assert result.counters.rejected > 0
        assert result.counters.shed == 0
        assert result.counters.max_queue_depth_seen <= 4 + 1  # +1: the admitted request

    def test_shed_oldest_drops_instead_of_refusing(self):
        result = simulate(self._burst(admission_policy="shed-oldest"))
        assert result.counters.shed > 0
        assert result.counters.rejected == 0
        assert result.counters.max_queue_depth_seen <= 4 + 1

    def test_degrade_serves_everything_with_degraded_batches(self):
        result = simulate(self._burst(admission_policy="degrade"))
        assert result.counters.rejected == 0 and result.counters.shed == 0
        assert result.served == result.counters.offered
        assert result.counters.degraded_batches > 0

    def test_none_policy_is_unbounded(self):
        result = simulate(self._burst(admission_policy="none", max_queue_depth=None))
        assert result.served == result.counters.offered
        assert result.counters.max_queue_depth_seen > 4

    def test_deadlines_expire_queued_requests(self):
        with_deadline = simulate(self._burst(admission_policy="none", max_queue_depth=None,
                                             deadline_ms=30.0))
        assert with_deadline.counters.deadline_missed > 0
        assert with_deadline.conserved

    def test_conservation_for_every_policy(self):
        for policy in ("none", "reject", "shed-oldest", "degrade"):
            result = simulate(
                self._burst(
                    admission_policy=policy,
                    max_queue_depth=None if policy == "none" else 4,
                    deadline_ms=50.0,
                )
            )
            counters = result.counters
            assert counters.offered == counters.accepted + counters.rejected
            assert counters.accepted == result.served + counters.shed + counters.deadline_missed

    def test_more_workers_cut_latency(self):
        slow = simulate(self._burst(admission_policy="degrade", workers=1))
        fast = simulate(self._burst(admission_policy="degrade", workers=4))
        assert fast.served == slow.served  # degrade never drops
        assert np.percentile(fast.latencies_ms, 99) < np.percentile(slow.latencies_ms, 99)

    def test_closed_loop_accounting(self):
        trace = ClosedLoopTrace(clients=6, requests_per_client=4, think_time_s=0.01)
        result = simulate(
            Scenario(trace=trace, admission_policy="shed-oldest", max_queue_depth=3,
                     service=STRESS, seed=2)
        )
        # Every client request resolves (served, shed, or rejected) exactly once:
        # the loop self-throttles, so offered equals the fixed population size.
        assert result.counters.offered == trace.clients * trace.requests_per_client
        assert result.conserved

    def test_single_scenario_rerun_is_bit_identical(self):
        assert rerun_identical(self._burst(deadline_ms=40.0, workers=2))

    def test_validation_mirrors_inference_server(self):
        with pytest.raises(ConfigurationError):
            Scenario(trace=PoissonTrace(), admission_policy="drop-all")
        with pytest.raises(ConfigurationError):
            Scenario(trace=PoissonTrace(), admission_policy="reject", max_queue_depth=None)
        with pytest.raises(ConfigurationError):
            Scenario(trace=PoissonTrace(), workers=0)
        with pytest.raises(ConfigurationError):
            ServiceModel(per_sample_ms=0.0)


class TestSweep:
    def test_grid_order_and_determinism_across_n_jobs(self):
        runner = ScenarioRunner(service=STRESS, slo=SLOSpec(p99_latency_ms=400.0))
        traces = trace_catalogue(duration_s=1.0)
        serial = ScenarioRunner.rows(runner.sweep(traces, seed=4, n_jobs=1))
        assert len(serial) == len(traces) * 2 * 2  # default 2 policies x 2 worker counts
        labels = [row["scenario"] for row in serial]
        assert labels == sorted(labels, key=labels.index)  # stable, documented order
        if process_execution_supported():
            fanned = ScenarioRunner.rows(runner.sweep(traces, seed=4, n_jobs=3))
            assert fanned == serial

    def test_seed_changes_rows(self):
        runner = ScenarioRunner(service=STRESS)
        traces = [PoissonTrace(duration_s=1.0)]
        assert ScenarioRunner.rows(runner.sweep(traces, seed=0)) != ScenarioRunner.rows(
            runner.sweep(traces, seed=1)
        )

    def test_expand_grid_shape(self):
        grid = expand_grid({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(grid) == 6
        assert grid[0] == {"a": 1, "b": "x"} and grid[-1] == {"a": 2, "b": "z"}
        with pytest.raises(ConfigurationError):
            expand_grid({"a": []})


# ------------------------------------------------------------------- hysteresis study
class TestHysteresisStudy:
    def test_damping_reduces_resizes_deterministically(self):
        rows = run_autotuner_hysteresis_study(hysteresis_values=(0.0, 0.2), seed=1)
        undamped, damped = rows
        assert damped["resizes"] < undamped["resizes"]
        assert rows == run_autotuner_hysteresis_study(hysteresis_values=(0.0, 0.2), seed=1)

    def test_zero_hysteresis_reproduces_algorithm2(self):
        from repro.engine.autotuner import AutoTuner

        stream = RandomState(9).child("tuner").generator
        signal = 100.0 + 10.0 * stream.standard_normal(32)
        plain, damped_zero = AutoTuner(), AutoTuner(hysteresis=0.0)
        for value in signal:
            plain.observe(float(value))
            damped_zero.observe(float(value))
        assert plain.history == damped_zero.history

    def test_negative_hysteresis_rejected(self):
        from repro.engine.autotuner import AutoTuner

        with pytest.raises(ConfigurationError):
            AutoTuner(hysteresis=-0.1)


# ------------------------------------------------------------------------ live replays
def _serve_model():
    return create_model(
        "mlp", rng=RandomState(3), input_dim=8, num_classes=4, hidden_sizes=(16,)
    )


class TestLiveReplay:
    def test_conservation_against_real_server(self):
        trace = PoissonTrace(rate_rps=150.0, duration_s=0.4)
        runner = ScenarioRunner()
        images = RandomState(1).normal(size=(1, 8)).astype(np.float32)
        server = InferenceServer(
            _serve_model(),
            max_batch_size=8,
            max_latency_ms=1.0,
            admission_policy="reject",
            max_queue_depth=16,
        )
        with server:
            row = runner.replay_live(
                trace, server, images_for=lambda samples: images, seed=7
            )
        assert row["offered"] == trace.offered(7)
        assert row["accepted"] + row["rejected"] == row["offered"]
        assert row["served"] + row["refused"] == row["offered"]
        assert row["queue_depth_p99"] >= 1.0  # the one accounting row, depth columns included

    def test_closed_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioRunner().replay_live(
                ClosedLoopTrace(), InferenceServer(_serve_model()), lambda n: None
            )


_DATASET = {"num_train": 128, "num_test": 64}


@needs_fork
class TestFaultInjection:
    def test_worker_killed_mid_scenario_accounting_survives(self, monkeypatch):
        """Kill one EvaluatorPool worker mid-replay under the shm sanitizer.

        The replay must finish with every request resolved exactly once — the
        dead worker's claimed slot is reclaimed (dead-holder path), the
        service raises ``SchedulingError`` listing the lost tickets, and the
        runner resubmits them against the respawned pool.
        """
        monkeypatch.setenv("REPRO_SHM_SANITIZE", "1")
        trainer = CrossbowTrainer(
            CrossbowConfig(
                model_name="mlp",
                dataset_name="blobs",
                num_gpus=1,
                batch_size=16,
                replicas_per_gpu=2,
                max_epochs=1,
                dataset_overrides=dict(_DATASET),
                seed=7,
            )
        )
        service = EvaluationService(execution="process", workers=2)
        service.bind(trainer.initial_model, trainer.pipeline)
        base = trainer.initial_model.parameter_vector()
        rng = RandomState(23)
        checkpoints = [
            Checkpoint(
                parameters=base
                + rng.normal(scale=0.05, size=base.shape).astype(np.float32),
                buffers={},
                epoch=index,
            )
            for index in range(8)
        ]
        trace = ClosedLoopTrace(clients=2, requests_per_client=4)  # 8 requests
        killed = {"done": False}

        def kill_one_worker(index: int) -> None:
            # Strike midway, after the pool is warm and holds claimed slots.
            if index == 4 and not killed["done"] and service._pool is not None:
                victim = service._pool._processes()[0]
                victim.terminate()
                victim.join(timeout=10.0)
                killed["done"] = True

        try:
            row = ScenarioRunner().replay_evaluation(
                trace,
                service,
                checkpoint_for=lambda index: checkpoints[index],
                seed=0,
                on_submit=kill_one_worker,
            )
        finally:
            service.close()
            trainer.close()
        assert killed["done"], "the fault was never injected"
        assert row["offered"] == 8
        assert row["resolved"] == 8  # every request resolved exactly once
        assert row["recoveries"] >= 1 and row["resubmitted"] >= 1
        assert sorted(row["accuracies"]) == list(range(8))

    def test_no_fault_no_recovery(self):
        """Same replay, nobody killed: zero recoveries, all resolved."""
        trainer = CrossbowTrainer(
            CrossbowConfig(
                model_name="mlp",
                dataset_name="blobs",
                num_gpus=1,
                batch_size=16,
                replicas_per_gpu=2,
                max_epochs=1,
                dataset_overrides=dict(_DATASET),
                seed=7,
            )
        )
        service = EvaluationService(execution="process", workers=2)
        service.bind(trainer.initial_model, trainer.pipeline)
        base = trainer.initial_model.parameter_vector()
        checkpoints = [
            Checkpoint(parameters=base.copy(), buffers={}, epoch=index) for index in range(4)
        ]
        trace = ClosedLoopTrace(clients=2, requests_per_client=2)
        try:
            row = ScenarioRunner().replay_evaluation(
                trace, service, checkpoint_for=lambda index: checkpoints[index], seed=0
            )
        finally:
            service.close()
            trainer.close()
        assert row == {
            "trace": "closedloop",
            "offered": 4,
            "resolved": 4,
            "resubmitted": 0,
            "recoveries": 0,
            "accuracies": row["accuracies"],
        }
        assert len(row["accuracies"]) == 4
