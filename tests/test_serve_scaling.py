"""Tests for the multi-process inference plane and its telemetry-driven autoscaler.

Four layers, mirroring ``repro.serve.scaling``:

* ``ServingAutoTuner`` — the Algorithm-2 machinery running setpoint control:
  dead band, shrink-side hysteresis, bounds, signal→pressure arithmetic;
* ``load_signal`` — the pivot query the scaler feeds on, pinned against a
  synthetic history;
* ``InferencePool`` — slot-ring round trips, in-place resize (no respawn:
  the worker PIDs never change), validation, and a blocking collect that
  sees a killed worker at once;
* the pooled server end to end — fixed-seed single-worker bit-identity with
  the in-process ``InferenceServer``, counter conservation and exactly-once
  delivery across mid-stream resizes, a worker killed mid-scale under
  ``REPRO_SHM_SANITIZE=1``, the event-driven loop (a closed loop never
  collects an empty pipe; a killed pool wakes the loop with no new submit;
  a backlog does not hold responses back), and the closed control loop: a flash-crowd
  replay forces a grow and the slow-drain tail forces a shrink, with the
  load signal read from ``repro.telemetry.queries`` rather than in-process
  state, and SLO verdicts flipping from fail to pass once the pool scales.
"""

from __future__ import annotations

import collections
import fcntl
import functools
import os
import resource
import threading
import time

import numpy as np
import pytest

from repro.engine import process_execution_supported
from repro.engine.autotuner import AutoTunerDecision
from repro.errors import ConfigurationError, SchedulingError
from repro.models import create_model
from repro.nn.module import Module
from repro.scenarios import FlashCrowdTrace, ScenarioRunner, SlowDrainTrace, SLOSpec
from repro.serve import InferenceServer, PooledInferenceServer, ServeCounters
from repro.serve.scaling import InferencePool, ServingAutoTuner, autoscale_step
from repro.telemetry.queries import load_signal
from repro.telemetry.recorder import Recorder, get_recorder, set_recorder
from repro.telemetry.store import TelemetryStore
from repro.utils.rng import RandomState

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)

INPUT_DIM = 8


def _model():
    return create_model(
        "mlp", rng=RandomState(3), input_dim=INPUT_DIM, num_classes=4, hidden_sizes=(16,)
    )


class _SlowModel(Module):
    """A model whose forward sleeps: load builds queues even on a 1-core host."""

    def __init__(self, inner: Module, delay_s: float) -> None:
        super().__init__()
        self.inner = inner
        self.delay_s = delay_s

    def forward(self, x):
        time.sleep(self.delay_s)
        return self.inner(x)


@pytest.fixture
def recorder():
    """Install an enabled in-memory global recorder, restoring the old one after."""
    previous = get_recorder()
    installed = set_recorder(Recorder(enabled=True, run_id="serve-scaling-test"))
    yield installed
    set_recorder(previous)


# ------------------------------------------------------------------- serving tuner
class TestServingAutoTuner:
    def test_dead_band_keeps_grows_shrinks(self):
        tuner = ServingAutoTuner(learners_per_gpu=2, min_learners=1, max_learners=4)
        assert tuner.observe(1.0) is AutoTunerDecision.KEEP
        assert tuner.observe(1.04) is AutoTunerDecision.KEEP  # inside tolerance=0.05
        assert tuner.observe(2.0) is AutoTunerDecision.ADD_LEARNER
        assert tuner.workers == 3
        assert tuner.observe(0.2) is AutoTunerDecision.REMOVE_LEARNER
        assert tuner.workers == 2
        assert tuner.grow_count == 1 and tuner.shrink_count == 1

    def test_hysteresis_damps_the_shrink_side_only(self):
        damped = ServingAutoTuner(learners_per_gpu=2, hysteresis=0.3)
        assert damped.observe(0.8) is AutoTunerDecision.KEEP  # 0.8 > 1 - 0.35
        assert damped.observe(0.6) is AutoTunerDecision.REMOVE_LEARNER
        eager = ServingAutoTuner(learners_per_gpu=2, hysteresis=0.0)
        assert eager.observe(0.8) is AutoTunerDecision.REMOVE_LEARNER

    def test_bounds_are_respected(self):
        tuner = ServingAutoTuner(learners_per_gpu=2, min_learners=2, max_learners=2)
        assert tuner.observe(100.0) is AutoTunerDecision.KEEP
        assert tuner.observe(0.0) is AutoTunerDecision.KEEP
        assert tuner.resize_count == 0

    def test_disabled_tuner_never_moves(self):
        tuner = ServingAutoTuner(learners_per_gpu=3, enabled=False)
        assert tuner.observe(100.0) is AutoTunerDecision.KEEP
        assert tuner.workers == 3 and tuner.history == []

    def test_pressure_is_the_binding_ratio(self):
        tuner = ServingAutoTuner(target_queue_depth=4.0, target_miss_rate=0.01)
        depth_bound = {"queue_depth_p99": 8.0, "deadline_miss_rate": 0.0}
        miss_bound = {"queue_depth_p99": 0.0, "deadline_miss_rate": 0.05}
        assert tuner.pressure_from(depth_bound) == pytest.approx(2.0)
        assert tuner.pressure_from(miss_bound) == pytest.approx(5.0)
        assert tuner.observe_signal(depth_bound) is AutoTunerDecision.ADD_LEARNER

    def test_history_and_convergence_machinery_is_inherited(self):
        tuner = ServingAutoTuner(learners_per_gpu=1, max_learners=8)
        for pressure in (3.0, 1.0, 1.0, 1.0):
            tuner.observe(pressure)
        assert tuner.history[0] is AutoTunerDecision.ADD_LEARNER
        assert tuner.converged(stable_observations=3)

    def test_target_validation(self):
        with pytest.raises(ConfigurationError):
            ServingAutoTuner(target_queue_depth=0.0)
        with pytest.raises(ConfigurationError):
            ServingAutoTuner(target_miss_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ServingAutoTuner(hysteresis=-0.1)  # inherited check still runs


# ------------------------------------------------------------------- load signal
class TestLoadSignal:
    def test_pivots_snapshot_counters_per_run(self, tmp_path):
        with TelemetryStore(tmp_path / "signal.sqlite") as store:
            history = [("hot", 12.0, 100, 9), ("cool", 2.0, 50, 0)]
            for n, (run_id, p99, accepted, missed) in enumerate(history):
                store.record_run(run_id, started_at=1000.0 + n)
                store.insert_events(
                    run_id,
                    pid=1,
                    events=[
                        (0, "counter", "serve.queue_depth_p50", p99 / 2, 0.0, {}),
                        (1, "counter", "serve.queue_depth_p99", p99, 1.0, {}),
                        (2, "counter", "serve.accepted", float(accepted), 2.0, {}),
                        (3, "counter", "serve.deadline_missed", float(missed), 3.0, {}),
                    ],
                )
            # a run with no serving counters stays out of the signal entirely
            store.record_run("training-only", started_at=1002.0)
            store.insert_events(
                "training-only", pid=2, events=[(0, "counter", "sync.flip", 1.0, 0.0, {})]
            )
            rows = load_signal(store.connection(), last_n=2)
        assert rows == [
            {
                "run_id": "hot",
                "queue_depth_p50": 6.0,
                "queue_depth_p99": 12.0,
                "accepted": 100,
                "deadline_missed": 9,
                "deadline_miss_rate": 0.09,
                "rolling_queue_depth_p99": 12.0,
            },
            {
                "run_id": "cool",
                "queue_depth_p50": 1.0,
                "queue_depth_p99": 2.0,
                "accepted": 50,
                "deadline_missed": 0,
                "deadline_miss_rate": 0.0,
                "rolling_queue_depth_p99": 7.0,
            },
        ]

    def test_zero_accepted_reports_zero_miss_rate(self, tmp_path):
        with TelemetryStore(tmp_path / "empty.sqlite") as store:
            store.record_run("idle", started_at=1.0)
            store.insert_events(
                "idle",
                pid=1,
                events=[
                    (0, "counter", "serve.queue_depth_p99", 0.0, 0.0, {}),
                    (1, "counter", "serve.accepted", 0.0, 1.0, {}),
                ],
            )
            rows = load_signal(store.connection())
        assert rows[0]["deadline_miss_rate"] == 0.0
        assert rows[0]["deadline_missed"] == 0  # absent counter coalesces to zero

    def test_window_validation(self, tmp_path):
        with TelemetryStore(tmp_path / "w.sqlite") as store:
            with pytest.raises(ValueError, match="last_n"):
                load_signal(store.connection(), last_n=0)


# ------------------------------------------------------------------- inference pool
@needs_fork
class TestInferencePool:
    def test_roundtrip_matches_inline_forward(self):
        model = _model()
        rng = np.random.RandomState(7)
        batches = {t: rng.randn(3, INPUT_DIM).astype(np.float32) for t in range(6)}
        with InferencePool(model, sample_shape=(INPUT_DIM,), workers=2) as pool:
            for ticket, batch in batches.items():
                pool.publish(ticket, batch)
            got = {}
            while pool.in_flight:
                for ticket, logits, error in pool.collect(block=True):
                    assert error is None
                    got[ticket] = logits
        from repro.tensor.tensor import Tensor, no_grad

        reference = model.clone()
        reference.eval()
        with no_grad():
            for ticket, batch in batches.items():
                assert np.array_equal(got[ticket], reference(Tensor(batch)).data)

    def test_resize_in_place_never_respawns(self):
        model = _model()
        rng = np.random.RandomState(11)
        with InferencePool(model, sample_shape=(INPUT_DIM,), workers=1, max_workers=4) as pool:
            pids = sorted(p.pid for p in pool._processes())
            assert pool.active_workers == 1 and pool.num_workers == 4
            results = 0
            for round_no, target in enumerate((4, 2, 1, 3)):
                assert pool.resize(target) == target
                for n in range(6):
                    pool.publish(round_no * 10 + n, rng.randn(2, INPUT_DIM).astype(np.float32))
                while pool.in_flight:
                    for _, logits, error in pool.collect(block=True):
                        assert error is None and logits is not None
                        results += 1
                assert sorted(p.pid for p in pool._processes()) == pids  # no respawn
            assert results == 24

    def test_grow_cancels_pending_parks(self):
        model = _model()
        with InferencePool(model, sample_shape=(INPUT_DIM,), workers=4, max_workers=4) as pool:
            # shrink-then-grow before any worker had a chance to park: the
            # pending parks are cancelled and the ring keeps its full capacity
            pool.resize(1)
            pool.resize(4)
            rng = np.random.RandomState(3)
            for ticket in range(8):
                pool.publish(ticket, rng.randn(1, INPUT_DIM).astype(np.float32))
            seen = set()
            while pool.in_flight:
                for ticket, _, error in pool.collect(block=True):
                    assert error is None
                    seen.add(ticket)
            assert seen == set(range(8))

    def test_validation(self):
        model = _model()
        with pytest.raises(ConfigurationError):
            InferencePool(model, sample_shape=(INPUT_DIM,), workers=0)
        with pytest.raises(ConfigurationError):
            InferencePool(model, sample_shape=(INPUT_DIM,), workers=3, max_workers=2)
        with InferencePool(model, sample_shape=(INPUT_DIM,), workers=1, max_workers=2) as pool:
            with pytest.raises(ConfigurationError):
                pool.resize(0)
            with pytest.raises(ConfigurationError):
                pool.resize(3)  # max_workers is fixed at construction
            with pytest.raises(ConfigurationError):
                pool.publish(0, np.zeros((1, INPUT_DIM + 1), dtype=np.float32))
            with pytest.raises(ConfigurationError):
                pool.publish(0, np.zeros((pool.max_batch_samples + 1, INPUT_DIM), np.float32))

    def test_worker_error_is_returned_not_raised(self):
        model = _model()
        with InferencePool(
            model, sample_shape=(INPUT_DIM,), workers=1, max_batch_samples=4
        ) as pool:
            batch = np.full((2, INPUT_DIM), np.nan, dtype=np.float32)
            batch[0, 0] = np.inf
            pool.publish(0, batch)  # NaNs forward fine: no error expected
            (ticket, logits, error) = pool.collect(block=True)[0]
            assert ticket == 0 and error is None and logits is not None

    def test_blocking_collect_sees_a_killed_worker_at_once(self):
        """The result wait watches the worker's sentinel, not a 1 s poll."""
        model = _SlowModel(_model(), delay_s=30.0)
        with InferencePool(model, sample_shape=(INPUT_DIM,), workers=1) as pool:
            pool.publish(0, np.zeros((1, INPUT_DIM), dtype=np.float32))
            (worker,) = pool._processes()
            killed_at = []

            def kill() -> None:
                killed_at.append(time.monotonic())
                worker.kill()  # SIGKILL, mid-forward

            timer = threading.Timer(0.2, kill)
            timer.start()
            with pytest.raises(SchedulingError, match="died"):
                pool.collect(block=True)
            raised_at = time.monotonic()
            timer.join()
        assert raised_at - killed_at[0] < 0.5

    def test_wait_takes_a_descriptor_select_cannot_hold(self):
        """A caller fd at or past FD_SETSIZE (1 024) is waited on all the same."""
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= 1100:
            pytest.skip("the open-files limit keeps descriptors below 1 100")
        read_end, write_end = os.pipe()
        high = fcntl.fcntl(read_end, fcntl.F_DUPFD, 1100)  # lowest free fd >= 1100
        try:
            with InferencePool(_model(), sample_shape=(INPUT_DIM,), workers=1) as pool:
                assert pool.wait(0.0, fds=(high,)) == (False, False, [])
                os.write(write_end, b"\0")
                assert pool.wait(5.0, fds=(high,)).fds == [high]
                os.read(read_end, 1)
                pool.publish(0, np.zeros((1, INPUT_DIM), dtype=np.float32))
                assert pool.wait(5.0, fds=(high,)) == (True, False, [])
                assert pool.collect()[0][0] == 0
        finally:
            for fd in (high, read_end, write_end):
                os.close(fd)


# ------------------------------------------------------------------- pooled server
@needs_fork
class TestPooledInferenceServer:
    def test_single_worker_bit_identical_to_in_process(self):
        model = _model()
        rng = np.random.RandomState(5)
        requests = [rng.randn(2, INPUT_DIM).astype(np.float32) for _ in range(12)]
        reference = InferenceServer(model, max_batch_size=1, max_latency_ms=0.1)
        reference.start()
        expected = [reference.predict(x) for x in requests]
        reference.stop()
        with PooledInferenceServer(
            model, sample_shape=(INPUT_DIM,), workers=1, max_batch_size=1, max_latency_ms=0.1
        ) as server:
            actual = [server.predict(x) for x in requests]
            server.stop()
        assert all(np.array_equal(a, b) for a, b in zip(expected, actual))
        assert server.stats.requests == len(requests)

    def test_conservation_and_exactly_once_across_resizes(self):
        model = _model()
        rng = np.random.RandomState(13)
        with PooledInferenceServer(
            model,
            sample_shape=(INPUT_DIM,),
            workers=2,
            max_workers=4,
            max_batch_size=8,
            max_latency_ms=0.5,
        ) as server:
            futures = []
            for index in range(48):
                futures.append(server.submit(rng.randn(1, INPUT_DIM).astype(np.float32)))
                if index == 12:
                    assert server.resize_workers(4) == 4
                if index == 30:
                    assert server.resize_workers(1) == 1
            results = [future.result(timeout=30.0) for future in futures]
            server.stop()
        assert len(results) == 48 and all(r.shape == (1, 4) for r in results)
        counters = server.counters
        assert counters.offered == counters.accepted + counters.rejected == 48
        assert counters.accepted == (
            server.stats.requests + counters.shed + counters.deadline_missed
        )
        assert server._inflight == {}  # every ticket resolved exactly once
        assert server.recoveries == 0

    def test_worker_killed_mid_scale_recovers_exactly_once(self, monkeypatch):
        """Kill the whole pool mid-scale under the shm sanitizer.

        The serving loop must notice the dead workers, rebuild the pool at the
        post-resize width, re-publish the unresolved tickets and still resolve
        every future exactly once.
        """
        monkeypatch.setenv("REPRO_SHM_SANITIZE", "1")
        model = _model()
        rng = np.random.RandomState(17)
        with PooledInferenceServer(
            model,
            sample_shape=(INPUT_DIM,),
            workers=2,
            max_workers=3,
            max_batch_size=4,
            max_latency_ms=0.5,
        ) as server:
            futures = [
                server.submit(rng.randn(1, INPUT_DIM).astype(np.float32)) for _ in range(6)
            ]
            for victim in server._pool._processes():
                victim.terminate()
                victim.join(timeout=10.0)
            assert server.resize_workers(3) == 3  # mid-scale: resize the dead pool
            futures += [
                server.submit(rng.randn(1, INPUT_DIM).astype(np.float32)) for _ in range(6)
            ]
            results = [future.result(timeout=60.0) for future in futures]
            server.stop()
        assert len(results) == 12 and all(r.shape == (1, 4) for r in results)
        assert server.recoveries >= 1
        assert server.workers == 3  # the rebuilt pool kept the resized width
        assert server._inflight == {}
        counters = server.counters
        assert counters.offered == counters.accepted + counters.rejected == 12
        assert counters.accepted == (
            server.stats.requests + counters.shed + counters.deadline_missed
        )

    def test_closed_loop_never_collects_an_empty_pipe(self, monkeypatch, recorder):
        """64 requests stay in flight until 2 000 complete.  The loop collects
        only when a response is readable, so no collect comes back empty and
        there are no more collects than publishes; the loop's idle waits are
        mostly ended by a result, and every wait has exactly one cause."""
        calls = collections.Counter()
        collect, publish = InferencePool.collect, InferencePool.publish

        def counted_collect(pool, block=False):
            payloads = collect(pool, block=block)
            calls["collect"] += 1
            calls["empty"] += not payloads
            return payloads

        def counted_publish(pool, ticket, images):
            calls["publish"] += 1
            publish(pool, ticket, images)

        monkeypatch.setattr(InferencePool, "collect", counted_collect)
        monkeypatch.setattr(InferencePool, "publish", counted_publish)
        samples = np.random.RandomState(23).randn(64, INPUT_DIM).astype(np.float32)
        target, in_flight = 2000, 64
        lock = threading.Lock()
        sent = [0]
        resolutions = collections.Counter()
        errors = []
        finished = threading.Event()
        server = PooledInferenceServer(
            _model(), sample_shape=(INPUT_DIM,), workers=1, max_batch_size=32
        )
        wait = server._wait_for_work

        def counted_wait(wake_at, now):
            calls["turns"] += 1
            return wait(wake_at, now)

        server._wait_for_work = counted_wait

        def send() -> None:
            with lock:
                if sent[0] == target:
                    return
                index = sent[0]
                sent[0] += 1
            future = server.submit(samples[index % 64 : index % 64 + 1])
            future.add_done_callback(functools.partial(on_done, index))

        def on_done(index, future) -> None:
            if future.exception() is not None:
                errors.append(repr(future.exception()))
            with lock:
                resolutions[index] += 1
                if len(resolutions) == target:
                    finished.set()
            send()

        try:
            server.start()
            for _ in range(in_flight):
                send()
            assert finished.wait(timeout=60.0), f"{len(resolutions)} of {target} resolved"
            server.stop()
        finally:
            server.close()
        assert errors == []
        assert sorted(resolutions) == list(range(target))
        assert set(resolutions.values()) == {1}  # exactly once
        assert server._inflight == {}
        counters = server.counters
        assert counters.offered == counters.accepted + counters.rejected == target
        assert counters.accepted == (
            server.stats.requests + counters.shed + counters.deadline_missed
        )
        assert calls["empty"] == 0
        assert 0 < calls["collect"] <= calls["publish"]
        wakeups = server.wakeups
        assert sum(wakeups.values()) == calls["turns"]
        assert wakeups["result"] > calls["turns"] / 2, wakeups
        snapshot = {
            labels["cause"]: value
            for _, kind, name, value, _, labels in recorder.drain()
            if name == "serve.wakeups"
        }
        assert snapshot == {cause: float(count) for cause, count in wakeups.items()}

    def test_killed_pool_wakes_the_loop_with_no_new_submit(self):
        """Every worker is killed with tickets in flight and nothing more is
        submitted: only the workers' sentinels can wake the loop, and every
        future still resolves exactly once through the recovery."""
        model = _SlowModel(_model(), delay_s=0.2)
        rng = np.random.RandomState(29)
        with PooledInferenceServer(
            model,
            sample_shape=(INPUT_DIM,),
            workers=2,
            max_batch_size=1,
            max_latency_ms=0.5,
        ) as server:
            futures = [
                server.submit(rng.randn(1, INPUT_DIM).astype(np.float32)) for _ in range(4)
            ]
            deadline = time.monotonic() + 10.0
            while len(server._inflight) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # both workers are now inside a forward
            for victim in server._pool._processes():
                victim.kill()
            results = [future.result(timeout=30.0) for future in futures]
            server.stop()
        assert all(r.shape == (1, 4) for r in results)
        assert server.recoveries >= 1
        assert server.wakeups["worker_exit"] >= 1
        assert server._inflight == {}
        assert server.stats.requests == 4
        counters = server.counters
        assert counters.offered == counters.accepted == 4

    def test_backlog_does_not_hold_responses_back(self, monkeypatch):
        """Under a backlog the loop never idles; a readable response is still
        resolved before the next publish, not after the queue empties."""
        published = [0]
        publish = InferencePool.publish

        def counted_publish(pool, ticket, images):
            published[0] += 1
            publish(pool, ticket, images)

        monkeypatch.setattr(InferencePool, "publish", counted_publish)
        model = _SlowModel(_model(), delay_s=0.01)
        rng = np.random.RandomState(31)
        first_resolved_after = []
        with PooledInferenceServer(
            model, sample_shape=(INPUT_DIM,), workers=1, max_batch_size=1
        ) as server:
            futures = [
                server.submit(rng.randn(1, INPUT_DIM).astype(np.float32)) for _ in range(30)
            ]
            futures[0].add_done_callback(lambda _: first_resolved_after.append(published[0]))
            for future in futures:
                future.result(timeout=30.0)
            server.stop()
        assert first_resolved_after[0] < 15, first_resolved_after

    def test_oversized_single_request_falls_back_in_process(self):
        model = _model()
        with PooledInferenceServer(
            model, sample_shape=(INPUT_DIM,), workers=1, max_batch_size=2
        ) as server:
            big = np.random.RandomState(19).randn(5, INPUT_DIM).astype(np.float32)
            result = server.predict(big)
            server.stop()
        assert result.shape == (5, 4)


# -------------------------------------------------------- the closed control loop
@needs_fork
class TestAutoscalingLoop:
    def test_flash_crowd_grows_slow_drain_shrinks(self, recorder, tmp_path):
        """The full signal path: replay → counters snapshot → store →
        ``load_signal`` → tuner → in-place pool resize."""
        # ~10 ms per batch of <=2: the 250 rps burst genuinely exceeds one
        # worker's capacity (queues build), while the drain tail does not
        model = _SlowModel(_model(), delay_s=0.01)
        runner = ScenarioRunner()
        images = np.random.RandomState(1).normal(size=(1, INPUT_DIM)).astype(np.float32)
        tuner = ServingAutoTuner(
            learners_per_gpu=1,
            min_learners=1,
            max_learners=2,
            target_queue_depth=4.0,
            target_miss_rate=0.05,
        )
        with TelemetryStore(tmp_path / "loop.sqlite") as store, PooledInferenceServer(
            model,
            sample_shape=(INPUT_DIM,),
            workers=1,
            max_workers=2,
            max_batch_size=2,
            max_latency_ms=1.0,
        ) as server:
            conn = store.connection()
            flash = FlashCrowdTrace(
                duration_s=1.2,
                base_rate=20.0,
                burst_rate=250.0,
                burst_start_s=0.2,
                burst_duration_s=0.5,
            )
            flash_row = runner.replay_live(
                flash, server, images_for=lambda samples: images, seed=7
            )
            server.stop()  # snapshots ServeCounters into the recorder
            store.drain(recorder, run_id="flash-a")
            assert autoscale_step(server, tuner, conn) is AutoTunerDecision.ADD_LEARNER
            assert server.workers == 2 and tuner.workers == 2

            server.counters = ServeCounters()  # fresh observation window
            drain = SlowDrainTrace(duration_s=1.0, start_rate=10.0, end_rate=1.0)
            server.start()
            drain_row = runner.replay_live(
                drain, server, images_for=lambda samples: images, seed=7
            )
            server.stop()
            store.drain(recorder, run_id="drain-b")
            assert autoscale_step(server, tuner, conn) is AutoTunerDecision.REMOVE_LEARNER
            assert server.workers == 1 and tuner.workers == 1

            rows = load_signal(conn)
        assert [row["run_id"] for row in rows] == ["flash-a", "drain-b"]
        assert rows[0]["queue_depth_p99"] > rows[1]["queue_depth_p99"]
        assert tuner.history == [
            AutoTunerDecision.ADD_LEARNER,
            AutoTunerDecision.REMOVE_LEARNER,
        ]
        # conservation held through both replays (replay_live asserts it too)
        for row in (flash_row, drain_row):
            assert row["served"] + row["refused"] == row["offered"]

    def test_autoscale_step_keeps_on_empty_store(self, tmp_path):
        with TelemetryStore(tmp_path / "empty.sqlite") as store, PooledInferenceServer(
            _model(), sample_shape=(INPUT_DIM,), workers=1
        ) as server:
            tuner = ServingAutoTuner()
            decision = autoscale_step(server, tuner, store.connection())
        assert decision is AutoTunerDecision.KEEP and server.workers == 1

    def test_slo_verdict_flips_after_scaling(self):
        """Scaling is visible at the SLO layer: the same flash crowd fails p99
        with one worker and passes with four (sleep-bound, so the win does not
        need four physical cores)."""
        model = _SlowModel(_model(), delay_s=0.015)
        images = np.random.RandomState(1).normal(size=(1, INPUT_DIM)).astype(np.float32)
        slo = SLOSpec(name="latency", p99_latency_ms=450.0)
        runner = ScenarioRunner(slo=slo)
        trace = FlashCrowdTrace(
            duration_s=1.0,
            base_rate=10.0,
            burst_rate=120.0,
            burst_start_s=0.2,
            burst_duration_s=0.5,
        )
        with PooledInferenceServer(
            model,
            sample_shape=(INPUT_DIM,),
            workers=1,
            max_workers=4,
            max_batch_size=1,  # no coalescing: capacity comes from workers alone
            max_latency_ms=0.5,
        ) as server:
            overloaded = runner.replay_live(
                trace, server, images_for=lambda samples: images, seed=3
            )
            server.stop()
            assert overloaded["slo"] == "fail"
            server.resize_workers(4)
            server.counters = ServeCounters()  # fresh accounting window
            server.stats.latencies_ms.clear()  # fresh SLO window
            server.start()
            scaled = runner.replay_live(
                trace, server, images_for=lambda samples: images, seed=3
            )
            server.stop()
        assert scaled["slo"] == "pass"
        assert scaled["served"] == scaled["offered"]
