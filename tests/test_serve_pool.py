"""Tests for the scaled serving plane: evaluator pool and admission control.

Covers the three PR-5 guarantees: (1) pooled evaluation is bit-identical to
inline evaluation for any worker count (N=1 and N=4 asserted through full
training runs), (2) the shared-memory slot-ring claim protocol delivers every
published checkpoint to exactly one worker, untorn, even when the ring is
much smaller than the submission burst, and (3) the inference server's
admission policies shed load the way they advertise under a synthetic burst.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer, process_execution_supported
from repro.errors import AdmissionError, ConfigurationError, SchedulingError
from repro.nn import Linear, Module
from repro.nn.metrics import evaluate_top1
from repro.serve import (
    Checkpoint,
    CheckpointStore,
    EvaluationService,
    EvaluatorPool,
    InferenceServer,
)
from repro.serve.pool import _SLOT_EMPTY
from repro.utils.rng import RandomState

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)

_DATASET = {"num_train": 256, "num_test": 128, "noise_scale": 2.5}


def _config(**overrides):
    defaults = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=2,
        max_epochs=3,
        dataset_overrides=dict(_DATASET),
        seed=7,
    )
    defaults.update(overrides)
    return CrossbowConfig(**defaults)


def _perturbed_checkpoints(trainer, count, scale=0.05, seed=13):
    base = trainer.initial_model.parameter_vector()
    rng = np.random.default_rng(seed)
    return [
        Checkpoint(
            parameters=base + rng.normal(scale=scale, size=base.shape).astype(np.float32),
            buffers={},
            epoch=index,
        )
        for index in range(count)
    ]


def _inline_accuracies(trainer, checkpoints, batch_size=256):
    model = trainer.initial_model.clone()
    return [
        evaluate_top1(
            checkpoint.apply_to(model),
            trainer.pipeline.test_batches(batch_size=batch_size),
        )
        for checkpoint in checkpoints
    ]


def _conv_config(model_name, model_overrides):
    return CrossbowConfig(
        model_name=model_name,
        dataset_name="cifar10-scaled",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=1,
        max_epochs=1,
        dataset_overrides={"num_train": 64, "num_test": 64},
        model_overrides=model_overrides,
        seed=3,
    )


def _conv_checkpoints(model, count, scale=0.1, seed=21):
    """Perturbed conv checkpoints with distinct, valid BN running statistics."""
    base = model.parameter_vector()
    rng = np.random.default_rng(seed)
    checkpoints = []
    for index in range(count):
        buffers = {}
        for name, buf in model.named_buffers():
            if name.endswith("running_var"):
                buffers[name] = (1.0 + rng.uniform(0.0, 0.5, size=buf.shape)).astype(
                    np.float32
                )
            else:
                buffers[name] = rng.normal(scale=0.1, size=buf.shape).astype(np.float32)
        checkpoints.append(
            Checkpoint(
                parameters=base
                + rng.normal(scale=scale, size=base.shape).astype(np.float32),
                buffers=buffers,
                epoch=index,
            )
        )
    return checkpoints


# ------------------------------------------------------------------- evaluator pool
@needs_fork
class TestEvaluatorPool:
    def test_claim_exclusivity_under_contention(self):
        """16 checkpoints through 4 workers over a 2-slot ring: every ticket is
        resolved exactly once with the accuracy of exactly its checkpoint."""
        trainer = CrossbowTrainer(_config(max_epochs=1))
        try:
            checkpoints = _perturbed_checkpoints(trainer, 16, scale=0.15)
            inline = _inline_accuracies(trainer, checkpoints)
            with EvaluatorPool(
                trainer.initial_model, trainer.pipeline, workers=4, num_slots=2
            ) as pool:
                for ticket, checkpoint in enumerate(checkpoints):
                    pool.submit(ticket, checkpoint)
                resolved = pool.drain()
                # The ring never tears a slot: every published vector was
                # claimed whole by one worker, so each ticket's accuracy is
                # its own checkpoint's inline accuracy — double-claims or
                # parent overwrites of a READY slot would break the pairing.
                assert sorted(ticket for ticket, _ in resolved) == list(range(16))
                assert dict(resolved) == dict(enumerate(inline))
                assert pool.in_flight == 0
                # Post-drain the ring is fully recycled.
                # repro: waive[R1] - pool drained and quiesced; no worker
                # or publisher can race this read-only assertion
                assert (pool._meta.array[:, 0] == _SLOT_EMPTY).all()
        finally:
            trainer.close()

    def test_single_worker_matches_multi_worker(self):
        trainer = CrossbowTrainer(_config(max_epochs=1))
        try:
            checkpoints = _perturbed_checkpoints(trainer, 5)
            with EvaluatorPool(trainer.initial_model, trainer.pipeline, workers=1) as one:
                single = one.evaluate(checkpoints)
            with EvaluatorPool(trainer.initial_model, trainer.pipeline, workers=4) as four:
                multi = four.evaluate(checkpoints)
            assert single == multi == _inline_accuracies(trainer, checkpoints)
        finally:
            trainer.close()

    def test_failed_submit_rolls_back_its_slot_reservation(self):
        """A bad checkpoint must not shrink the ring: slot and free-semaphore
        permit are both returned, so the pool stays fully usable."""

        class _BufferedMLP(Module):
            def __init__(self):
                super().__init__()
                self.head = Linear(8, 4, rng=RandomState(0))
                self.register_buffer("calibration", np.zeros(4, dtype=np.float32))

            def forward(self, x):
                return self.head(x)

        trainer = CrossbowTrainer(_config(max_epochs=1))
        model = _BufferedMLP()
        try:
            with EvaluatorPool(model, trainer.pipeline, workers=1, num_slots=2) as pool:
                good = Checkpoint.from_model(model)
                torn = Checkpoint(
                    parameters=good.parameters,
                    buffers={"calibration": np.zeros(7, dtype=np.float32)},
                )
                # More failures than slots: a leak would wedge the third one.
                for _ in range(3):
                    with pytest.raises(ValueError):
                        pool.submit(0, torn)
                with pytest.raises(ConfigurationError, match="missing buffer"):
                    pool.submit(0, Checkpoint(parameters=good.parameters, buffers={}))
                assert pool.in_flight == 0
                # repro: waive[R1] - pool drained and quiesced; no worker
                # or publisher can race this read-only assertion
                assert (pool._meta.array[:, 0] == _SLOT_EMPTY).all()
        finally:
            trainer.close()

    def test_worker_failure_keeps_pool_consistent(self):
        """One poisoned checkpoint fails loudly without losing the results
        dequeued alongside it or wedging later collects."""
        trainer = CrossbowTrainer(_config(max_epochs=1))
        width = int(trainer.dataset.test_images.reshape(
            trainer.dataset.test_images.shape[0], -1
        ).shape[1])

        class _FussyMLP(Module):
            def __init__(self):
                super().__init__()
                self.head = Linear(width, 4, rng=RandomState(0))

            def forward(self, x):
                if float(self.head.bias.data[0]) > 100.0:
                    raise ValueError("poisoned checkpoint")
                return self.head(x.reshape(x.shape[0], -1))

        model = _FussyMLP()
        good = Checkpoint.from_model(model)
        poisoned = Checkpoint(parameters=good.parameters.copy(), buffers={})
        poisoned.parameters[4 * width] = 1000.0  # bias[0]: trips the forward
        try:
            with EvaluatorPool(model, trainer.pipeline, workers=1) as pool:
                pool.submit(0, good)
                pool.submit(1, poisoned)
                pool.submit(2, good)
                with pytest.raises(SchedulingError, match="poisoned checkpoint"):
                    pool.drain()
                # The failure consumed ticket 1's in-flight entry; tickets 0
                # and 2 are still delivered (0 was dequeued before the error).
                remaining = dict(pool.drain())
                assert set(remaining) == {0, 2}
                assert remaining[0] == remaining[2]
                assert pool.in_flight == 0 and pool.undelivered == 0
                # The worker survived the bad checkpoint: the pool still serves.
                assert pool.evaluate([good]) == [remaining[0]]
        finally:
            trainer.close()

    @pytest.mark.parametrize(
        "model_name,model_overrides",
        [
            ("resnet32-scaled", {"width_multiplier": 0.25, "blocks_per_stage": 1}),
            ("vgg16-scaled", {"width_multiplier": 0.0625}),
        ],
    )
    def test_conv_checkpoints_match_inline(self, model_name, model_overrides):
        """ResNet/VGG checkpoints evaluate in the workers with their own BN
        running statistics: accuracies equal inline evaluate_top1."""
        trainer = CrossbowTrainer(_conv_config(model_name, model_overrides))
        try:
            checkpoints = _conv_checkpoints(trainer.initial_model, 3)
            with EvaluatorPool(
                trainer.initial_model, trainer.pipeline, workers=2, batch_size=32
            ) as pool:
                pooled = pool.evaluate(checkpoints)
            assert pooled == _inline_accuracies(trainer, checkpoints, batch_size=32)
            # The accuracies differ across checkpoints (each carries its own
            # BN statistics), so a shared-statistics bug cannot hide.
            assert len(set(pooled)) > 1
        finally:
            trainer.close()

    def test_submit_validation(self):
        trainer = CrossbowTrainer(_config(max_epochs=1))
        try:
            with pytest.raises(ConfigurationError):
                EvaluatorPool(trainer.initial_model, trainer.pipeline, workers=0)
            with pytest.raises(ConfigurationError):
                EvaluatorPool(trainer.initial_model, trainer.pipeline, num_slots=0)
            pool = EvaluatorPool(trainer.initial_model, trainer.pipeline, workers=1)
            wrong = Checkpoint(parameters=np.zeros(3, dtype=np.float32), buffers={})
            with pytest.raises(ConfigurationError, match="parameters"):
                pool.submit(0, wrong)
            pool.close()
            with pytest.raises(ConfigurationError, match="stopped"):
                pool.submit(0, _perturbed_checkpoints(trainer, 1)[0])
        finally:
            trainer.close()


# ------------------------------------------------- service over the pool (N workers)
class TestPooledEvaluationService:
    def _run_inline(self, **overrides):
        trainer = CrossbowTrainer(_config(**overrides))
        try:
            result = trainer.train()
            return [r.test_accuracy for r in result.metrics.records]
        finally:
            trainer.close()

    def _run_with_workers(self, workers, **overrides):
        trainer = CrossbowTrainer(_config(**overrides))
        service = EvaluationService(execution="process", workers=workers)
        trainer.attach_evaluation_service(service)
        try:
            result = trainer.train()
            assert not result.metrics.has_pending()
            return [r.test_accuracy for r in result.metrics.records]
        finally:
            service.close()
            trainer.close()

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 4])
    def test_drained_accuracies_bit_identical_to_inline(self, workers):
        inline = self._run_inline()
        assert any(0.0 < acc < 1.0 for acc in inline)  # non-trivial comparison
        assert self._run_with_workers(workers) == inline

    @needs_fork
    def test_backpressure_bounded_slots(self):
        """More submissions than slots: submit blocks, never drops or reorders."""
        trainer = CrossbowTrainer(_config(max_epochs=1))
        service = EvaluationService(execution="process", workers=2, num_slots=1)
        service.bind(trainer.initial_model, trainer.pipeline)
        try:
            checkpoints = _perturbed_checkpoints(trainer, 6)
            tickets = [service.submit(c, epoch=i) for i, c in enumerate(checkpoints)]
            resolved = service.drain()
            assert sorted(resolved) == tickets
            assert [resolved[t] for t in tickets] == _inline_accuracies(
                trainer, checkpoints
            )
        finally:
            service.close()
            trainer.close()

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            EvaluationService(execution="serial", workers=2)
        with pytest.raises(ConfigurationError):
            EvaluationService(execution="process", workers=0)

    @needs_fork
    def test_dead_pool_with_outstanding_tickets_fails_loudly(self):
        """Losing the pool mid-flight surfaces as an error, not a wedged drain."""
        trainer = CrossbowTrainer(_config(max_epochs=1))
        service = EvaluationService(execution="process", workers=1)
        service.bind(trainer.initial_model, trainer.pipeline)
        try:
            checkpoints = _perturbed_checkpoints(trainer, 2)
            service.submit(checkpoints[0], epoch=0)
            for process in service._pool._processes():
                process.terminate()
                process.join(timeout=10.0)
            with pytest.raises(SchedulingError, match="unresolved"):
                service.submit(checkpoints[1], epoch=1)
            # The service recovered: queue cleared, a fresh pool serves again.
            ticket = service.submit(checkpoints[1], epoch=1)
            assert service.drain()[ticket] == _inline_accuracies(
                trainer, checkpoints[1:]
            )[0]
        finally:
            service.close()
            trainer.close()


# ---------------------------------------------------------------- admission control
class _SlowMLP(Module):
    """A one-layer model whose forward sleeps: a controllable serving stall."""

    def __init__(self, delay_s: float = 0.05, width: int = 8) -> None:
        super().__init__()
        self.delay_s = delay_s
        self.head = Linear(width, 4, rng=RandomState(3))

    def forward(self, x):
        time.sleep(self.delay_s)
        return self.head(x)


class TestAdmissionControl:
    def _images(self, n=1, seed=0):
        return RandomState(seed).normal(size=(n, 8)).astype(np.float32)

    def _burst(self, server, count, deadline_ms=None):
        """One request to occupy the loop, then a burst while it sleeps."""
        first = server.submit(self._images())
        time.sleep(0.02)  # the loop is now inside the slow forward
        futures = [
            server.submit(self._images(seed=i + 1), deadline_ms=deadline_ms)
            for i in range(count)
        ]
        return first, futures

    def test_validation(self):
        model = _SlowMLP()
        with pytest.raises(ConfigurationError, match="admission_policy"):
            InferenceServer(model, admission_policy="drop-newest")
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            InferenceServer(model, admission_policy="reject")
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            InferenceServer(model, admission_policy="shed-oldest", max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="default_deadline_ms"):
            InferenceServer(model, default_deadline_ms=0)

    def test_reject_fails_new_requests_at_full_queue(self):
        server = InferenceServer(
            _SlowMLP(),
            max_batch_size=1,
            max_latency_ms=0.0,
            admission_policy="reject",
            max_queue_depth=2,
        )
        with server:
            first, futures = self._burst(server, 6)
            outcomes = []
            for future in [first, *futures]:
                try:
                    future.result(timeout=30.0)
                    outcomes.append("served")
                except AdmissionError:
                    outcomes.append("rejected")
        counters = server.counters.summary()
        assert counters["rejected"] == outcomes.count("rejected") > 0
        assert counters["accepted"] == outcomes.count("served")
        assert counters["shed"] == 0
        # Rejection is fail-fast at the front door: the earliest burst
        # requests got the queue slots, the overflow failed.
        assert "rejected" not in outcomes[: 1 + 2]

    def test_shed_oldest_prefers_fresh_requests(self):
        server = InferenceServer(
            _SlowMLP(),
            max_batch_size=1,
            max_latency_ms=0.0,
            admission_policy="shed-oldest",
            max_queue_depth=2,
        )
        with server:
            first, futures = self._burst(server, 6)
            first.result(timeout=30.0)
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=30.0)
                    outcomes.append("served")
                except AdmissionError:
                    outcomes.append("shed")
        counters = server.counters.summary()
        assert counters["shed"] == outcomes.count("shed") > 0
        # Freshest-first: every shed request is older than every served one.
        assert outcomes == sorted(outcomes, key=lambda o: o == "served")
        assert outcomes[-1] == "served"

    def test_deadline_missed_requests_are_dropped(self):
        server = InferenceServer(_SlowMLP(delay_s=0.08), max_batch_size=1, max_latency_ms=0.0)
        with server:
            first, futures = self._burst(server, 3, deadline_ms=10.0)
            first.result(timeout=30.0)
            for future in futures:
                with pytest.raises(AdmissionError, match="deadline"):
                    future.result(timeout=30.0)
            # A fresh request with budget to spare is served normally.
            assert server.predict(self._images(), deadline_ms=5000.0).shape == (1, 4)
        assert server.counters.summary()["deadline_missed"] == 3

    def test_degrade_serves_everything_without_hot_swap(self):
        model = _SlowMLP()
        store = CheckpointStore(capacity=4)
        store.publish(Checkpoint.from_model(model))
        server = InferenceServer(
            model,
            store=store,
            max_batch_size=1,
            max_latency_ms=50.0,
            admission_policy="degrade",
            max_queue_depth=2,
        )
        with server:
            first, futures = self._burst(server, 6)
            # Publish mid-burst: degraded batches must NOT pick it up.
            updated = model.clone()
            for param in updated.parameters():
                param.data[...] += 1.0
            store.publish(Checkpoint.from_model(updated))
            results = [f.result(timeout=30.0) for f in [first, *futures]]
            # Everything was admitted and served — degrade never drops.
            assert len(results) == 7
            counters = server.counters.summary()
            assert counters["degraded_batches"] > 0
            assert counters["rejected"] == counters["shed"] == 0
            # Once the backlog clears, the next batch hot-swaps as usual.
            server.predict(self._images(), timeout=30.0)
            assert server.served_version == 1
        assert server.stats.hot_swaps >= 1

    def test_queue_depth_percentiles_reported(self):
        server = InferenceServer(_SlowMLP(delay_s=0.02), max_batch_size=4)
        with server:
            futures = [server.submit(self._images(seed=i)) for i in range(8)]
            [f.result(timeout=30.0) for f in futures]
        summary = server.counters.summary()
        assert summary["accepted"] == 8
        assert summary["queue_depth_p99"] >= summary["queue_depth_p50"] >= 1.0
