"""Serving-plane benchmark: micro-batched inference, off-path and pooled evaluation.

Four measurements of the `repro.serve` subsystem:

* **Micro-batching** — a closed-loop load generator (many client threads,
  single-sample requests) drives the :class:`~repro.serve.inference.InferenceServer`
  once with ``max_batch_size=1`` (no coalescing — the baseline every naive
  model server starts from) and once with micro-batching enabled.  Coalescing
  amortises the per-forward-pass Python/framework overhead across requests,
  the serving-side dual of the paper's "small batches waste hardware"
  observation; the run asserts ≥ 2x request throughput at bounded p99.

* **Off-path evaluation** — a k=8 training run with an attached
  :class:`~repro.serve.evaluation.EvaluationService` must spend about the
  same time in the training loop as a run that never evaluates
  (``evaluate_every_epochs=0``), because snapshots are published and
  evaluated off the critical path — while, after the ``drain()`` barrier,
  reporting accuracies bit-identical to inline evaluation.

* **Evaluator-pool scaling** — the same batch of checkpoints evaluated
  through an :class:`~repro.serve.pool.EvaluatorPool` with 1 worker (the
  PR-3 single forked evaluator) and with 4 workers sharing the slot ring;
  on a ≥ 4-core host the 4-worker pool must deliver ≥ 2x evaluation
  throughput, and accuracies are asserted bit-identical to inline either way.

* **Inference-pool scaling** — the same stream of request batches pushed
  through an :class:`~repro.serve.scaling.InferencePool` with 1 active
  worker and with 4 workers claiming from the shared request slot ring; on
  a ≥ 4-core host the 4-worker pool must deliver ≥ 2x sample throughput,
  and the logits are asserted bit-identical to an inline forward either way
  (concurrency reorders completions, never a result).

Run under pytest for CSV reporting, or standalone for the CI smoke check:

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.engine import CrossbowConfig, CrossbowTrainer, process_execution_supported
from repro.models import create_model
from repro.nn.metrics import evaluate_top1
from repro.tensor.tensor import Tensor, no_grad
from repro.serve import (
    Checkpoint,
    EvaluationService,
    EvaluatorPool,
    InferencePool,
    InferenceServer,
)
from repro.utils.rng import RandomState

# Serving model: heavy enough that the forward pass dominates the fixed
# per-request cost (queue hop, future resolution) — the regime where
# coalescing pays, as it does for any real model.
SERVE_INPUT_DIM = 256
SERVE_HIDDEN = (1024, 1024, 512)
NUM_CLASSES = 10
NUM_CLIENTS = 32
REQUESTS_PER_CLIENT = 16  # 512 requests total in the full run
SMOKE_REQUESTS_PER_CLIENT = 4  # ~128 requests for --smoke
MAX_LATENCY_MS = 1.0
MICRO_BATCH = 32
TARGET_SPEEDUP = 2.0
P99_BOUND_MS = 500.0

# Training workload for the off-path evaluation comparison (k=8 learners).
TRAIN_INPUT_DIM = 128
TRAIN_HIDDEN = (256, 256)
TRAIN_LEARNERS = 8
TRAIN_EPOCHS = 3
TRAIN_DATASET = {
    "num_train": 2048,
    "num_test": 2048,
    "input_dim": TRAIN_INPUT_DIM,
    # keep accuracies off the 100% ceiling so the bit-identical comparison
    # between inline and drained off-path accuracies is non-trivial
    "noise_scale": 8.0,
}
MIN_CORES_FOR_ASSERT = 4  # off-path evaluation needs a spare core to overlap
LOOP_OVERHEAD_TOLERANCE = 1.25  # "within noise" bound vs the no-eval loop


def _model():
    return create_model(
        "mlp",
        rng=RandomState(3),
        input_dim=SERVE_INPUT_DIM,
        num_classes=NUM_CLASSES,
        hidden_sizes=SERVE_HIDDEN,
    )


def _strict() -> bool:
    return os.environ.get("BENCH_STRICT", "1") != "0"


# ----------------------------------------------------------------- micro-batching load
def serve_workload(
    max_batch_size: int,
    requests_per_client: int = REQUESTS_PER_CLIENT,
    num_clients: int = NUM_CLIENTS,
) -> Dict[str, float]:
    """Closed-loop load test: every client thread sends single-sample requests."""
    model = _model()
    samples = RandomState(11).normal(size=(num_clients, 1, 1, 1, SERVE_INPUT_DIM)).astype(
        np.float32
    )
    errors: List[BaseException] = []
    server = InferenceServer(
        model, max_batch_size=max_batch_size, max_latency_ms=MAX_LATENCY_MS
    )
    # The clients start together: started one by one, the first ~10 batches
    # of the batched arm ramp from 1 to 32 rows while threads come up, a
    # third of a 512-request window, and the speed-up swung with that ramp.
    start = threading.Barrier(num_clients + 1, timeout=120.0)
    with server:
        # Warm the forward pass so the timed window measures steady state.
        server.predict(samples[0])

        def client(j: int) -> None:
            try:
                start.wait()
                for _ in range(requests_per_client):
                    server.predict(samples[j], timeout=120.0)
            except BaseException as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(j,), name=f"client-{j}")
            for j in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    summary = server.stats.summary()
    total = num_clients * requests_per_client
    summary["throughput_req_s"] = total / elapsed  # timed window only (no warm-up)
    summary["requests"] = total
    return summary


def _microbatching_rows(requests_per_client: int) -> List[Dict[str, object]]:
    rows = []
    for max_batch in (1, MICRO_BATCH):
        summary = serve_workload(max_batch, requests_per_client=requests_per_client)
        rows.append(
            {
                "max_batch_size": max_batch,
                "requests": summary["requests"],
                "batches": summary["batches"],
                "mean_batch_size": round(summary["mean_batch_size"], 2),
                "p50_ms": round(summary["p50_ms"], 3),
                "p99_ms": round(summary["p99_ms"], 3),
                "throughput_req_s": round(summary["throughput_req_s"], 1),
            }
        )
    baseline, micro = rows
    micro["speedup_vs_batch1"] = round(
        micro["throughput_req_s"] / baseline["throughput_req_s"], 2
    )
    baseline["speedup_vs_batch1"] = 1.0
    return rows


def test_serving_microbatching(report):
    rows = _microbatching_rows(REQUESTS_PER_CLIENT)
    report("serving_microbatching", rows)
    baseline, micro = rows
    assert micro["mean_batch_size"] > 1.5, "coalescing never happened"
    if _strict():
        assert micro["speedup_vs_batch1"] >= TARGET_SPEEDUP, (
            f"micro-batching only {micro['speedup_vs_batch1']}x over batch-1 serving "
            f"(target {TARGET_SPEEDUP}x)"
        )
        assert micro["p99_ms"] <= P99_BOUND_MS, (
            f"p99 latency {micro['p99_ms']}ms exceeds the {P99_BOUND_MS}ms bound"
        )


# ------------------------------------------------------------- off-path evaluation cost
def _train_config(evaluate_every_epochs: int = 1) -> CrossbowConfig:
    return CrossbowConfig(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=32,
        replicas_per_gpu=TRAIN_LEARNERS,
        max_epochs=TRAIN_EPOCHS,
        evaluate_every_epochs=evaluate_every_epochs,
        seed=7,
        dataset_overrides=dict(TRAIN_DATASET),
        model_overrides={"input_dim": TRAIN_INPUT_DIM, "hidden_sizes": TRAIN_HIDDEN},
    )


def _timed_epoch_loop(
    mode: str,
) -> Dict[str, object]:
    """Time the epoch loop of one variant; returns loop seconds + accuracies.

    ``mode``: ``"none"`` never evaluates, ``"inline"`` evaluates on the
    critical path each epoch, ``"service"`` publishes to an off-path
    evaluation service each epoch and drains after the timed loop.
    """
    trainer = CrossbowTrainer(_train_config())
    service: Optional[EvaluationService] = None
    if mode == "service":
        service = EvaluationService(
            execution="process" if process_execution_supported() else "serial"
        )
        trainer.attach_evaluation_service(service)
    accuracies: List[float] = []
    try:
        # Warm-up: spawn the evaluator worker (fork + first forward) or prime
        # the inline evaluation path, so the timed loop is steady state.
        if mode == "service":
            assert service is not None
            service.submit(trainer.publish_checkpoint(), epoch=-1)
            service.drain()
        elif mode == "inline":
            trainer.evaluate()
        started = time.perf_counter()
        for epoch in range(TRAIN_EPOCHS):
            trainer._apply_schedule(epoch)
            trainer._train_epoch(epoch)
            if mode == "inline":
                accuracies.append(trainer.evaluate())
            elif mode == "service":
                assert service is not None
                service.submit(trainer.publish_checkpoint(epoch=epoch), epoch=epoch)
                service.poll()
        loop_seconds = time.perf_counter() - started
        if mode == "service":
            assert service is not None
            service.drain()
            accuracies = [service.accuracy_for_epoch(epoch) for epoch in range(TRAIN_EPOCHS)]
        return {"loop_seconds": loop_seconds, "accuracies": accuracies}
    finally:
        if service is not None:
            service.close()
        trainer.close()


def test_offpath_evaluation(report):
    runs = {mode: _timed_epoch_loop(mode) for mode in ("none", "inline", "service")}

    # The whole point of the drain barrier: deferred accuracies are the exact
    # floats inline evaluation produces on this seed (always asserted).
    assert runs["service"]["accuracies"] == runs["inline"]["accuracies"]

    baseline = runs["none"]["loop_seconds"]
    rows = [
        {
            "mode": mode,
            "epochs": TRAIN_EPOCHS,
            "learners": TRAIN_LEARNERS,
            "loop_seconds": round(run["loop_seconds"], 4),
            "loop_vs_no_eval": round(run["loop_seconds"] / baseline, 2),
            "final_accuracy": run["accuracies"][-1] if run["accuracies"] else None,
        }
        for mode, run in runs.items()
    ]
    report("serving_offpath_evaluation", rows)

    # Overlapping evaluation with training needs a spare core (the same
    # premise as bench_multiprocess), and wall-clock ratios are only
    # meaningful on quiet hosts — record everywhere, assert when both hold.
    if _strict() and (os.cpu_count() or 1) >= MIN_CORES_FOR_ASSERT:
        assert (
            runs["service"]["loop_seconds"]
            <= runs["none"]["loop_seconds"] * LOOP_OVERHEAD_TOLERANCE
        ), "off-path evaluation added more than noise to the training loop"


# ------------------------------------------------------------------ pooled evaluation
POOL_EVALS = 8  # checkpoints per timing run
POOL_WORKERS = 4
POOL_TARGET_SPEEDUP = 2.0  # 4 workers vs the single forked evaluator


def _eval_workload():
    """A trainer (model + pipeline only) and a batch of distinct checkpoints."""
    trainer = CrossbowTrainer(_train_config(evaluate_every_epochs=0))
    base = trainer.initial_model.parameter_vector()
    rng = RandomState(23)
    checkpoints = [
        Checkpoint(
            parameters=(
                base + rng.normal(scale=0.05, size=base.shape).astype(np.float32)
            ),
            buffers={},
            epoch=index,
        )
        for index in range(POOL_EVALS)
    ]
    return trainer, checkpoints


def _inline_accuracies(trainer, checkpoints) -> List[float]:
    model = trainer.initial_model.clone()
    return [
        evaluate_top1(
            checkpoint.apply_to(model), trainer.pipeline.test_batches(batch_size=256)
        )
        for checkpoint in checkpoints
    ]


def test_evaluator_pool_scaling(report):
    if not process_execution_supported():
        import pytest

        pytest.skip("requires the fork start method")
    trainer, checkpoints = _eval_workload()
    inline = _inline_accuracies(trainer, checkpoints)
    rows: List[Dict[str, object]] = []
    try:
        for workers in (1, POOL_WORKERS):
            with EvaluatorPool(trainer.initial_model, trainer.pipeline, workers=workers) as pool:
                pool.evaluate(checkpoints[:1])  # warm: fork + first forward
                started = time.perf_counter()
                accuracies = pool.evaluate(checkpoints)
                elapsed = time.perf_counter() - started
            # The whole point of the slot-ring protocol: concurrency changes
            # completion order only, never a resolved accuracy.
            assert accuracies == inline
            rows.append(
                {
                    "workers": workers,
                    "evals": POOL_EVALS,
                    "seconds": round(elapsed, 4),
                    "evals_per_s": round(POOL_EVALS / elapsed, 2),
                }
            )
    finally:
        trainer.close()
    baseline, pooled = rows
    pooled["speedup_vs_1_worker"] = round(
        pooled["evals_per_s"] / baseline["evals_per_s"], 2
    )
    baseline["speedup_vs_1_worker"] = 1.0
    report("serving_pool_scaling", rows)
    # Parallel evaluation needs spare cores; ratios on busy/small hosts are
    # noise — record everywhere, assert where the premise holds.
    if _strict() and (os.cpu_count() or 1) >= MIN_CORES_FOR_ASSERT:
        assert pooled["speedup_vs_1_worker"] >= POOL_TARGET_SPEEDUP, (
            f"{POOL_WORKERS}-worker evaluator pool only "
            f"{pooled['speedup_vs_1_worker']}x over 1 worker "
            f"(target {POOL_TARGET_SPEEDUP}x)"
        )


# --------------------------------------------------------- pooled inference scaling
INFER_POOL_WORKERS = 4
INFER_POOL_TARGET_SPEEDUP = 2.0  # 4 active workers vs 1 on the same slot ring
INFER_BATCHES = 24  # request batches per timing run
SMOKE_INFER_BATCHES = 6
INFER_BATCH_SAMPLES = 32


def _inference_scaling_rows(num_batches: int) -> List[Dict[str, object]]:
    """Time the same request stream at 1 and 4 active pool workers.

    The parent thread plays the serving front-end: publish a batch into the
    slot ring, opportunistically drain finished tickets, block for the tail.
    Logits are asserted bit-identical to an inline forward on an identical
    clone — the pooled plane changes completion order, never a result.
    """
    model = _model()
    batches = [
        RandomState(17 + index)
        .normal(size=(INFER_BATCH_SAMPLES, SERVE_INPUT_DIM))
        .astype(np.float32)
        for index in range(num_batches)
    ]
    reference = model.clone()
    reference.eval()
    with no_grad():
        expected = [reference(Tensor(batch)).data for batch in batches]

    rows: List[Dict[str, object]] = []
    for workers in (1, INFER_POOL_WORKERS):
        with InferencePool(
            model,
            sample_shape=(SERVE_INPUT_DIM,),
            workers=workers,
            max_batch_samples=INFER_BATCH_SAMPLES,
        ) as pool:
            # Warm every active worker (first forward pays BLAS/init cost).
            for ticket in range(workers):
                pool.publish(ticket, batches[ticket % num_batches])
            while pool.in_flight:
                pool.collect(block=True)

            logits: Dict[int, np.ndarray] = {}

            def _absorb(payloads) -> None:
                for ticket, data, error in payloads:
                    assert error is None, f"pool worker failed:\n{error}"
                    logits[ticket] = data

            started = time.perf_counter()
            for ticket, batch in enumerate(batches):
                pool.publish(ticket, batch)
                _absorb(pool.collect(block=False))
            while pool.in_flight:
                _absorb(pool.collect(block=True))
            elapsed = time.perf_counter() - started

        assert all(
            np.array_equal(logits[ticket], expected[ticket])
            for ticket in range(num_batches)
        ), "pooled logits diverged from the inline forward"
        samples = num_batches * INFER_BATCH_SAMPLES
        rows.append(
            {
                "workers": workers,
                "batches": num_batches,
                "samples": samples,
                "seconds": round(elapsed, 4),
                "samples_per_s": round(samples / elapsed, 1),
            }
        )
    baseline, pooled = rows
    pooled["speedup_vs_1_worker"] = round(
        pooled["samples_per_s"] / baseline["samples_per_s"], 2
    )
    baseline["speedup_vs_1_worker"] = 1.0
    return rows


def test_inference_pool_scaling(report):
    if not process_execution_supported():
        import pytest

        pytest.skip("requires the fork start method")
    rows = _inference_scaling_rows(INFER_BATCHES)
    report("serving_inference_scaling", rows)
    baseline, pooled = rows
    # Parallel forwards need spare cores; ratios on busy/small hosts are
    # noise — record everywhere, assert where the premise holds.
    if _strict() and (os.cpu_count() or 1) >= MIN_CORES_FOR_ASSERT:
        assert pooled["speedup_vs_1_worker"] >= INFER_POOL_TARGET_SPEEDUP, (
            f"{INFER_POOL_WORKERS}-worker inference pool only "
            f"{pooled['speedup_vs_1_worker']}x over 1 worker "
            f"(target {INFER_POOL_TARGET_SPEEDUP}x)"
        )


# ----------------------------------------------------------------------- CLI / smoke
def main(argv: Optional[List[str]] = None) -> int:
    # Standalone runs bypass the pytest report fixture; the conftest helpers
    # parse the shared flags and record the summary the CI jobs upload.
    import conftest

    args = conftest.bench_cli(__doc__, argv)
    requests_per_client = SMOKE_REQUESTS_PER_CLIENT if args.smoke else REQUESTS_PER_CLIENT

    rows = _microbatching_rows(requests_per_client)
    conftest.standalone_report(
        "serving_microbatching_smoke" if args.smoke else "serving_microbatching_cli",
        rows,
    )
    baseline, micro = rows
    if micro["mean_batch_size"] <= 1.0:
        print("FAIL: micro-batching never coalesced requests", file=sys.stderr)
        return 1
    if not args.smoke and _strict() and micro["speedup_vs_batch1"] < TARGET_SPEEDUP:
        print(
            f"FAIL: speedup {micro['speedup_vs_batch1']}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: {micro['requests']} requests served, micro-batching "
        f"{micro['speedup_vs_batch1']}x over batch-1 at p99={micro['p99_ms']}ms"
    )

    if process_execution_supported():
        # The pooled plane: bit-identity is asserted inside the helper on
        # every run; the speedup ratio is a strict gate only on full runs
        # with enough cores (the smoke run just proves the protocol).
        pool_batches = SMOKE_INFER_BATCHES if args.smoke else INFER_BATCHES
        pool_rows = _inference_scaling_rows(pool_batches)
        conftest.standalone_report(
            "serving_inference_scaling_smoke"
            if args.smoke
            else "serving_inference_scaling_cli",
            pool_rows,
        )
        _, pooled = pool_rows
        if (
            not args.smoke
            and _strict()
            and (os.cpu_count() or 1) >= MIN_CORES_FOR_ASSERT
            and pooled["speedup_vs_1_worker"] < INFER_POOL_TARGET_SPEEDUP
        ):
            print(
                f"FAIL: {INFER_POOL_WORKERS}-worker pool speedup "
                f"{pooled['speedup_vs_1_worker']}x < {INFER_POOL_TARGET_SPEEDUP}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"ok: {pooled['samples']} samples through the inference pool, "
            f"{INFER_POOL_WORKERS} workers {pooled['speedup_vs_1_worker']}x over 1"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
