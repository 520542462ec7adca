"""Pipelined-synchronisation and persistent-pool-resize microbenchmarks.

Two claims from the PR-4 executor work, mirroring the paper's argument that
synchronisation must not serialise the learners (§4):

* **Pipelined throughput** — with ``pipeline_depth=1`` the parent applies the
  fused ``SMA.step_matrix`` of iteration ``t`` *while* the workers compute
  iteration ``t+1``'s gradients against the published weight buffer, so the
  synchronisation step leaves the critical path.  Measured as whole-iteration
  throughput at k = 8 learners, pipelined vs the synchronous
  ``pipeline_depth=0`` schedule.  The ≥ 1.2x bar presumes parallel hardware
  (≥ 4 cores); ``BENCH_STRICT=0`` downgrades the assertion to a report for
  shared/noisy runners.

* **Persistent-pool resize latency** — an auto-tuner grow/shrink used to stop
  the whole worker pool and respawn every fork; the persistent pool re-shards
  the survivors in place and forks only the added learner.  Measured as the
  wall-clock cost of a grow plus the first iteration after it (the respawn
  path pays its forks lazily on that iteration), persistent vs respawn.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.engine import CrossbowConfig, CrossbowTrainer, process_execution_supported

LEARNERS = 8
EPOCHS = 3
HIDDEN = (512, 256)
INPUT_DIM = 64
NUM_TRAIN = 4096
BATCH_SIZE = 32
MIN_CORES_FOR_ASSERT = 4
TARGET_SPEEDUP = 1.2

RESIZE_CYCLES = 4
RESIZE_BASE_LEARNERS = 6
RESIZE_MAX_LEARNERS = 8


def _strict() -> bool:
    return os.environ.get("BENCH_STRICT", "1") != "0"


def _skip_without_fork() -> None:
    if not process_execution_supported():  # pragma: no cover - non-POSIX only
        import pytest

        pytest.skip("fork start method unavailable")


# ------------------------------------------------------------------ pipelined throughput
def _throughput_config(
    pipeline_depth: int, epochs: int = EPOCHS, num_train: int = NUM_TRAIN, seed: int = 7
) -> CrossbowConfig:
    return CrossbowConfig(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=BATCH_SIZE,
        replicas_per_gpu=LEARNERS,
        max_epochs=epochs,
        seed=seed,
        execution="process",
        pipeline_depth=pipeline_depth,
        dataset_overrides={"num_train": num_train, "num_test": 256, "input_dim": INPUT_DIM},
        model_overrides={"input_dim": INPUT_DIM, "hidden_sizes": HIDDEN},
    )


def _run_throughput(
    pipeline_depth: int, epochs: int = EPOCHS, num_train: int = NUM_TRAIN, seed: int = 7
) -> Dict[str, object]:
    trainer = CrossbowTrainer(_throughput_config(pipeline_depth, epochs, num_train, seed))
    try:
        # Warm-up epoch: spawns the worker pool and touches every allocation,
        # so the timed epochs measure steady-state behaviour.
        trainer._apply_schedule(0)
        trainer._train_epoch(0)
        warmup_iterations = trainer._iteration
        started = time.perf_counter()
        for epoch in range(1, epochs):
            trainer._train_epoch(epoch)
        elapsed = time.perf_counter() - started
        iterations = trainer._iteration - warmup_iterations
        counters = trainer.sync_counters
        return {
            "iterations": iterations,
            "seconds": elapsed,
            "iter_per_s": iterations / elapsed if elapsed > 0 else float("inf"),
            "center_finite": bool(np.isfinite(trainer.central_model_vector()).all()),
            "sync_overlap_fraction": counters.overlap_fraction,
            "max_staleness": counters.max_staleness,
        }
    finally:
        trainer.close()


def test_pipelined_throughput(report):
    _skip_without_fork()

    synchronous = _run_throughput(pipeline_depth=0)
    pipelined = _run_throughput(pipeline_depth=1)
    assert synchronous["center_finite"] and pipelined["center_finite"]
    # Depth 1 really ran the overlapped schedule with bounded staleness.
    assert pipelined["max_staleness"] == 1
    assert synchronous["max_staleness"] == 0

    speedup = pipelined["iter_per_s"] / synchronous["iter_per_s"]
    cores = os.cpu_count() or 1
    report(
        "pipeline_throughput",
        [
            {
                "mode": mode,
                "learners": LEARNERS,
                "iterations": run["iterations"],
                "seconds": round(float(run["seconds"]), 4),
                "iter_per_s": round(float(run["iter_per_s"]), 2),
                "sync_overlap_fraction": round(float(run["sync_overlap_fraction"]), 4),
                "max_staleness": run["max_staleness"],
                "cores": cores,
                "speedup_vs_process": round(
                    float(run["iter_per_s"] / synchronous["iter_per_s"]), 2
                ),
            }
            for mode, run in (("process", synchronous), ("pipelined", pipelined))
        ],
    )

    # The bar presumes parallel hardware: on one core the overlapped section
    # competes with the workers for the same CPU, so just record the numbers.
    if cores >= MIN_CORES_FOR_ASSERT and _strict():
        assert speedup > TARGET_SPEEDUP, (
            f"pipelined execution only {speedup:.2f}x faster at k={LEARNERS} "
            f"on {cores} cores (target {TARGET_SPEEDUP}x)"
        )


# ------------------------------------------------------------------ resize latency
def _resize_config() -> CrossbowConfig:
    return CrossbowConfig(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=RESIZE_BASE_LEARNERS,
        # auto_tune pre-allocates the bank up to the ceiling so the manual
        # grows below never reallocate shared segments; the huge interval
        # keeps Algorithm 2 itself from ever firing.
        auto_tune=True,
        auto_tune_interval=10**9,
        max_replicas_per_gpu=RESIZE_MAX_LEARNERS,
        max_epochs=1,
        seed=7,
        execution="process",
        dataset_overrides={"num_train": 4096, "num_test": 128, "input_dim": 32},
        model_overrides={"input_dim": 32, "hidden_sizes": (64,)},
    )


def _run_resize(persistent: bool) -> Dict[str, object]:
    trainer = CrossbowTrainer(_resize_config())
    try:
        executor = trainer._executor
        if not persistent:
            # Reference run: force the automatic respawn fallback (what a
            # reallocated shared buffer triggers).
            def respawn(learners: object) -> str:
                executor.invalidate()
                return "respawn"

            executor.resize = respawn
        grow_seconds: List[float] = []
        iterations = 0
        grown_at: Optional[float] = None

        def resize_between_iterations() -> None:
            # The epoch loop calls this after every iteration.  Three warm-up
            # iterations spawn the pool; then grows alternate with shrinks.
            # The respawn path pays its forks lazily on the next iteration,
            # so a grow is timed to the end of the first iteration after it.
            nonlocal iterations, grown_at
            iterations += 1
            if grown_at is not None:
                grow_seconds.append(time.perf_counter() - grown_at)
                grown_at = None
                trainer._shrink_learners()  # restore; not measured
            elif iterations >= 3 and len(grow_seconds) < RESIZE_CYCLES:
                grown_at = time.perf_counter()
                trainer._grow_learners()

        trainer._maybe_autotune = resize_between_iterations
        trainer._apply_schedule(0)
        trainer._train_epoch(0)
        return {
            "median_grow_ms": float(np.median(grow_seconds) * 1e3),
            "max_grow_ms": float(np.max(grow_seconds) * 1e3),
            "respawns": trainer._executor.respawns,
            "resizes_in_place": trainer._executor.resizes_in_place,
        }
    finally:
        trainer.close()


def test_persistent_resize_latency(report):
    _skip_without_fork()

    persistent = _run_resize(persistent=True)
    respawn = _run_resize(persistent=False)
    # The persistent run must actually have taken the in-place path (both
    # grows and shrinks), and the respawn run must not have.
    assert persistent["resizes_in_place"] == 2 * RESIZE_CYCLES
    assert respawn["resizes_in_place"] == 0

    ratio = respawn["median_grow_ms"] / max(persistent["median_grow_ms"], 1e-9)
    report(
        "pipeline_resize_latency",
        [
            {
                "mode": mode,
                "base_learners": RESIZE_BASE_LEARNERS,
                "cycles": RESIZE_CYCLES,
                "median_grow_ms": round(run["median_grow_ms"], 2),
                "max_grow_ms": round(run["max_grow_ms"], 2),
                "respawns": run["respawns"],
                "resizes_in_place": run["resizes_in_place"],
                "respawn_over_persistent": round(
                    float(run["median_grow_ms"] / persistent["median_grow_ms"]), 2
                ),
            }
            for mode, run in (("persistent", persistent), ("respawn", respawn))
        ],
    )

    if _strict():
        assert persistent["median_grow_ms"] < respawn["median_grow_ms"], (
            f"persistent resize ({persistent['median_grow_ms']:.1f} ms) not faster "
            f"than respawn ({respawn['median_grow_ms']:.1f} ms); ratio {ratio:.2f}"
        )


# ----------------------------------------------------------------------- CLI / smoke
SMOKE_EPOCHS = 2
SMOKE_NUM_TRAIN = 1024


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone pipelined-throughput check (the CI smoke path)."""
    import sys

    import conftest

    args = conftest.bench_cli(__doc__, argv)
    if not process_execution_supported():
        print("skip: fork start method unavailable")
        return 0
    epochs = SMOKE_EPOCHS if args.smoke else EPOCHS
    num_train = SMOKE_NUM_TRAIN if args.smoke else NUM_TRAIN
    runs = {
        mode: _run_throughput(depth, epochs=epochs, num_train=num_train, seed=args.seed)
        for mode, depth in (("synchronous", 0), ("pipelined", 1))
    }
    rows = [
        {
            "mode": mode,
            "learners": LEARNERS,
            "iterations": run["iterations"],
            "seconds": round(float(run["seconds"]), 4),
            "iter_per_s": round(float(run["iter_per_s"]), 2),
            "sync_overlap_fraction": round(float(run["sync_overlap_fraction"]), 4),
            "max_staleness": run["max_staleness"],
        }
        for mode, run in runs.items()
    ]
    conftest.standalone_report(
        "pipeline_throughput_smoke" if args.smoke else "pipeline_throughput_cli", rows
    )
    if not (runs["synchronous"]["center_finite"] and runs["pipelined"]["center_finite"]):
        print("FAIL: non-finite central model after training", file=sys.stderr)
        return 1
    if runs["pipelined"]["max_staleness"] != 1 or runs["synchronous"]["max_staleness"] != 0:
        print("FAIL: pipelined schedule did not run with staleness bound 1", file=sys.stderr)
        return 1
    speedup = runs["pipelined"]["iter_per_s"] / runs["synchronous"]["iter_per_s"]
    cores = os.cpu_count() or 1
    if not args.smoke and _strict() and cores >= MIN_CORES_FOR_ASSERT:
        if speedup <= TARGET_SPEEDUP:
            print(
                f"FAIL: pipelined only {speedup:.2f}x over synchronous "
                f"(target {TARGET_SPEEDUP}x on {cores} cores)",
                file=sys.stderr,
            )
            return 1
    print(f"ok: pipelined {speedup:.2f}x over synchronous at k={LEARNERS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
