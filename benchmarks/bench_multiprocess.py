"""Multi-process executor microbenchmark: serial vs per-learner worker processes.

With ``execution="process"`` each learner's gradient is computed in its own
worker over the shared-memory replica bank, on the batch the parent's
pipeline copied into its shared input row — the reproduction's analogue of
the paper's task manager keeping every execution unit busy (§4.1–§4.3).
Serial mode keeps the learners in-process, but runs an iteration's
forward/backward passes on parallel lanes, one per core that BLAS leaves
free (``repro.engine.learner.LearnerLanes``).

This benchmark times whole training iterations (gradients + fused SMA step +
simulated schedule) at k = 8 learners on an MLP workload sized so the
gradient computation dominates.  Rows, in order: serial (on lanes), process,
and serial forced to one lane — the passes one after another.  The
process-mode bar compares against that last row.  On a single-core host the
process mode necessarily loses (same compute plus IPC), so the speedup
assertion only applies on multi-core hosts, matching the paper's premise of
parallel hardware.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, Iterator

import numpy as np

from repro.engine import CrossbowConfig, CrossbowTrainer, process_execution_supported
from repro.engine import learner as learner_module

LEARNERS = 8
EPOCHS = 3
HIDDEN = (512, 256)
INPUT_DIM = 64
NUM_TRAIN = 4096
BATCH_SIZE = 32
MIN_CORES_FOR_ASSERT = 4
TARGET_SPEEDUP = 1.5


def _config(execution: str) -> CrossbowConfig:
    return CrossbowConfig(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=BATCH_SIZE,
        replicas_per_gpu=LEARNERS,
        max_epochs=EPOCHS,
        seed=7,
        execution=execution,
        dataset_overrides={"num_train": NUM_TRAIN, "num_test": 256, "input_dim": INPUT_DIM},
        model_overrides={"input_dim": INPUT_DIM, "hidden_sizes": HIDDEN},
    )


def _run(execution: str) -> Dict[str, object]:
    trainer = CrossbowTrainer(_config(execution))
    try:
        # Warm-up epoch: spawns the worker pool (process mode) and touches
        # every allocation, so the timed epochs measure steady-state behaviour.
        trainer._apply_schedule(0)
        trainer._train_epoch(0)
        warmup_iterations = trainer._iteration
        started = time.perf_counter()
        for epoch in range(1, EPOCHS):
            trainer._train_epoch(epoch)
        elapsed = time.perf_counter() - started
        iterations = trainer._iteration - warmup_iterations
        return {
            "iterations": iterations,
            "seconds": elapsed,
            "iter_per_s": iterations / elapsed if elapsed > 0 else float("inf"),
            "center": trainer.central_model_vector(),
            "lanes": trainer.learner_lanes,
        }
    finally:
        trainer.close()


@contextlib.contextmanager
def _one_lane() -> Iterator[None]:
    """Serial learners one after another: every iteration gets one lane."""
    original = learner_module.lane_width

    def one(k: int) -> int:
        return 1

    learner_module.lane_width = one
    try:
        yield
    finally:
        learner_module.lane_width = original


def test_multiprocess_throughput(report):
    if not process_execution_supported():  # pragma: no cover - non-POSIX only
        import pytest

        pytest.skip("fork start method unavailable")

    serial = _run("serial")
    process = _run("process")
    with _one_lane():
        one_lane = _run("serial")

    # Every mode must land on the identical central model (fixed seed) — the
    # speedup is not allowed to change the maths.
    np.testing.assert_array_equal(process["center"], serial["center"])
    np.testing.assert_array_equal(one_lane["center"], serial["center"])

    speedup = process["iter_per_s"] / one_lane["iter_per_s"]
    cores = os.cpu_count() or 1
    # Rows are gated by position: new modes go after the existing ones.
    report(
        "multiprocess_throughput",
        [
            {
                "mode": mode,
                "learners": LEARNERS,
                "lanes": run["lanes"],
                "iterations": run["iterations"],
                "seconds": round(float(run["seconds"]), 4),
                "iter_per_s": round(float(run["iter_per_s"]), 2),
                "cores": cores,
                "speedup_vs_serial": round(float(run["iter_per_s"] / serial["iter_per_s"]), 2),
            }
            for mode, run in (
                ("serial", serial),
                ("process", process),
                ("serial-one-lane", one_lane),
            )
        ],
    )

    # The >1.5x acceptance bar presumes parallel hardware; on one or two
    # cores the extra processes only add IPC, so just record the numbers.
    # It measures process mode against the learners run one after another,
    # the premise it was set for.  BENCH_STRICT=0 downgrades the assert to a
    # report for shared/noisy runners (CI), where wall-clock ratios across
    # processes are not stable.
    strict = os.environ.get("BENCH_STRICT", "1") != "0"
    if cores >= MIN_CORES_FOR_ASSERT and strict:
        assert speedup > TARGET_SPEEDUP, (
            f"process execution only {speedup:.2f}x faster than one-lane serial "
            f"at k={LEARNERS} on {cores} cores (target {TARGET_SPEEDUP}x)"
        )
