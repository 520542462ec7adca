"""``run.py --selfcheck``: the harness checked against inputs with known answers.

Kept out of pytest on purpose (no file here matches ``test_*.py``): tier-1
would collect it under ``benchmarks/conftest.py``, whose session fixture turns
the telemetry recorder on, and the benchmark measures with it off.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import time
from typing import Callable, List

import numpy as np

import loadgen
import phases
import stats
from cli import DEFAULT_SECONDS, SPEC_PATH, child_pids, run_child
from workloads import WORKLOADS

#: the workload whose smoke run is compared with BENCHMARK.json (no forks, fastest)
SMOKE_WORKLOAD = "mlp_serial_inproc"
#: the workload that forks the most: learner worker, pool workers, set-up probe
FORKING_WORKLOAD = "mlp_pipelined_pooled"
PR_SET_CHILD_SUBREAPER = 36


def check_segment_median() -> None:
    # Three 1 s segments whose latencies are 1..100, 101..200 and 201..300 ms.
    due = np.concatenate([np.linspace(s, s + 0.99, 100) for s in range(3)])
    latency = np.arange(1, 301, dtype=np.float64)
    p50 = stats.segment_percentiles(due, latency, 1.0, 3, 50)
    assert p50 == [50.5, 150.5, 250.5], p50
    assert stats.median(p50) == 150.5
    assert abs(stats.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0) < 1e-12


def check_window_median() -> None:
    # 32 completions every 40 ms = 800 /s, however the windows cut the batches.
    stamps = np.repeat(np.arange(0.0, 4.0, 0.04), 32)
    rates = stats.window_rates(stamps, start=0.5, window_s=0.7, windows=4)
    assert len(rates) == 4 and all(abs(rate - 800.0) < 1e-6 for rate in rates), rates


def check_schedule_is_seeded() -> None:
    a = loadgen.poisson_schedule(11, 500.0, 4.0)
    b = loadgen.poisson_schedule(11, 500.0, 4.0)
    c = loadgen.poisson_schedule(12, 500.0, 4.0)
    assert np.array_equal(a, b), "equal seeds must give equal schedules"
    assert len(a) != len(c) or not np.array_equal(a, c), "different seeds must differ"
    assert np.all(np.diff(a) > 0) and a[-1] < 4.0
    assert abs(len(a) / 4.0 - 500.0) < 50.0, len(a)
    picks = loadgen.request_indices(11, 64, 512)
    assert np.array_equal(picks, loadgen.request_indices(11, 64, 512))


def check_logits_check_can_fail() -> None:
    rng = np.random.default_rng(0)
    versions = [rng.normal(size=(8, 10)).astype(np.float32) for _ in range(3)]
    good = [(sample, versions[sample % 3][sample]) for sample in range(8)]
    assert phases.count_mismatches(versions, good) == 0
    torn = np.concatenate([versions[0][2][:5], versions[1][2][5:]])
    nudged = versions[0][3] + 0.01
    assert phases.count_mismatches(versions, good + [(2, torn), (3, nudged)]) == 2


def check_generator_paces_by_sleeping() -> None:
    """Open loop against an instant server: everything sent, on time, in order."""
    from concurrent.futures import Future

    def submit(sample: np.ndarray) -> Future:
        future: Future = Future()
        future.set_result(sample[0, :2])
        return future

    pool = np.arange(40, dtype=np.float32).reshape(10, 4)
    schedule = loadgen.poisson_schedule(3, 400.0, 0.5)
    indices = loadgen.request_indices(3, len(schedule), len(pool))
    ticks: List[int] = []
    cpu = time.process_time()
    result = loadgen.run_open_loop(
        submit, pool, schedule, indices, check_every=4, periodic=(0.1, ticks.append)
    )
    cpu = time.process_time() - cpu
    assert result.failed == 0 and not np.isnan(result.sent).any()
    assert ticks == list(range(len(ticks))) and 5 <= len(ticks) <= 6, ticks
    assert sorted(result.responses) == list(range(0, len(schedule), 4))
    assert np.array_equal(result.responses[4], pool[indices[4], :2])
    assert cpu < 0.25, f"generator burned {cpu:.2f} s of CPU over a 0.5 s schedule: it spins"


def check_metric_names() -> None:
    spec = json.loads(SPEC_PATH.read_text())
    assert spec["run_seconds"] == DEFAULT_SECONDS, "run_seconds and DEFAULT_SECONDS disagree"
    assert spec["command"][-1].endswith("benchmarks/e2e/run.py")
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    for key, trace_flag in (("end_to_end", 0), ("per_layer", 1)):
        named = {metric["name"]: metric["unit"] for metric in spec[key]}
        result = run_child(SMOKE_WORKLOAD, 0, 1, trace_flag, smoke=True, echo=False)
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert named == emitted, (
            f"{key}: only in BENCHMARK.json {sorted(set(named) - set(emitted))}, "
            f"only emitted {sorted(set(emitted) - set(named))}, "
            f"unit differs {sorted(n for n in named if emitted.get(n, named[n]) != named[n])}"
        )
        assert result["correct"] and result["failed"] == 0, result


def check_no_process_outlives_a_run() -> None:
    """As a subreaper this process adopts whatever a run leaves behind, alive or not."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    assert prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0, os.strerror(ctypes.get_errno())
    try:
        run_child(FORKING_WORKLOAD, 0, 1, 0, smoke=True, echo=False)
        left = child_pids()
        for pid in left:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    finally:
        prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    assert not left, f"{len(left)} process(es) outlived the run that started them"


CHECKS: List[Callable[[], None]] = [
    check_segment_median,
    check_window_median,
    check_schedule_is_seeded,
    check_logits_check_can_fail,
    check_generator_paces_by_sleeping,
    check_metric_names,
    check_no_process_outlives_a_run,
]


def main() -> int:
    failures = 0
    started = time.perf_counter()
    for check in CHECKS:
        try:
            check()
            print(f"ok    {check.__name__}")
        except AssertionError as error:
            failures += 1
            print(f"FAIL  {check.__name__}: {error}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed in "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if failures else 0
