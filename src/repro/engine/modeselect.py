"""Probe-driven execution-mode selection for ``CrossbowConfig(execution="auto")``.

The 0.82x datapoint in ``BENCH_baseline.json`` (``multiprocess_throughput`` on
the 1-core CI host) is the motivation: process mode is *not* an unconditional
win — forking one worker per learner only pays off when there are cores to
fork onto and the per-iteration round-trip is cheap relative to the fused
synchronisation step.  Instead of assuming, ``execution="auto"`` runs a short
calibration probe on first use:

* a timed micro-run of the fused ``step_matrix`` update (the work the parent
  keeps either way), and
* one worker fork + round-trip over a pipe (the overhead process mode adds),
  skipped on 1-core hosts where the answer is already determined.

The result is cached per host in the telemetry store (bench
``modeselect_probe/<host>``), so repeated trainer constructions — and repeated
CI runs against a persisted store — reuse the measurement instead of paying
the probe again.  The row records the step kernel it timed
(:data:`~repro.optim.step.STEP_KERNEL_VERSION`); a row from another kernel,
or from before rows carried one, is a miss and the host is probed afresh.
:func:`recommend` maps a probe to a concrete
``(execution, pipeline_depth)`` pair:

* 1 core (or no POSIX fork) → ``("serial", 0)`` — by construction, fixing the
  0.82x regression shape;
* ≥ 2 cores with an affordable round-trip → ``("process", 0)``;
* ≥ 4 cores → ``("process", 1)`` — enough parallelism to also overlap the
  fused synchronisation with the workers' next gradient pass.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.engine.config import CrossbowConfig
from repro.engine.executor import process_execution_supported
from repro.optim.sma import SMA
from repro.optim.step import STEP_KERNEL_VERSION
from repro.telemetry.runtime import host_name
from repro.telemetry.store import TelemetryStore, default_db_path
from repro.utils.logging import get_logger

logger = get_logger("engine.modeselect")

__all__ = [
    "ProbeResult",
    "cpu_count",
    "probe_host",
    "recommend",
    "resolve_auto_execution",
]

#: probe problem size: k replicas of a P-parameter model — big enough to time
#: meaningfully, small enough to stay well under a millisecond per step
_PROBE_REPLICAS = 8
_PROBE_PARAMETERS = 65536
_PROBE_REPEATS = 3
#: the step's scalars as the trainer passes them for ResNet-32
_PROBE_LEARNING_RATE = 0.1
_PROBE_DECAY = 1e-4

#: round-trip budget: process mode must cost at most this many fused steps of
#: per-iteration overhead before the probe stops recommending it
_ROUNDTRIP_BUDGET_STEPS = 50.0

#: sentinel stored when the worker round-trip was not measured (1-core host or
#: fork unsupported) — kept numeric so it survives the bench-row schema
_ROUNDTRIP_SKIPPED = -1.0


@dataclass(frozen=True)
class ProbeResult:
    """One host calibration: what the micro-runs measured and what they imply."""

    host: str
    cores: int
    fused_step_ms: float
    worker_roundtrip_ms: float  # _ROUNDTRIP_SKIPPED when not measured
    execution: str  # "serial" or "process"
    pipeline_depth: int
    cached: bool = False  # True when served from the telemetry store


def cpu_count() -> int:
    """Cores available to this process (affinity-aware); tests monkeypatch this."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _time_fused_step() -> float:
    """Best-of-N wall-clock of one fused ``step_matrix`` update, in ms.

    Timed as the trainer calls it for a model with weight decay: raw gradient
    rows plus the learning rate and the decay, which the step folds in.
    """
    rng = np.random.RandomState(0)
    initial = rng.randn(_PROBE_PARAMETERS).astype(np.float32)
    weights = np.tile(initial, (_PROBE_REPLICAS, 1))
    updates = rng.randn(_PROBE_REPLICAS, _PROBE_PARAMETERS).astype(np.float32)
    sma = SMA(initial, num_replicas=_PROBE_REPLICAS)
    step = dict(learning_rate=_PROBE_LEARNING_RATE, weight_decay=_PROBE_DECAY)
    sma.step_matrix(weights, updates, **step)  # warm-up (allocations, BLAS init)
    best = float("inf")
    for _ in range(_PROBE_REPEATS):
        start = time.perf_counter()
        sma.step_matrix(weights, updates, **step)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _time_worker_roundtrip() -> float:
    """Fork one worker and measure a send/receive round-trip over a pipe, in ms.

    This is the overhead process mode pays per iteration on top of the fused
    step: waking a worker and moving one message each way.  A real worker
    also computes gradients, but that work exists in serial mode too — the
    round-trip is the part that is pure parallelisation tax.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(target=_echo_worker, args=(child_end,), daemon=True)
    start = time.perf_counter()
    process.start()
    parent_end.send(b"ping")
    parent_end.recv()
    elapsed = time.perf_counter() - start
    parent_end.send(None)
    process.join(timeout=5.0)
    if process.is_alive():  # pragma: no cover - defensive cleanup
        process.terminate()
    parent_end.close()
    return elapsed * 1000.0


def _echo_worker(pipe) -> None:  # pragma: no cover - runs in the forked child
    while True:
        message = pipe.recv()
        if message is None:
            return
        pipe.send(message)


def recommend(cores: int, fused_step_ms: float, worker_roundtrip_ms: float) -> Tuple[str, int]:
    """Map a probe to ``(execution, pipeline_depth)``.

    The rules are deliberately monotone in core count: fewer cores never get
    a *more* parallel mode, so the 1-core answer is always ``serial``.
    """
    if cores <= 1 or not process_execution_supported():
        return ("serial", 0)
    if worker_roundtrip_ms >= 0.0 and fused_step_ms > 0.0:
        if worker_roundtrip_ms > _ROUNDTRIP_BUDGET_STEPS * fused_step_ms:
            return ("serial", 0)
    if cores >= 4:
        # Enough parallelism to also hide the fused step behind the workers'
        # next gradient pass (depth-1 double buffering).
        return ("process", 1)
    return ("process", 0)


def _probe_bench_name(host: str) -> str:
    return f"modeselect_probe/{host}"


def _load_cached(store: TelemetryStore, host: str) -> Optional[ProbeResult]:
    bench = _probe_bench_name(host)
    history = {
        metric: store.bench_history(bench, row_index=0, metric=metric, last_n=1)
        for metric in (
            "cores",
            "fused_step_ms",
            "worker_roundtrip_ms",
            "pipeline_depth",
            "step_kernel_version",
        )
    }
    if any(not values for values in history.values()):
        return None
    if int(history["step_kernel_version"][0][1]) != STEP_KERNEL_VERSION:
        return None  # timed against another step kernel: measure again
    cores = int(history["cores"][0][1])
    fused_step_ms = float(history["fused_step_ms"][0][1])
    worker_roundtrip_ms = float(history["worker_roundtrip_ms"][0][1])
    # Re-derive the recommendation rather than trusting a stored label: the
    # decision rule may have changed between versions, the measurements not.
    execution, pipeline_depth = recommend(cores, fused_step_ms, worker_roundtrip_ms)
    return ProbeResult(
        host=host,
        cores=cores,
        fused_step_ms=fused_step_ms,
        worker_roundtrip_ms=worker_roundtrip_ms,
        execution=execution,
        pipeline_depth=pipeline_depth,
        cached=True,
    )


def probe_host(store: Optional[TelemetryStore] = None, force: bool = False) -> ProbeResult:
    """Calibrate this host (or return the cached calibration).

    The result lands in the telemetry store as bench
    ``modeselect_probe/<host>`` — one row with the measured times, the core
    count and the recommendation — so later constructions (and other
    processes sharing the store) skip the micro-runs.
    """
    owns_store = store is None
    if owns_store:
        store = TelemetryStore(default_db_path())
    assert store is not None
    try:
        host = host_name()
        if not force:
            cached = _load_cached(store, host)
            if cached is not None:
                return cached
        cores = cpu_count()
        fused_step_ms = _time_fused_step()
        if cores > 1 and process_execution_supported():
            worker_roundtrip_ms = _time_worker_roundtrip()
        else:
            worker_roundtrip_ms = _ROUNDTRIP_SKIPPED
        execution, pipeline_depth = recommend(cores, fused_step_ms, worker_roundtrip_ms)
        result = ProbeResult(
            host=host,
            cores=cores,
            fused_step_ms=fused_step_ms,
            worker_roundtrip_ms=worker_roundtrip_ms,
            execution=execution,
            pipeline_depth=pipeline_depth,
        )
        store.record_run(host=host)
        store.insert_bench_rows(
            _probe_bench_name(host),
            [
                {
                    "host": host,
                    "cores": cores,
                    "fused_step_ms": round(fused_step_ms, 6),
                    "worker_roundtrip_ms": round(worker_roundtrip_ms, 6),
                    "execution": execution,
                    "pipeline_depth": pipeline_depth,
                    "step_kernel_version": STEP_KERNEL_VERSION,
                }
            ],
        )
        logger.info(
            "modeselect probe: host=%s cores=%d fused_step=%.3fms roundtrip=%.3fms "
            "-> execution=%s pipeline_depth=%d",
            host,
            cores,
            fused_step_ms,
            worker_roundtrip_ms,
            execution,
            pipeline_depth,
        )
        return result
    finally:
        if owns_store:
            store.close()


def resolve_auto_execution(
    config: CrossbowConfig, store: Optional[TelemetryStore] = None
) -> CrossbowConfig:
    """Return ``config`` with ``execution="auto"`` replaced by the probe's pick.

    Non-auto configs pass through untouched, so the trainer can call this
    unconditionally.
    """
    if config.execution != "auto":
        return config
    probe = probe_host(store=store)
    # S-SGD's global barrier leaves no step to overlap: it always runs depth 0.
    depth = 0 if config.synchronisation == "ssgd" else probe.pipeline_depth
    return replace(config, execution=probe.execution, pipeline_depth=depth)
