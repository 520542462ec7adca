"""Replica-bank microbenchmark: fused (k, P) SMA step vs the per-learner loop.

The seed engine paid a per-learner Python loop with a full flatten/unflatten of
every replica's parameter vector on every iteration — exactly the
synchronisation overhead the paper's contiguous data layout eliminates (§4.4).
This benchmark times one SMA iteration both ways at k = 8..32 learners on
ResNet-32 (scaled) and checks the two implementations produce the same weights.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.engine import ReplicaBank
from repro.models import create_model
from repro.nn.module import Module
from repro.optim import SMA, SMAConfig
from repro.utils.rng import RandomState

MODEL = "resnet32-scaled"
LEARNER_COUNTS = (8, 16, 32)
ITERATIONS = 30
LEARNING_RATE = 0.1


def _models(k: int) -> List[Module]:
    model = create_model(MODEL, rng=RandomState(7, name="bench-bank"))
    return [model.clone() for _ in range(k)]


def _gradients(k: int, p: int) -> np.ndarray:
    rng = np.random.default_rng(99)
    return (0.01 * rng.normal(size=(k, p))).astype(np.float32)


def _run_per_learner_loop(k: int, iterations: int) -> Dict[str, object]:
    """The seed trainer's hot path: flatten / correction / load per learner."""
    models = _models(k)
    p = models[0].num_parameters()
    center = models[0].parameter_vector()
    sma = SMA(center, k, SMAConfig(momentum=0.9))
    gradients = _gradients(k, p)
    started = time.perf_counter()
    for _ in range(iterations):
        corrections: List[np.ndarray] = []
        for j, model in enumerate(models):
            weights = model.parameter_vector()
            scaled_gradient = LEARNING_RATE * gradients[j]
            correction = sma.correction(weights)
            model.load_parameter_vector(weights - (scaled_gradient + correction))
            corrections.append(correction)
        sma.apply_corrections(corrections)
    elapsed = time.perf_counter() - started
    return {
        "seconds_per_iteration": elapsed / iterations,
        "weights": np.stack([model.parameter_vector() for model in models]),
        "center": sma.center.copy(),
    }


def _run_fused_bank(k: int, iterations: int) -> Dict[str, object]:
    """The replica-bank path: one fused (k, P) matrix update per iteration."""
    models = _models(k)
    p = models[0].num_parameters()
    center = models[0].parameter_vector()
    bank = ReplicaBank(p, capacity=k)
    for model in models:
        bank.attach(model)
    sma = SMA(center, k, SMAConfig(momentum=0.9))
    gradients = _gradients(k, p)
    updates = np.empty_like(gradients)
    started = time.perf_counter()
    for _ in range(iterations):
        np.multiply(gradients, LEARNING_RATE, out=updates)
        sma.step_matrix(bank.active_matrix(), updates)
    elapsed = time.perf_counter() - started
    return {
        "seconds_per_iteration": elapsed / iterations,
        "weights": bank.active_matrix().copy(),
        "center": sma.center.copy(),
    }


def test_replica_bank_speedup(report):
    rows = []
    speedups: Dict[int, float] = {}
    for k in LEARNER_COUNTS:
        # Warm up both paths once so allocator effects don't skew the timing.
        _run_per_learner_loop(k, 2)
        _run_fused_bank(k, 2)
        # Best-of-3 timing keeps the ratio robust to noisy-neighbour CI runners;
        # both paths are deterministic, so any run pair works for the
        # bit-compatibility check.
        loop_runs = [_run_per_learner_loop(k, ITERATIONS) for _ in range(3)]
        fused_runs = [_run_fused_bank(k, ITERATIONS) for _ in range(3)]
        loop, fused = loop_runs[0], fused_runs[0]

        # Bit-compatibility: both paths must land on the same replica weights
        # and central model after identical iterations from identical inputs.
        np.testing.assert_allclose(fused["weights"], loop["weights"], atol=1e-6)
        np.testing.assert_allclose(fused["center"], loop["center"], atol=1e-6)

        loop_time = min(run["seconds_per_iteration"] for run in loop_runs)
        fused_time = min(run["seconds_per_iteration"] for run in fused_runs)
        speedup = loop_time / fused_time
        speedups[k] = speedup
        rows.append(
            {
                "model": MODEL,
                "learners": k,
                "loop_ms_per_iter": round(1e3 * loop_time, 4),
                "fused_ms_per_iter": round(1e3 * fused_time, 4),
                "speedup": round(speedup, 2),
            }
        )
    report("replica_bank_speedup", rows)

    # The fused matrix step must beat the per-learner loop by >= 3x at k = 16.
    assert speedups[16] >= 3.0, f"fused SMA step only {speedups[16]:.2f}x faster at k=16"
    for k in LEARNER_COUNTS:
        assert speedups[k] > 1.0
