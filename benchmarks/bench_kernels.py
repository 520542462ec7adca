"""Kernel microbenchmark: the dense hot paths, per kernel provider where there is one.

The pluggable backend (:mod:`repro.tensor.backend`) routes the gradient
gather and the batched-evaluation forward to a registered kernel provider.
Providers are bit-identical by contract (``tests/test_backend.py`` pins the
floats), so this benchmark measures the only thing they may change: speed.
The fused ``step_matrix`` synchronisation is not a provider op -- it is the
one cache-blocked kernel in :mod:`repro.optim.step` -- so it gets a single
row.  Every row carries an ``ops_per_s`` throughput column that feeds the CI
regression gate, so a provider silently losing its edge (or the reference
path regressing) fails the build like any other perf regression.

The gather gathers the gradients of a real backward through the benchmark's
wide MLP, in whatever layout the operators leave them: a transposed weight
gradient would show up here as a strided copy, not only end to end.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.models import create_model
from repro.optim import SMA, SMAConfig
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.backend import available_backends, get_backend
from repro.utils.rng import RandomState

REPLICAS = 16
PARAMETERS = 65536
ITERATIONS = 60
SMOKE_ITERATIONS = 5

#: gather workload: one learner's gradients after a backward through the
#: benchmark's wide MLP (1.84M parameters)
GATHER_MLP = {"input_dim": 256, "num_classes": 10, "hidden_sizes": (1024, 1024, 512)}
GATHER_BATCH = 32

#: batched-evaluation workload: one conv + one linear layer at eval shapes
EVAL_BATCH = 64
CONV_FEATURES = 72  # in_channels * kh * kw
CONV_CHANNELS = 16
CONV_POSITIONS = 64  # oh * ow
LINEAR_IN = 256
LINEAR_OUT = 10


def _time_op(op, iterations: int) -> float:
    """Best-of-3 mean seconds per call (the op itself loops internally)."""
    op()  # warm-up: allocations, BLAS initialisation, einsum paths
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(iterations):
            op()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best


def _step_matrix_op():
    rng = np.random.default_rng(7)
    initial = rng.standard_normal(PARAMETERS).astype(np.float32)
    weights = np.tile(initial, (REPLICAS, 1))
    updates = (0.01 * rng.standard_normal((REPLICAS, PARAMETERS))).astype(np.float32)
    sma = SMA(initial, REPLICAS, SMAConfig(momentum=0.9))
    return lambda: sma.step_matrix(weights, updates)


def _gather_op(provider: str):
    backend = get_backend(provider)
    rng = np.random.default_rng(8)
    model = create_model("mlp", rng=RandomState(8), **GATHER_MLP)
    images = rng.standard_normal((GATHER_BATCH, GATHER_MLP["input_dim"])).astype(np.float32)
    labels = rng.integers(0, GATHER_MLP["num_classes"], size=GATHER_BATCH)
    F.cross_entropy(model(Tensor(images)), labels).backward()
    segments = [(param.grad, param.data.size) for param in model.parameters()]
    out = np.empty(model.num_parameters(), dtype=np.float32)
    return lambda: backend.gather(iter(segments), out)


def _fused_forward_op(provider: str):
    backend = get_backend(provider)
    rng = np.random.default_rng(9)
    conv_weights = rng.standard_normal((REPLICAS, CONV_CHANNELS, CONV_FEATURES)).astype(
        np.float32
    )
    cols = rng.standard_normal((EVAL_BATCH, CONV_FEATURES, CONV_POSITIONS)).astype(np.float32)
    act = rng.standard_normal((EVAL_BATCH, LINEAR_IN)).astype(np.float32)
    linear_weights = rng.standard_normal((REPLICAS, LINEAR_IN, LINEAR_OUT)).astype(np.float32)
    bias = rng.standard_normal((REPLICAS, 1, LINEAR_OUT)).astype(np.float32)

    def op():
        conv_out = backend.batched_conv2d(conv_weights, cols)
        backend.relu(conv_out)
        return backend.batched_linear(act, linear_weights, bias)

    return op


#: ops a kernel provider may override, timed once per registered provider
_PROVIDER_OPS = {
    "gather": _gather_op,
    "fused_forward": _fused_forward_op,
}


def _row(op_name: str, provider: str, k: int, seconds: float) -> Dict[str, object]:
    return {
        "op": op_name,
        "provider": provider,
        "k": k,
        "ms_per_call": round(1e3 * seconds, 4),
        "ops_per_s": round(1.0 / seconds, 1),
    }


def _kernel_rows(iterations: int) -> List[Dict[str, object]]:
    # The step is no provider's op: one row, labelled with the reference.
    rows = [_row("step_matrix", "numpy", REPLICAS, _time_op(_step_matrix_op(), iterations))]
    for op_name, build in _PROVIDER_OPS.items():
        for provider in available_backends():
            k = 1 if op_name == "gather" else REPLICAS  # the gather fills one learner's row
            rows.append(_row(op_name, provider, k, _time_op(build(provider), iterations)))
    return rows


def test_kernel_backend_throughput(report):
    rows = _kernel_rows(ITERATIONS)
    report("kernel_backends", rows)
    # Sanity, not a perf gate (that is check_bench_regression's job): every
    # registered provider produced a finite positive throughput on every op.
    assert len(rows) == 1 + len(_PROVIDER_OPS) * len(available_backends())
    for row in rows:
        assert row["ops_per_s"] > 0.0


# ----------------------------------------------------------------------- CLI / smoke
def main(argv: Optional[List[str]] = None) -> int:
    import conftest

    args = conftest.bench_cli(__doc__, argv)
    iterations = SMOKE_ITERATIONS if args.smoke else ITERATIONS
    rows = _kernel_rows(iterations)
    conftest.standalone_report("kernel_backends_smoke" if args.smoke else "kernel_backends", rows)
    providers = ", ".join(available_backends())
    print(f"ok: {len(rows)} kernel rows measured (providers: {providers})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
