"""Operand-order sweep of the linear layer's forward: ``x @ W.T`` vs ``W @ x.T``.

``F.linear`` multiplies a narrow batch weight first, as
``np.ascontiguousarray((W @ x.T).T)``, and keeps ``x @ W.T`` otherwise; the
rule (``repro.tensor.functional._weight_first``) takes its constant from
this table.  The sweep times both forms at 1-512 rows on the benchmark MLP's
four layers (``256 -> 1024 -> 1024 -> 512 -> 10``) and the ResNet head
(``64 -> 10``), and prints their medians, the ratio and the form the rule
picks.  It records; it asserts no speed.  It does assert that the two forms
give the same floats at every shape, which holds on the OpenBLAS that
NumPy's wheels bundle and is what makes the rule free to move.  After a BLAS
upgrade, rerun it with BLAS on one thread (as the whole-path benchmark runs)
to see whether the crossover moved:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q -s benchmarks/bench_linear_orientation.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.tensor.functional import _weight_first

LAYERS = ((256, 1024), (1024, 1024), (1024, 512), (512, 10), (64, 10))
ROWS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
REPEATS = 51


def _input_first(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return x @ weight.T


def _weight_first_product(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray((weight @ x.T).T)


def _medians_us(x: np.ndarray, weight: np.ndarray) -> tuple:
    """Median µs per call of each form, timed interleaved in alternating order."""
    forms = (_input_first, _weight_first_product)
    samples: tuple = ([], [])
    for repeat in range(REPEATS):
        order = (0, 1) if repeat % 2 == 0 else (1, 0)
        for index in order:
            started = time.perf_counter()
            forms[index](x, weight)
            samples[index].append(time.perf_counter() - started)
    return tuple(1e6 * float(np.median(times)) for times in samples)


def test_linear_orientation_sweep(report):
    rng = np.random.default_rng(0)
    rows_out = []
    for fan_in, fan_out in LAYERS:
        weight = rng.normal(size=(fan_out, fan_in)).astype(np.float32)
        for rows in ROWS:
            x = rng.normal(size=(rows, fan_in)).astype(np.float32)
            np.testing.assert_array_equal(
                _weight_first_product(x, weight), _input_first(x, weight)
            )
            input_first_us, weight_first_us = _medians_us(x, weight)
            rows_out.append(
                {
                    "layer": f"{fan_in}->{fan_out}",
                    "rows": rows,
                    "x_wt_us": round(input_first_us, 1),
                    "w_xt_us": round(weight_first_us, 1),
                    "speedup": round(input_first_us / weight_first_us, 2),
                    "rule_picks": "W @ x.T" if _weight_first(rows, fan_out) else "x @ W.T",
                }
            )
    report("linear_orientation", rows_out)
