"""Pluggable kernel providers for the dense ``(k, P)`` hot paths.

Crossbow's throughput comes from fusing many small per-learner updates into a
few large dense operations (§4 of the paper).  Two of them sit behind this
module:

* the gradient gather — per-parameter gradients copied into one flat
  ``(k, P)`` update row per learner (plus the learning-rate row scaling), and
* the batched evaluation forward — per-layer ``(k, in, out)`` weight stacks
  applied to shared test activations in
  :class:`~repro.serve.pool.BatchedEvaluator`.

The third, the fused synchronisation step (``SMA/EASGD.step_matrix``), is not
a provider op: it is one cache-blocked kernel in :mod:`repro.optim.step`.

This module puts those operations behind a narrow :class:`KernelBackend`
protocol and a registry, so the arithmetic can be routed to the best
implementation available on the host without the callers changing:

* ``numpy`` — the reference provider.  Mirrors the historical call-for-call
  NumPy arithmetic exactly; every other provider is tested bit-identical to
  it.
* ``blas_batched`` — stacks per-model operands and issues one batched GEMM
  (``np.matmul`` over a leading ``k`` axis) instead of ``k`` separate calls.
  Same floats: a batched GEMM applies the same multiply-accumulate per slice,
  which the provider test suite pins down.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "BlasBatchedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "DEFAULT_BACKEND",
]

#: name of the reference provider; ``get_backend()`` with no argument returns it
DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Reference kernel provider — plain NumPy, one call per logical op.

    Subclass and override individual kernels to plug in a faster
    implementation; the base-class methods *are* the numpy reference
    arithmetic, so a provider only overrides what it accelerates.  All
    providers must return bit-identical floats to this class (the
    parametrized suite in ``tests/test_backend.py`` enforces it for every
    registered provider).
    """

    #: registry key; subclasses must override
    name = "numpy"
    #: one-line description shown in docs and ``available_backends`` listings
    description = "reference NumPy kernels (the arithmetic every provider must match)"

    # -- gradient gather -----------------------------------------------------------------
    def gather(
        self, segments: Iterable[Tuple[Optional[np.ndarray], int]], out: np.ndarray
    ) -> np.ndarray:
        """Gather per-parameter gradient segments into one flat ``P`` row.

        ``segments`` yields ``(gradient_or_None, size)`` in parameter order;
        ``None`` gathers zeros (a parameter that received no gradient).  Every
        operator returns its parameter gradients C-contiguous, so each copy
        is a straight memcpy.
        """
        offset = 0
        for gradient, size in segments:
            chunk = out[offset : offset + size]
            if gradient is None:
                chunk[...] = 0.0
            else:
                chunk[...] = gradient.reshape(-1)
            offset += size
        return out

    def scale_rows(self, matrix: np.ndarray, scale: float) -> np.ndarray:
        """``matrix *= scale`` in place — the learning-rate scaling of the gather."""
        np.multiply(matrix, scale, out=matrix)
        return matrix

    # -- batched evaluation forward ------------------------------------------------------
    def batched_linear(
        self,
        act: np.ndarray,
        weight_stack: np.ndarray,
        bias_stack: Optional[np.ndarray],
    ) -> np.ndarray:
        """Affine transform of ``act`` by a ``(k, in, out)`` weight stack.

        ``act`` is either shared ``(n, in)`` activations (broadcast across the
        stack) or per-model ``(k, n, in)``; the result always carries the
        leading ``k`` axis.  This is the formulation the batched evaluator has
        always used: ``np.matmul`` applies the same multiply-accumulate per
        model slice as ``k`` separate GEMMs (pinned by the provider tests).
        """
        result: np.ndarray = np.matmul(act, weight_stack)
        if bias_stack is not None:
            result = result + bias_stack
        return result

    def relu(self, act: np.ndarray) -> np.ndarray:
        """``act * (act > 0)`` — mirrors ``F.relu``'s forward exactly."""
        return act * (act > 0)

    def batched_conv2d(self, weight_stack: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Convolution of im2col columns by a ``(k, of, f)`` weight stack.

        ``cols`` is either shared ``(n, f, p)`` columns (all models convolve
        the same activations — the first conv layer) or per-model
        ``(k, n, f, p)``.  Returns ``(k, n, of, p)``.  The reference issues the
        sequential path's exact product (``F.conv2d``'s ``w_mat @ cols``) once
        per model.
        """
        return np.stack(
            [
                np.matmul(weight_stack[i], cols if cols.ndim == 3 else cols[i])
                for i in range(weight_stack.shape[0])
            ]
        )

    def batched_batchnorm(
        self,
        act: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        mean: np.ndarray,
        var: np.ndarray,
        eps: float,
    ) -> np.ndarray:
        """Eval-mode batch norm with per-model ``(k, C)`` statistic stacks.

        ``act`` is ``(n, C, H, W)`` / ``(k, n, C, H, W)`` (or the 2-d
        variants); statistics broadcast from ``(k, 1, C[, 1, 1])``.  The
        elementwise chain is exactly ``F.batch_norm``'s inference path —
        ``(x - mean) * (1 / sqrt(var + eps)) * gamma + beta`` — so batching is
        bit-identical to the per-model call.
        """
        spatial = act.ndim >= 4  # (n, C, H, W) or (k, n, C, H, W)
        shape = (-1, 1, gamma.shape[-1], 1, 1) if spatial else (-1, 1, gamma.shape[-1])
        inv_std = 1.0 / np.sqrt(var.reshape(shape) + eps)
        x_hat = (act - mean.reshape(shape)) * inv_std
        result: np.ndarray = gamma.reshape(shape) * x_hat + beta.reshape(shape)
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: Backward-compatible alias: the base class is the numpy reference provider.
NumpyBackend = KernelBackend


class BlasBatchedBackend(KernelBackend):
    """Batched-GEMM provider: one stacked BLAS call instead of ``k`` small ones.

    ``np.matmul`` over a leading ``k`` axis dispatches to the same BLAS
    multiply-accumulate per slice, so results stay bit-identical to the
    per-model reference while the ``k`` dispatch overheads collapse into one.
    """

    name = "blas_batched"
    description = "stacked matmul batched-GEMM over the leading k axis"

    def batched_conv2d(self, weight_stack: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # (k, 1, of, f) @ (n, f, p) or (k, n, f, p): one stacked matmul either way.
        result: np.ndarray = np.matmul(weight_stack[:, None], cols)
        return result


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, overwrite: bool = False) -> KernelBackend:
    """Add a provider to the registry under ``backend.name``.

    Third-party providers subclass :class:`KernelBackend`, override the
    kernels they accelerate, and register an instance; ``overwrite=False``
    protects the built-ins from accidental shadowing.
    """
    if not backend.name:
        raise ConfigurationError("kernel backend must have a non-empty name")
    if backend.name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"kernel backend {backend.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of every registered provider, reference first."""
    names = sorted(_REGISTRY)
    names.remove(DEFAULT_BACKEND)
    return [DEFAULT_BACKEND, *names]


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Look up a provider by name; ``None`` returns the numpy reference.

    An unknown name raises :class:`~repro.errors.ConfigurationError`.
    """
    key = name or DEFAULT_BACKEND
    backend = _REGISTRY.get(key)
    if backend is not None:
        return backend
    raise ConfigurationError(
        f"unknown kernel backend {key!r}; available: {', '.join(available_backends())}"
    )


def resolve_backend(backend: Union[KernelBackend, str, None]) -> KernelBackend:
    """Normalise a user-facing backend spec (instance, name, or None)."""
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend(backend)


register_backend(KernelBackend())
register_backend(BlasBatchedBackend())
