"""Tests for the pluggable kernel backend and probe-driven mode selection.

The backend contract is bit-identity: every registered provider must produce
the exact floats of the ``numpy`` reference on its dense hot paths (gradient
gather and update-row scaling, batched evaluation forward), and the trainer's
sync section built on them -- ``scale_rows`` then the fused ``step_matrix`` --
must match the per-replica Algorithm 1.  These tests pin that contract down
per provider and per operation, then cover the registry semantics (unknown
names, duplicate registration) and the ``execution="auto"`` calibration probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer, modeselect
from repro.errors import ConfigurationError
from repro.models import create_model
from repro.optim.easgd import EASGD
from repro.optim.sma import SMA
from repro.tensor import Tensor
from repro.tensor import backend as backend_module
from repro.tensor import functional as F
from repro.tensor.backend import (
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.tensor.functional import _im2col
from repro.telemetry.runtime import host_name
from repro.telemetry.store import TelemetryStore
from repro.utils.rng import RandomState

PROVIDERS = available_backends()


def _bank(k, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, p)).astype(np.float32)


def _sync_section_matches_per_replica_loop(provider, make_sync, k, p, seed):
    """``provider.scale_rows`` + fused ``step_matrix`` == Algorithm 1 one replica at a time."""
    backend = get_backend(provider)
    initial = _bank(1, p, seed=seed)[0]
    fused, oracle = make_sync(initial), make_sync(initial)
    weights = initial + 0.1 * _bank(k, p, seed=seed + 1)
    replicas = list(weights.copy())
    for step in range(4):
        gradients = _bank(k, p, seed=seed + 10 + step)
        updates = backend.scale_rows(gradients.copy(), 0.05)
        fused.step_matrix(weights, updates)
        corrections = [oracle.correction(w) for w in replicas]
        scaled = [g * np.float32(0.05) for g in gradients]
        replicas = [w - (u + c) for w, u, c in zip(replicas, scaled, corrections)]
        oracle.apply_corrections(corrections)
    np.testing.assert_array_equal(weights, np.stack(replicas))
    np.testing.assert_array_equal(fused.center, oracle.center)


# ----------------------------------------------------------------------- registry
class TestRegistry:
    def test_reference_provider_listed_first(self):
        assert PROVIDERS[0] == "numpy"
        assert "blas_batched" in PROVIDERS

    def test_default_is_the_reference(self):
        assert get_backend().name == "numpy"
        assert get_backend(None).name == "numpy"

    def test_unknown_provider_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("cublas")

    def test_resolve_accepts_instances_and_names(self):
        instance = get_backend("blas_batched")
        assert resolve_backend(instance) is instance
        assert resolve_backend("blas_batched") is instance
        assert resolve_backend(None).name == "numpy"

    def test_duplicate_registration_needs_overwrite(self):
        class _Probe(KernelBackend):
            name = "test-probe"

        register_backend(_Probe())
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend(_Probe())
            register_backend(_Probe(), overwrite=True)  # explicit replace is fine
        finally:
            backend_module._REGISTRY.pop("test-probe")


# ----------------------------------------------------------- provider bit-identity
@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("k", [1, 4, 16])
class TestProviderBitIdentity:
    def test_sma_step_matrix(self, provider, k):
        _sync_section_matches_per_replica_loop(
            provider, lambda z: SMA(z, num_replicas=k), k, p=257, seed=1
        )

    def test_easgd_step_matrix(self, provider, k):
        _sync_section_matches_per_replica_loop(
            provider, lambda z: EASGD(z, num_replicas=k), k, p=129, seed=2
        )

    def test_gradient_gather(self, provider, k):
        model = create_model("mlp", rng=RandomState(3), input_dim=8, num_classes=4)
        rng = np.random.default_rng(k)
        for index, param in enumerate(model.parameters()):
            # Leave one parameter's gradient unset: gather must zero-fill it.
            param.grad = (
                None
                if index == 1
                else rng.standard_normal(param.data.shape).astype(np.float32)
            )
        plain = model.gradient_vector()
        routed = model.gradient_vector(backend=get_backend(provider))
        np.testing.assert_array_equal(plain, routed)

    def test_fused_evaluation_forward(self, provider, k):
        """Linear / ReLU / conv / BN batched kernels match the reference floats."""
        reference = get_backend("numpy")
        candidate = get_backend(provider)
        rng = np.random.default_rng(40 + k)

        act = rng.standard_normal((k, 6, 5)).astype(np.float32)
        weights = rng.standard_normal((k, 5, 3)).astype(np.float32)
        bias = rng.standard_normal((k, 1, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            reference.batched_linear(act, weights, bias),
            candidate.batched_linear(act, weights, bias),
        )
        np.testing.assert_array_equal(reference.relu(act), candidate.relu(act))

        # Shared and per-model im2col column buffers, as the evaluator emits
        # them before/after the first parameterised op.
        conv_weights = rng.standard_normal((k, 4, 18)).astype(np.float32)
        shared_cols = rng.standard_normal((6, 18, 9)).astype(np.float32)
        batched_cols = rng.standard_normal((k, 6, 18, 9)).astype(np.float32)
        np.testing.assert_array_equal(
            reference.batched_conv2d(conv_weights, shared_cols),
            candidate.batched_conv2d(conv_weights, shared_cols),
        )
        np.testing.assert_array_equal(
            reference.batched_conv2d(conv_weights, batched_cols),
            candidate.batched_conv2d(conv_weights, batched_cols),
        )
        # ... and both are the sequential layer's exact product, float for float.
        images = rng.standard_normal((6, 2, 5, 5)).astype(np.float32)
        image_cols, _, _ = _im2col(images, 3, 3, 1, 0)
        fused = candidate.batched_conv2d(conv_weights, image_cols)
        for i in range(k):
            sequential = F.conv2d(Tensor(images), Tensor(conv_weights[i].reshape(4, 2, 3, 3)))
            np.testing.assert_array_equal(fused[i].reshape(6, 4, 3, 3), sequential.data)

        spatial = rng.standard_normal((k, 6, 4, 3, 3)).astype(np.float32)
        gamma = rng.standard_normal((k, 4)).astype(np.float32)
        beta = rng.standard_normal((k, 4)).astype(np.float32)
        mean = rng.standard_normal((k, 4)).astype(np.float32)
        var = (1.0 + rng.uniform(0.0, 1.0, size=(k, 4))).astype(np.float32)
        np.testing.assert_array_equal(
            reference.batched_batchnorm(spatial, gamma, beta, mean, var, 1e-5),
            candidate.batched_batchnorm(spatial, gamma, beta, mean, var, 1e-5),
        )


# ------------------------------------------------------------- trainer integration
_DATASET = {"num_train": 256, "num_test": 128, "noise_scale": 2.5}


def _config(**overrides):
    defaults = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=2,
        max_epochs=2,
        dataset_overrides=dict(_DATASET),
        seed=7,
    )
    defaults.update(overrides)
    return CrossbowConfig(**defaults)


# ------------------------------------------------------------------ mode selection
class TestModeSelection:
    def test_recommend_is_monotone_in_cores(self):
        assert modeselect.recommend(1, 0.5, -1.0) == ("serial", 0)
        assert modeselect.recommend(2, 0.5, 1.0) == ("process", 0)
        assert modeselect.recommend(8, 0.5, 1.0) == ("process", 1)
        # A round-trip dearer than the budget kills process mode regardless.
        assert modeselect.recommend(8, 0.01, 100.0) == ("serial", 0)

    def test_probe_on_one_core_host_selects_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        store = TelemetryStore(tmp_path / "telemetry.sqlite")
        try:
            probe = modeselect.probe_host(store=store)
            assert (probe.execution, probe.pipeline_depth) == ("serial", 0)
            assert probe.cores == 1
            assert probe.worker_roundtrip_ms == -1.0  # skipped, not measured
            assert not probe.cached
            # The measurement landed in the store under the host's bench name.
            bench = f"modeselect_probe/{probe.host}"
            history = store.bench_history(bench, row_index=0, metric="cores", last_n=1)
            assert [value for _, value in history] == [1.0]
        finally:
            store.close()

    def test_second_probe_is_served_from_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        store = TelemetryStore(tmp_path / "telemetry.sqlite")
        try:
            first = modeselect.probe_host(store=store)

            def _boom():
                raise AssertionError("cached probe must not re-measure")

            monkeypatch.setattr(modeselect, "_time_fused_step", _boom)
            second = modeselect.probe_host(store=store)
            assert second.cached
            assert (second.execution, second.pipeline_depth) == (
                first.execution,
                first.pipeline_depth,
            )
        finally:
            store.close()

    def test_row_without_the_step_kernel_version_is_re_probed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        monkeypatch.setattr(modeselect, "_time_fused_step", lambda: 2.5)
        store = TelemetryStore(tmp_path / "telemetry.sqlite")
        try:
            host = host_name()
            # A row as probes wrote it before they recorded the step kernel,
            # timed against the old, slower step.
            store.record_run("unversioned-probe", started_at=1.0)
            store.insert_bench_rows(
                f"modeselect_probe/{host}",
                [
                    {
                        "host": host,
                        "cores": 1,
                        "fused_step_ms": 15.9,
                        "worker_roundtrip_ms": -1.0,
                        "execution": "serial",
                        "pipeline_depth": 0,
                    }
                ],
                run_id="unversioned-probe",
            )
            fresh = modeselect.probe_host(store=store)
            assert not fresh.cached and fresh.fused_step_ms == 2.5
            again = modeselect.probe_host(store=store)
            assert again.cached and again.fused_step_ms == 2.5
        finally:
            store.close()

    def test_resolve_auto_passthrough_for_explicit_modes(self):
        config = _config(execution="serial")
        assert modeselect.resolve_auto_execution(config) is config

    def test_trainer_auto_resolves_serial_on_one_core(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_TELEMETRY_DB", str(tmp_path / "telemetry.sqlite"))
        trainer = CrossbowTrainer(_config(execution="auto"))
        try:
            assert trainer.config.execution == "serial"
            assert trainer.config.pipeline_depth == 0
        finally:
            trainer.close()
        # The probe row persisted, so a second trainer reuses it (cache hit).
        monkeypatch.setattr(
            modeselect,
            "_time_fused_step",
            lambda: (_ for _ in ()).throw(AssertionError("must hit the cache")),
        )
        again = CrossbowTrainer(_config(execution="auto"))
        try:
            assert again.config.execution == "serial"
        finally:
            again.close()
