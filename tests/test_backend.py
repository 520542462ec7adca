"""Tests for the trainer's sync section and probe-driven mode selection.

The sync section -- ``KernelBackend.scale_rows`` on the ``(k, P)`` update
matrix, then the fused ``step_matrix`` -- must produce the exact floats of
Algorithm 1 run one replica at a time, for SMA and EA-SGD at k in {1, 4, 16}.
So must the step that takes the raw gradient rows with the learning rate and
weight decay and folds them into its block loop, against the unfused
order: scale, add the decay term, then step.
The ``execution="auto"`` calibration probe is covered after it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer, modeselect
from repro.optim.easgd import EASGD
from repro.optim.sma import SMA, SMAConfig
from repro.tensor.backend import KernelBackend
from repro.telemetry.runtime import host_name
from repro.telemetry.store import TelemetryStore


def _bank(k, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, p)).astype(np.float32)


def _sync_section_matches_per_replica_loop(make_sync, k, p, seed, weight_decay=None):
    """``scale_rows`` + fused ``step_matrix`` == Algorithm 1 one replica at a time.

    With ``weight_decay``, the step gets the raw gradients, the learning rate
    and the decay instead, and the oracle adds ``w (lr wd)`` to each row.
    """
    backend = KernelBackend()
    initial = _bank(1, p, seed=seed)[0]
    fused, oracle = make_sync(initial), make_sync(initial)
    weights = initial + 0.1 * _bank(k, p, seed=seed + 1)
    replicas = list(weights.copy())
    for step in range(4):
        gradients = _bank(k, p, seed=seed + 10 + step)
        if weight_decay is None:
            fused.step_matrix(weights, backend.scale_rows(gradients.copy(), 0.05))
        else:
            fused.step_matrix(
                weights, gradients.copy(), learning_rate=0.05, weight_decay=weight_decay
            )
        corrections = [oracle.correction(w) for w in replicas]
        scaled = [g * np.float32(0.05) for g in gradients]
        if weight_decay is not None:
            scaled = [u + w * np.float32(0.05 * weight_decay) for u, w in zip(scaled, replicas)]
        replicas = [w - (u + c) for w, u, c in zip(replicas, scaled, corrections)]
        oracle.apply_corrections(corrections)
    np.testing.assert_array_equal(weights, np.stack(replicas))
    np.testing.assert_array_equal(fused.center, oracle.center)


# ------------------------------------------------------------------- sync section
@pytest.mark.parametrize("k", [1, 4, 16])
class TestSyncSection:
    def test_sma_step_matrix(self, k):
        _sync_section_matches_per_replica_loop(lambda z: SMA(z, num_replicas=k), k, p=257, seed=1)

    def test_easgd_step_matrix(self, k):
        _sync_section_matches_per_replica_loop(
            lambda z: EASGD(z, num_replicas=k), k, p=129, seed=2
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda z, k: SMA(z, num_replicas=k),
            lambda z, k: SMA(z, num_replicas=k, config=SMAConfig(alpha=0.0)),
            lambda z, k: EASGD(z, num_replicas=k),
        ],
        ids=["sma", "sma-alpha0", "easgd"],
    )
    def test_raw_gradients_with_learning_rate_and_decay(self, k, make):
        _sync_section_matches_per_replica_loop(
            lambda z: make(z, k), k, p=193, seed=3, weight_decay=1e-2
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

    def test_resolve_auto_never_pipelines_ssgd(self, monkeypatch):
        # S-SGD's global barrier leaves no step to overlap with the next gradients.
        pipelined = modeselect.ProbeResult("host", 8, 0.5, 1.0, "process", 1)
        monkeypatch.setattr(modeselect, "probe_host", lambda store=None: pipelined)
        config = _config(execution="auto", synchronisation="ssgd", replicas_per_gpu=1)
        resolved = modeselect.resolve_auto_execution(config)
        assert (resolved.execution, resolved.pipeline_depth) == ("process", 0)
        assert modeselect.resolve_auto_execution(_config(execution="auto")).pipeline_depth == 1

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
