"""Learner lanes: the serial learners of one iteration run on parallel threads.

``LearnerLanes`` hands learner ``j`` to lane ``j mod w``.  Every learner owns
its model, its dropout stream and its row of the update matrix, so the width
must change no float: these tests force widths 1-3 through the one
module-level function the lanes consult (``repro.engine.learner.lane_width``)
and compare whole training runs bit for bit.  They also pin the width rule,
the helper threads' lifetime and the conv layer's saved-for-backward memory.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.data import create_dataset
from repro.engine import CrossbowConfig, CrossbowTrainer
from repro.engine import learner as learner_module
from repro.models import create_model
from repro.models.registry import MODEL_REGISTRY
from repro.nn import Dropout, Flatten, Linear, Module, ReLU, Sequential
from repro.nn.losses import CrossEntropyLoss
from repro.tensor.tensor import Tensor
from repro.utils.rng import RandomState

WIDTHS = (1, 2, 3)
LEARNER_COUNTS = (1, 2, 3, 4)


class _DropoutMLP(Module):
    """The registry's small MLP with a dropout layer between its hidden layers."""

    def __init__(self, rng=None, input_dim: int = 32, num_classes: int = 4) -> None:
        super().__init__()
        self.net = Sequential(
            Flatten(),
            Linear(input_dim, 32, rng=rng),
            ReLU(),
            Dropout(0.3, rng=rng),
            Linear(32, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


@pytest.fixture
def dropout_mlp(monkeypatch):
    """Serve ``_DropoutMLP`` under the registry name "mlp" for one test."""
    monkeypatch.setitem(MODEL_REGISTRY._entries, "mlp", _DropoutMLP)


def _force_width(monkeypatch, width: int) -> None:
    monkeypatch.setattr(learner_module, "lane_width", lambda k: min(k, width))


def _config(model: str, k: int, **overrides) -> CrossbowConfig:
    if model == "mlp":
        base = dict(
            model_name="mlp",
            dataset_name="blobs",
            batch_size=8,
            dataset_overrides={"num_train": 96, "num_test": 32},
        )
    else:
        base = dict(
            model_name="resnet32-scaled",
            dataset_name="cifar10-scaled",
            batch_size=4,
            dataset_overrides={"num_train": 32, "num_test": 8},
        )
    base.update(
        num_gpus=1,
        replicas_per_gpu=k,
        max_epochs=2,
        target_accuracy=None,
        evaluate_every_epochs=0,
        seed=11,
    )
    base.update(overrides)
    return CrossbowConfig(**base)


def _train(config: CrossbowConfig):
    trainer = CrossbowTrainer(config)
    try:
        result = trainer.train()
        buffers = [
            np.array(buffer, copy=True)
            for learner in trainer.learners
            for _, buffer in learner.model.named_buffers()
        ]
        return {
            "bank": trainer.replica_bank.active_matrix().copy(),
            "center": trainer.central_model_vector(),
            "buffers": buffers,
            "losses": [record.train_loss for record in result.metrics.records],
            "lanes": result.extra["learner_lanes"],
        }
    finally:
        trainer.close()


# ----------------------------------------------------------------- same floats
@pytest.mark.parametrize("model", ["mlp", "resnet32-scaled"])
@pytest.mark.parametrize("k", LEARNER_COUNTS)
def test_lanes_change_no_float(monkeypatch, dropout_mlp, model, k):
    runs = {}
    for width in WIDTHS:
        _force_width(monkeypatch, width)
        runs[width] = _train(_config(model, k))
        assert runs[width]["lanes"] == min(k, width)
    if model == "resnet32-scaled":
        assert runs[1]["buffers"], "BatchNorm running buffers expected"
    reference = runs[1]
    for width in WIDTHS[1:]:
        run = runs[width]
        np.testing.assert_array_equal(run["bank"], reference["bank"])
        np.testing.assert_array_equal(run["center"], reference["center"])
        assert len(run["buffers"]) == len(reference["buffers"])
        for got, want in zip(run["buffers"], reference["buffers"]):
            np.testing.assert_array_equal(got, want)
        assert run["losses"] == reference["losses"]


def test_dropout_model_draws_masks(dropout_mlp):
    """The MLP variant really drops: two training forwards differ."""
    model = create_model("mlp", rng=RandomState(0))
    x = Tensor(np.ones((4, 32), dtype=np.float32))
    assert not np.array_equal(model(x).data, model(x).data)


# ----------------------------------------------------------------- width rule
class TestLaneWidth:
    def test_one_cpu_mask_gives_one_lane(self, monkeypatch):
        monkeypatch.setattr(learner_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert learner_module.lane_width(4) == 1

    def test_blas_on_every_core_gives_one_lane(self, monkeypatch):
        monkeypatch.setattr(
            learner_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert learner_module.lane_width(4) == 1

    def test_unset_blas_means_one_thread_per_core(self, monkeypatch):
        monkeypatch.setattr(
            learner_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert learner_module.lane_width(4) == 1

    def test_one_blas_thread_gives_a_lane_per_core_up_to_k(self, monkeypatch):
        monkeypatch.setattr(
            learner_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert learner_module.lane_width(8) == 4
        assert learner_module.lane_width(3) == 3
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert learner_module.lane_width(8) == 2

    def test_omp_is_read_when_openblas_is_unset(self, monkeypatch):
        monkeypatch.setattr(
            learner_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert learner_module.lane_width(2) == 2

    def test_process_mode_reports_one_lane(self):
        from repro.engine import process_execution_supported

        if not process_execution_supported():  # pragma: no cover - non-POSIX only
            pytest.skip("fork start method unavailable")
        run = _train(_config("mlp", 2, execution="process", max_epochs=1))
        assert run["lanes"] == 1


def test_telemetry_records_the_width_and_its_inputs(monkeypatch):
    from repro.telemetry.recorder import Recorder, get_recorder, set_recorder

    _force_width(monkeypatch, 2)
    previous = get_recorder()
    recorder = set_recorder(Recorder(run_id="lanes-test"))
    try:
        _train(_config("mlp", 2, max_epochs=1))
        events = recorder.drain()
    finally:
        set_recorder(previous)
    (lanes,) = [event for event in events if event[2] == "trainer.learner_lanes"]
    cores = len(learner_module.usable_cpus())
    assert lanes[1] == "counter" and lanes[3] == 2.0
    assert lanes[5] == {
        "execution": "serial",
        "cores": cores,
        "blas_threads": learner_module.blas_threads(cores),
    }


# ------------------------------------------------------------- thread lifetime
def _lane_threads():
    return [thread for thread in threading.enumerate() if thread.name.startswith("learner-lane")]


class TestLaneLifetime:
    def test_train_leaves_no_thread_behind(self, monkeypatch):
        _force_width(monkeypatch, 3)
        before = threading.active_count()
        run = _train(_config("mlp", 3))
        assert run["lanes"] == 3
        assert threading.active_count() == before

    def test_learner_error_joins_every_lane_then_raises(self, monkeypatch):
        _force_width(monkeypatch, 2)
        trainer = CrossbowTrainer(_config("mlp", 2))
        calls = []
        failing = trainer.learners[1]
        original = failing.compute_gradient

        def compute_gradient(batch, out=None):
            calls.append(threading.current_thread().name)
            if len(calls) == 3:  # mid-epoch, on the helper lane
                raise RuntimeError("learner 1 failed")
            return original(batch, out=out)

        failing.compute_gradient = compute_gradient
        before = threading.active_count()
        try:
            with pytest.raises(RuntimeError, match="learner 1 failed"):
                trainer.train()
        finally:
            trainer.close()
        assert calls and all(name == "learner-lane-1" for name in calls)
        assert threading.active_count() == before
        assert _lane_threads() == []

    def test_error_on_the_calling_lane_waits_for_the_helpers(self, monkeypatch):
        _force_width(monkeypatch, 2)
        trainer = CrossbowTrainer(_config("mlp", 2))
        finished = []
        helper = trainer.learners[1]
        helper_gradient = helper.compute_gradient

        def slow_gradient(batch, out=None):
            result = helper_gradient(batch, out=out)
            finished.append(True)
            return result

        def failing_gradient(batch, out=None):
            raise ValueError("learner 0 failed")

        helper.compute_gradient = slow_gradient
        trainer.learners[0].compute_gradient = failing_gradient
        try:
            with pytest.raises(ValueError, match="learner 0 failed"):
                trainer.train()
        finally:
            trainer.close()
        assert finished == [True]  # the helper's share ran to its end first
        assert _lane_threads() == []

    def test_no_helper_is_alive_when_a_checkpoint_is_published(self, monkeypatch):
        from repro.serve import CheckpointStore

        _force_width(monkeypatch, 2)
        original = CrossbowTrainer.publish_checkpoint
        seen = []

        def publish_checkpoint(self, epoch=None):
            seen.append(_lane_threads())
            return original(self, epoch=epoch)

        monkeypatch.setattr(CrossbowTrainer, "publish_checkpoint", publish_checkpoint)
        trainer = CrossbowTrainer(_config("mlp", 2, evaluate_every_epochs=1))
        trainer.attach_checkpoint_store(CheckpointStore(capacity=4))
        try:
            result = trainer.train()
        finally:
            trainer.close()
        assert result.extra["learner_lanes"] == 2
        assert len(seen) == 2 and all(threads == [] for threads in seen)

    def test_helpers_run_on_pinned_cpus(self, monkeypatch):
        """Each helper lane restricts itself to one CPU of the process's mask."""
        import os

        if not hasattr(os, "sched_getaffinity"):  # pragma: no cover - non-Linux
            pytest.skip("no CPU affinity API")
        _force_width(monkeypatch, 2)
        trainer = CrossbowTrainer(_config("mlp", 2, max_epochs=1))
        masks = []
        helper = trainer.learners[1]
        original = helper.compute_gradient

        def compute_gradient(batch, out=None):
            masks.append(os.sched_getaffinity(0))
            return original(batch, out=out)

        helper.compute_gradient = compute_gradient
        try:
            trainer.train()
        finally:
            trainer.close()
        cpus = sorted(os.sched_getaffinity(0))
        assert masks and all(mask == {cpus[1 % len(cpus)]} for mask in masks)


# ------------------------------------------------------------ saved-for-backward
def test_resnet_learner_pass_allocation_peak():
    """Conv keeps its input, not its columns: one learner pass peaks below 10 MiB.

    The benchmark's conv learner (resnet32-scaled, batch 16, 16x16 inputs)
    peaked at 14.8 MiB while every conv held its im2col columns from forward
    to backward.
    """
    dataset = create_dataset("cifar10-scaled", seed=4, num_train=32, num_test=8)
    model = create_model("resnet32-scaled", rng=RandomState(0))
    images, labels = dataset.train_images[:16], dataset.train_labels[:16]
    gradient = np.zeros(model.num_parameters(), dtype=np.float32)
    loss_fn = CrossEntropyLoss()

    def learner_pass():
        model.train(True)
        model.zero_grad()
        loss_fn(model(Tensor(images)), labels).backward()
        model.gradient_vector(out=gradient)

    learner_pass()  # first-call allocations
    tracemalloc.start()
    try:
        learner_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"learner pass peaked at {peak / 2**20:.1f} MiB"
