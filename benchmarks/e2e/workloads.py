"""The benchmark's workloads: what is trained, to which target, and how it is served.

A workload is a model family (conv / wide MLP) on an execution plane
(in-process serial / forked workers), run along the whole path: train to the
target accuracy with a checkpoint store attached, then serve the trained
model.  Everything a later change must not be able to tune lives here as a
constant: learner count, batch size, target, offered request rate.

``auto_tune`` and ``execution="auto"`` stay off: both decide from measured
timings, so the work done would differ from run to run.

The dataset and the trainer seed are pinned per workload instead of being
derived from ``--seed``.  Across dataset seeds the epoch at which the target
is crossed moves by one or two epochs (a fifth to a half of ``tta_s``), which
would make ``tta_s`` measure the seed rather than the code.  The seed drives
the serving inputs: the arrival schedule and which samples are requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: model initialisation and shuffle order of every trainer the benchmark builds
TRAINER_SEED = 7

_WIDE_MLP = {"input_dim": 256, "num_classes": 10, "hidden_sizes": (1024, 1024, 512)}
_BLOBS = {
    "seed": 1,
    "num_test": 512,
    "num_classes": 10,
    "input_dim": 256,
    "noise_scale": 5.0,
}
_CIFAR = {"seed": 4, "num_train": 256, "num_test": 128}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model_name: str
    dataset_name: str
    learners: int
    batch_size: int
    execution: str
    target_accuracy: float
    max_epochs: int
    rate_rps: float
    pooled: bool
    pipeline_depth: int = 0
    learning_rate: Optional[float] = None
    model_overrides: Dict[str, Any] = field(default_factory=dict)
    dataset_overrides: Dict[str, Any] = field(default_factory=dict)
    #: re-publish the run's per-epoch checkpoints this often (schedule time)
    republish_every_s: Optional[float] = None


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="conv_serial_inproc",
        why=(
            "resnet32-scaled, k=4 serial, in-process server: conv forward/backward and the "
            "inline evaluation dominate; executor, slot ring and (k,P) sync are bypassed"
        ),
        model_name="resnet32-scaled",
        dataset_name="cifar10-scaled",
        dataset_overrides=_CIFAR,
        learners=4,
        batch_size=16,
        execution="serial",
        target_accuracy=0.236,
        max_epochs=8,
        rate_rps=280.0,
        pooled=False,
    ),
    Workload(
        name="mlp_serial_inproc",
        why=(
            "wide MLP (P=1.84M), k=2 serial, served while checkpoints are hot-swapped every "
            "250 ms: the fused step_matrix and the front door dominate; no conv code runs"
        ),
        model_name="mlp",
        model_overrides=_WIDE_MLP,
        dataset_name="blobs",
        dataset_overrides={**_BLOBS, "num_train": 640},
        learners=2,
        batch_size=32,
        execution="serial",
        learning_rate=0.001,
        target_accuracy=0.485,
        max_epochs=10,
        rate_rps=1500.0,
        pooled=False,
        republish_every_s=0.25,
    ),
    Workload(
        name="mlp_pipelined_pooled",
        why=(
            "same MLP, one forked learner with depth-1 pipelining, pooled server: executor "
            "issue/collect, publish/flip double buffer and the inference slot ring"
        ),
        model_name="mlp",
        model_overrides=_WIDE_MLP,
        dataset_name="blobs",
        dataset_overrides={**_BLOBS, "num_train": 896},
        # One learner: the parent applies the fused step while the worker computes
        # the next gradient, which fills both cores.  With two learners three
        # processes contend for two cores and one repeat in six runs 8-30 % long.
        learners=1,
        batch_size=32,
        execution="process",
        pipeline_depth=1,
        learning_rate=0.0005,
        target_accuracy=0.56,
        max_epochs=10,
        rate_rps=1200.0,
        pooled=True,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise SystemExit(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")


def trainer_config(workload: Workload, smoke: bool = False, warmup: bool = False):
    """The ``CrossbowConfig`` of one training repeat.

    ``smoke`` cuts the run to two epochs with no target (harness checks
    only); ``warmup`` shrinks the dataset to exactly one iteration with no
    evaluation (the set-up probe's first-iteration warm-up, which is also
    where process mode forks its workers).
    """
    from repro.engine import CrossbowConfig

    dataset_overrides = dict(workload.dataset_overrides)
    max_epochs = workload.max_epochs
    target: Optional[float] = workload.target_accuracy
    evaluate_every = 1
    if smoke:
        max_epochs, target = 2, None
    if warmup:
        dataset_overrides.update(num_train=workload.learners * workload.batch_size, num_test=16)
        max_epochs, target, evaluate_every = 1, None, 0
    return CrossbowConfig(
        model_name=workload.model_name,
        dataset_name=workload.dataset_name,
        num_gpus=1,
        replicas_per_gpu=workload.learners,
        batch_size=workload.batch_size,
        learning_rate=workload.learning_rate,
        max_epochs=max_epochs,
        target_accuracy=target,
        evaluate_every_epochs=evaluate_every,
        seed=TRAINER_SEED,
        execution=workload.execution,
        pipeline_depth=workload.pipeline_depth,
        dataset_overrides=dataset_overrides,
        model_overrides=dict(workload.model_overrides),
    )


def build_trainer(workload: Workload, smoke: bool = False, warmup: bool = False):
    """A fresh trainer with a checkpoint store attached, as a user runs it."""
    from repro.engine import CrossbowTrainer
    from repro.serve import CheckpointStore

    trainer = CrossbowTrainer(trainer_config(workload, smoke=smoke, warmup=warmup))
    store = trainer.attach_checkpoint_store(CheckpointStore(capacity=workload.max_epochs))
    return trainer, store


def build_server(workload: Workload, template, sample_shape, checkpoint, store=None):
    """The workload's server (not started), serving ``checkpoint`` or ``store``'s newest.

    One active pool worker: two oversubscribe a 2-core host next to the
    front-end thread (18-21 % run-to-run spread); the second is pre-forked
    and parked, as the autoscaler would find it.
    """
    from repro.serve import InferenceServer, PooledInferenceServer

    if workload.pooled:
        return PooledInferenceServer(
            template,
            sample_shape=tuple(sample_shape),
            workers=1,
            max_workers=2,
            checkpoint=checkpoint,
        )
    if store is not None:
        return InferenceServer(template, store=store)
    return InferenceServer(template, checkpoint=checkpoint)
