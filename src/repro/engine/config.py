"""Trainer configuration.

A :class:`CrossbowConfig` fully describes one training run of either system:
Crossbow, or the S-SGD baseline as ``synchronisation="ssgd"``.  The defaults
follow the paper's experimental set-up (§5.1): hyper-parameters per model
come from :mod:`repro.optim.schedules`, the server is the 8-GPU Titan X box,
and Crossbow synchronises every iteration (τ = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigurationError


@dataclass
class CrossbowConfig:
    """Configuration of the one training loop, :class:`~repro.engine.crossbow.CrossbowTrainer`.

    ``replicas_per_gpu`` is the initial number of learners per GPU (``m``); when
    ``auto_tune`` is enabled the number adapts at runtime per Algorithm 2.
    ``batch_size`` is each learner's batch ``b``.  ``momentum`` is S-SGD's
    velocity momentum; SMA's central momentum is ``sma_momentum``, and EA-SGD
    has none.

    ``synchronisation`` selects the step that follows each iteration's ``k``
    gradients:

    * ``"sma"`` (default) — synchronous model averaging, Algorithm 1, with
      ``sma_momentum`` and ``sma_alpha``;
    * ``"easgd"`` — elastic averaging SGD (§5.5), with elasticity
      ``sma_alpha``;
    * ``"none"`` — SMA with α = 0: replicas are never corrected (the τ = ∞
      ablation);
    * ``"ssgd"`` — the TensorFlow-style S-SGD baseline (§2.3, Figure 1): one
      replica per GPU, each on a ``batch_size`` share of an aggregate batch of
      ``num_gpus × batch_size``, and one momentum-SGD update (``momentum``)
      with the averaged gradient, behind a global barrier.  It takes neither
      ``auto_tune`` nor ``pipeline_depth=1``.

    ``execution`` selects how the numeric learning tasks run:

    * ``"serial"`` (default) — every learner's forward/backward pass runs in
      the trainer's process, an iteration's ``k`` passes at once on one
      CPU-pinned lane per core that BLAS leaves free
      (:class:`~repro.engine.learner.LearnerLanes`); the fused ``(k, P)``
      synchronisation step runs on the calling thread.
    * ``"process"`` — one worker process per learner over a shared-memory
      replica bank, each streaming its own dataset shard
      (:mod:`repro.engine.executor`).  Requires the POSIX ``fork`` start
      method.  With augmentation disabled, fixed-seed runs are
      bit-compatible with ``"serial"``.
    * ``"auto"`` — measure, don't assume: a short calibration probe
      (:mod:`repro.engine.modeselect`, cached per host in the telemetry
      store) picks serial / process / pipelined from the core count and the
      measured fused-step and worker-round-trip times.  On a 1-core host this
      always resolves to ``"serial"`` — process mode there measures ~0.82x
      serial throughput (the `multiprocess_throughput` trajectory caveat).

    ``pipeline_depth`` (process mode only) selects the synchronisation
    schedule:

    * ``0`` (default) — synchronous: the parent applies the fused
      ``step_matrix`` while every worker idles; with augmentation disabled,
      bit-identical to ``"serial"``.
    * ``1`` — pipelined: workers begin iteration ``t+1``'s forward/backward
      against a published double-buffered weight view while the parent
      applies iteration ``t``'s fused update into the back buffer, then
      flips.  Gradients are computed on weights that lag the newest central
      update by at most one iteration (the explicit staleness bound), so the
      numeric trajectory differs from depth 0 while the synchronisation cost
      disappears from the critical path.

    The worker pool stays alive across auto-tuner resizes: grow/shrink
    re-shards the surviving workers in place and forks only newly added
    learners.  A resize that changes the shared buffers themselves, or runs
    with augmentation on, falls back to stop-everything-and-respawn.
    """

    model_name: str = "resnet32-scaled"
    dataset_name: str = "cifar10-scaled"
    num_gpus: int = 1
    batch_size: int = 32
    learning_rate: Optional[float] = None  # None = the paper's value for this model
    momentum: Optional[float] = None
    weight_decay: Optional[float] = None
    max_epochs: int = 20
    target_accuracy: Optional[float] = None
    seed: int = 7
    evaluate_every_epochs: int = 1  # 0 disables evaluation entirely
    use_augmentation: bool = False
    dataset_overrides: Dict[str, int] = field(default_factory=dict)
    model_overrides: Dict[str, float] = field(default_factory=dict)
    trace_tasks: bool = False

    replicas_per_gpu: int = 1
    execution: str = "serial"  # "serial", "process" or "auto" (probe-driven)
    pipeline_depth: int = 0  # 0 = synchronous, 1 = overlap sync with next gradients
    auto_tune: bool = False
    auto_tune_interval: int = 16  # iterations between throughput observations
    auto_tune_tolerance: float = 0.05
    max_replicas_per_gpu: int = 8
    sma_momentum: float = 0.9
    sma_alpha: Optional[float] = None
    synchronisation_period: int = 1  # τ; 1 = synchronise every iteration
    synchronisation: str = "sma"  # "sma", "easgd", "none" or "ssgd"
    restart_on_lr_change: bool = True

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError("num_gpus must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigurationError("target_accuracy must be in (0, 1]")
        if self.evaluate_every_epochs < 0:
            raise ConfigurationError(
                "evaluate_every_epochs must be >= 0 (0 disables evaluation)"
            )
        if self.replicas_per_gpu < 1:
            raise ConfigurationError("replicas_per_gpu must be >= 1")
        if self.max_replicas_per_gpu < self.replicas_per_gpu:
            raise ConfigurationError("max_replicas_per_gpu must be >= replicas_per_gpu")
        if self.synchronisation not in ("sma", "easgd", "none", "ssgd"):
            raise ConfigurationError(
                "synchronisation must be 'sma', 'easgd' or 'none' (or 'ssgd', the S-SGD baseline)"
            )
        if self.execution not in ("serial", "process", "auto"):
            raise ConfigurationError("execution must be 'serial', 'process' or 'auto'")
        if self.pipeline_depth not in (0, 1):
            raise ConfigurationError(
                "pipeline_depth must be 0 (synchronous) or 1 (one overlapped iteration)"
            )
        if self.pipeline_depth == 1 and self.execution != "process":
            # "auto" picks its own depth; an explicit depth contradicts it.
            raise ConfigurationError(
                "pipeline_depth=1 overlaps the fused synchronisation with worker "
                "gradient computation and therefore requires execution='process'"
            )
        if self.synchronisation_period < 1:
            raise ConfigurationError("synchronisation period τ must be >= 1")
        if self.synchronisation == "ssgd" and (
            self.replicas_per_gpu != 1 or self.auto_tune or self.pipeline_depth == 1
        ):
            # Figure 1: one replica per GPU, every iteration behind a barrier.
            raise ConfigurationError(
                "synchronisation='ssgd' runs one replica per GPU with a global "
                "barrier: it takes replicas_per_gpu=1, no auto_tune and pipeline_depth=0"
            )
