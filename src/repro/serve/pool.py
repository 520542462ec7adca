"""Multi-worker checkpoint evaluation: the evaluator pool and the batched evaluator.

PR 3's serving plane evaluated checkpoints off the training path, but through
exactly one forked evaluator — the first bottleneck once a run publishes
faster than one worker can evaluate.  This module scales that plane two ways,
both direct applications of the paper's many-replicas-one-bank design:

* :class:`EvaluatorPool` — N forked evaluator workers consuming one shared
  slot ring concurrently (the ring protocol and the worker lifecycle live in
  :mod:`repro.serve.ring`; the pool is a payload adapter over them).  The
  parent publishes checkpoint parameter vectors (and flattened batch-norm
  buffers) into free shared-memory slots; workers claim READY slots, copy
  the slot out, free it immediately, and evaluate while the parent refills
  the ring.  The arithmetic per checkpoint is exactly
  :func:`repro.nn.metrics.evaluate_top1` on the checkpoint's own parameters
  and buffers — the same code path as inline evaluation — so accuracies are
  bit-identical to inline for any worker count; only completion order varies.

* :class:`BatchedEvaluator` — the serving-side analogue of the fused
  ``SMA.step_matrix``: ``k`` checkpoint versions are loaded into a
  ``(k, P)`` :class:`~repro.engine.replica.ReplicaBank` (each row attached to
  a model clone through the standard row-view
  :meth:`~repro.nn.module.Module.attach_parameter_storage` path) and the test
  set runs through *all of them in one fused forward*: ``Linear`` bank
  columns reshape to ``(k, in, out)`` weight stacks, ``Conv2d`` columns to
  im2col ``(k, of, f)`` stacks multiplying a shared column buffer, and
  batch-norm running statistics ride along as per-checkpoint ``(k, C)``
  buffer stacks — so MLPs *and* the VGG/ResNet conv families all evaluate
  fused.  The kernels come from a pluggable provider
  (:mod:`repro.tensor.backend`); all providers are bit-identical.  One pass
  over the data amortises the per-batch Python/framework overhead across the
  ``k`` versions, exactly as the fused synchronisation amortises it across
  replicas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.executor import SharedMatrix
from repro.engine.replica import ReplicaBank
from repro.errors import ConfigurationError, SchedulingError
from repro.models.resnet import BasicBlock, BottleneckBlock, ResNet
from repro.models.vgg import VGG
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.metrics import evaluate_top1
from repro.nn.module import Module, Sequential
from repro.serve.checkpoint import Checkpoint
from repro.serve.ring import _SLOT_EMPTY, RingPool  # noqa: F401 - re-export for tests
from repro.telemetry.recorder import get_recorder
from repro.tensor.backend import KernelBackend, resolve_backend
from repro.tensor.functional import _im2col


class EvaluatorPool(RingPool):
    """N forked evaluator workers over one shared-memory checkpoint slot ring.

    The ring protocol and the worker lifecycle are
    :class:`~repro.serve.ring.RingPool`'s; this class adds only what is
    evaluator-specific: the parameters + flattened-buffers slot payload, the
    checkpoint validation, and result collection that *raises* on a worker
    failure while re-buffering everything resolved alongside it.

    Parameters
    ----------
    model_template : Module
        Same-architecture module; cloned once, the clone is inherited by every
        forked worker (each fork gets its own copy-on-write address space).
    pipeline : BatchPipeline
        Source of held-out evaluation batches (``.test_batches(batch_size)``).
    workers : int
        Evaluator worker processes.  ``workers=1`` reproduces the PR-3 single
        forked evaluator exactly; accuracies are bit-identical for any count.
    num_slots : int, optional
        Shared slots for in-flight checkpoints; defaults to
        ``max(2 * workers, 4)``.  :meth:`submit` blocks (backpressure) when
        every slot is occupied, which bounds parent-side memory at
        ``num_slots`` parameter vectors regardless of how many checkpoints a
        run publishes.
    batch_size : int
        Evaluation batch size, matching inline ``evaluate()``'s default.

    Notes
    -----
    The pool hands results back as ``(ticket, accuracy)`` pairs through
    :meth:`collect`; tickets are caller-assigned (the
    :class:`~repro.serve.evaluation.EvaluationService` uses its submission
    counter).  For standalone use, :meth:`evaluate` submits a whole batch of
    checkpoints and returns accuracies in submission order.
    """

    role = "evaluator"
    publish_span = "pool.publish"
    #: matches the single-evaluator timeout of PR 3 (a result is a whole
    #: test-set pass)
    result_timeout_s = 300.0

    def __init__(
        self,
        model_template: Module,
        pipeline: Any,
        workers: int = 1,
        num_slots: Optional[int] = None,
        batch_size: int = 256,
    ) -> None:
        num_slots = self._check_sizes(workers, workers, num_slots)
        self.workers = workers
        self.batch_size = batch_size
        # Successful results dequeued in a collect() that then hit a worker
        # failure; delivered by the next collect() instead of being dropped.
        self._undelivered: List[Tuple[int, float]] = []
        model = model_template.clone()
        self.num_parameters = model.num_parameters()
        # (name, first column, last column, shape) of each buffer in a slot row
        layout: List[Tuple[str, int, int, Tuple[int, ...]]] = []
        offset = 0
        for name, buf in model.named_buffers():
            layout.append((name, offset, offset + int(buf.size), tuple(buf.shape)))
            offset += int(buf.size)
        self._buffer_layout = layout
        self._params = SharedMatrix(num_slots, self.num_parameters)
        self._buffers = SharedMatrix(num_slots, offset)
        params, buffers = self._params.array, self._buffers.array
        target_buffers = dict(model.named_buffers())

        # The arithmetic per checkpoint is exactly evaluate_top1 on the
        # checkpoint's own parameters and buffers — the same code path as
        # inline evaluation.
        def load(slot: int) -> None:
            model.load_parameter_vector(params[slot])
            for name, start, end, shape in layout:
                target_buffers[name][...] = buffers[slot, start:end].reshape(shape)

        def compute(_: None) -> float:
            return evaluate_top1(model, pipeline.test_batches(batch_size=batch_size))

        super().__init__([self._params, self._buffers], load, compute, workers, workers, num_slots)

    # -- publish side --------------------------------------------------------------------
    def submit(self, ticket: int, checkpoint: Checkpoint) -> None:
        """Publish one checkpoint into a free slot (blocking when the ring is full).

        The wait for a free slot polls worker liveness, so a crashed pool
        surfaces as a :class:`~repro.errors.SchedulingError` instead of an
        indefinite block.
        """
        if checkpoint.num_parameters() != self.num_parameters:
            raise ConfigurationError(
                f"checkpoint has {checkpoint.num_parameters()} parameters but the "
                f"pool was built for {self.num_parameters}"
            )
        missing = [name for name, *_ in self._buffer_layout if name not in checkpoint.buffers]
        if missing:
            raise ConfigurationError(
                f"checkpoint is missing buffer(s) {missing} required by the model"
            )

        def write(slot: int) -> None:
            self._params.array[slot, :] = checkpoint.parameters
            for name, start, end, _ in self._buffer_layout:
                self._buffers.array[slot, start:end] = np.asarray(
                    checkpoint.buffers[name], dtype=np.float32
                ).reshape(-1)

        self._publish(ticket, write)

    # -- result side ---------------------------------------------------------------------
    def collect(self, block: bool = False) -> List[Tuple[int, float]]:
        """Resolved ``(ticket, accuracy)`` pairs; blocks for at least one if asked.

        Raises :class:`~repro.errors.SchedulingError` when a worker forwarded
        a failure or died without reporting.  A failure payload still
        decrements :attr:`in_flight` (the errored ticket will never produce a
        result) and never discards successful results dequeued alongside it —
        those are handed back by the next ``collect`` call, so the pool stays
        consistent and reusable after a bad checkpoint.
        """
        started = time.perf_counter()
        resolved = self._undelivered
        self._undelivered = []
        for ticket, accuracy, error in self._payloads(block and not resolved):
            if error is not None:
                self._undelivered = resolved  # returned by the next call
                raise SchedulingError(f"evaluator worker failed:\n{error}")
            resolved.append((ticket, accuracy))
        if resolved:
            # Copy-out span recorded only when something was handed back, so
            # empty polls never spam the event buffer.
            recorder = get_recorder()
            if recorder.enabled:
                recorder.record_span(
                    "pool.copy_out", time.perf_counter() - started, results=len(resolved)
                )
        return resolved

    @property
    def undelivered(self) -> int:
        """Results already dequeued but not yet handed to a collect() caller."""
        return len(self._undelivered)

    def drain(self) -> List[Tuple[int, float]]:
        """Barrier: wait for every in-flight evaluation; returns all pairs resolved.

        Like :meth:`collect`, a worker failure mid-drain re-buffers the pairs
        already gathered, so nothing resolved is lost to the raised error.
        """
        resolved: List[Tuple[int, float]] = []
        while self.in_flight:
            try:
                resolved.extend(self.collect(block=True))
            except Exception:
                self._undelivered = resolved + self._undelivered
                raise
        return resolved

    def evaluate(self, checkpoints: Sequence[Checkpoint]) -> List[float]:
        """Submit a batch of checkpoints and return accuracies in order (barrier).

        Standalone convenience (benchmarks, ad-hoc sweeps); do not interleave
        with externally ticketed :meth:`submit` calls.
        """
        if self.in_flight or self._undelivered:
            raise SchedulingError(
                "evaluate() needs an idle pool (results in flight or undelivered)"
            )
        for ticket, checkpoint in enumerate(checkpoints):
            self.submit(ticket, checkpoint)
        accuracies: Dict[int, float] = dict(self.drain())
        return [accuracies[ticket] for ticket in range(len(checkpoints))]


# ------------------------------------------------------------------ batched evaluation
@dataclass
class _FusedLinear:
    """Column layout of one ``Linear`` layer inside the flat parameter vector."""

    weight_offset: int
    out_features: int
    in_features: int
    bias_offset: Optional[int]


@dataclass
class _FusedConv2d:
    """Column layout and geometry of one ``Conv2d`` layer.

    The flat weight columns reshape to the im2col ``(k, of, f)`` stack
    (``f = in_channels * kh * kw``) that multiplies the shared column buffer.
    """

    weight_offset: int
    out_channels: int
    patch_features: int  # in_channels * kernel_size * kernel_size
    kernel_size: int
    stride: int
    padding: int
    bias_offset: Optional[int]


@dataclass
class _FusedBatchNorm:
    """Column layout of one batch-norm layer plus its checkpoint buffer keys.

    Gamma/beta live in the parameter bank; the running statistics are
    non-trainable buffers carried by each :class:`Checkpoint` under the dotted
    names recorded here, stacked to ``(k, C)`` per evaluation.
    """

    weight_offset: int  # gamma
    bias_offset: int  # beta
    num_features: int
    eps: float
    mean_key: str
    var_key: str


@dataclass
class _FusedPool:
    """Geometry of one spatial pooling layer (``reduce`` is "max" or "avg")."""

    reduce: str
    kernel_size: int
    stride: int


class _PlanCompiler:
    """Lower a module tree into the batched evaluator's fused op plan.

    Handles :class:`~repro.nn.module.Sequential` chains (the MLP family),
    the conv architectures (:class:`~repro.models.vgg.VGG`,
    :class:`~repro.models.resnet.ResNet` with residual
    ``BasicBlock``/``BottleneckBlock`` topologies), and any param-less
    wrapper with a single child.  Anything else has no fused form and raises
    :class:`~repro.errors.ConfigurationError` — evaluate those models through
    :class:`EvaluatorPool` instead.
    """

    def __init__(self, offsets: Dict[int, int]) -> None:
        self._offsets = offsets
        #: dotted checkpoint-buffer names the plan consumes (BN running stats)
        self.buffer_keys: List[str] = []

    def compile(self, module: Module) -> List[Tuple]:
        plan: List[Tuple] = []
        self._lower(module, "", plan)
        return plan

    @staticmethod
    def _child_prefix(prefix: str, name: str) -> str:
        return f"{prefix}.{name}" if prefix else name

    def _lower(self, module: Module, prefix: str, plan: List[Tuple]) -> None:
        if isinstance(module, Sequential):
            for name in module.layer_names:
                self._lower(getattr(module, name), self._child_prefix(prefix, name), plan)
            return
        if isinstance(module, (VGG, ResNet)):
            # Both forwards are the sequential composition of the named
            # children in definition order (features→classifier,
            # stem→stages→head).
            for name, child in module._modules.items():
                self._lower(child, self._child_prefix(prefix, name), plan)
            return
        if isinstance(module, (BasicBlock, BottleneckBlock)):
            self._lower_residual(module, prefix, plan)
            return
        if isinstance(module, Linear):
            plan.append(
                (
                    "linear",
                    _FusedLinear(
                        weight_offset=self._offsets[id(module.weight)],
                        out_features=module.out_features,
                        in_features=module.in_features,
                        bias_offset=(
                            None if module.bias is None else self._offsets[id(module.bias)]
                        ),
                    ),
                )
            )
            return
        if isinstance(module, Conv2d):
            patch = module.in_channels * module.kernel_size * module.kernel_size
            plan.append(
                (
                    "conv",
                    _FusedConv2d(
                        weight_offset=self._offsets[id(module.weight)],
                        out_channels=module.out_channels,
                        patch_features=patch,
                        kernel_size=module.kernel_size,
                        stride=module.stride,
                        padding=module.padding,
                        bias_offset=(
                            None if module.bias is None else self._offsets[id(module.bias)]
                        ),
                    ),
                )
            )
            return
        if isinstance(module, (BatchNorm1d, BatchNorm2d)):
            mean_key = self._child_prefix(prefix, "running_mean")
            var_key = self._child_prefix(prefix, "running_var")
            self.buffer_keys.extend([mean_key, var_key])
            plan.append(
                (
                    "bn",
                    _FusedBatchNorm(
                        weight_offset=self._offsets[id(module.weight)],
                        bias_offset=self._offsets[id(module.bias)],
                        num_features=module.num_features,
                        eps=module.eps,
                        mean_key=mean_key,
                        var_key=var_key,
                    ),
                )
            )
            return
        if isinstance(module, MaxPool2d):
            plan.append(("pool", _FusedPool("max", module.kernel_size, module.stride)))
            return
        if isinstance(module, AvgPool2d):
            plan.append(("pool", _FusedPool("avg", module.kernel_size, module.stride)))
            return
        if isinstance(module, GlobalAvgPool2d):
            plan.append(("gap",))
            return
        if isinstance(module, ReLU):
            plan.append(("relu",))
            return
        if isinstance(module, Flatten):
            plan.append(("flatten",))
            return
        if isinstance(module, (Identity, Dropout)):
            return  # no-ops in eval mode
        children = list(module._modules.items())
        if not module._parameters and len(children) == 1:
            name, child = children[0]
            self._lower(child, self._child_prefix(prefix, name), plan)
            return
        raise ConfigurationError(
            f"batched evaluation does not support {type(module).__name__} "
            "layers; use EvaluatorPool for this model"
        )

    def _lower_residual(self, block: Module, prefix: str, plan: List[Tuple]) -> None:
        """Residual blocks: main chain + shortcut, elementwise add, final ReLU."""
        if isinstance(block, BasicBlock):
            chain = ["conv1", "bn1", "relu1", "conv2", "bn2"]
        else:  # BottleneckBlock
            chain = ["conv1", "bn1", "relu1", "conv2", "bn2", "relu2", "conv3", "bn3"]
        main: List[Tuple] = []
        for name in chain:
            self._lower(getattr(block, name), self._child_prefix(prefix, name), main)
        shortcut: List[Tuple] = []
        self._lower(block.shortcut, self._child_prefix(prefix, "shortcut"), shortcut)
        plan.append(("residual", main, shortcut))
        plan.append(("relu",))  # relu2/relu3 applies after the residual add


class BatchedEvaluator:
    """Evaluate ``k`` checkpoint versions in one fused forward pass.

    The batch of models lives in a ``(k, P)`` replica bank exactly like the
    training replicas do: each checkpoint's parameters are loaded through a
    bank-row-attached model clone (the
    :meth:`~repro.nn.module.Module.attach_parameter_storage` row-view path),
    so the bank matrix *is* the k models.  The fused forward views each
    layer's weights as a column slice of the bank — ``(k, in, out)`` stacks
    for ``Linear``, im2col ``(k, of, f)`` stacks for ``Conv2d``, ``(k, C)``
    gamma/beta/running-stat stacks for batch norm — and runs the shared test
    activations through all models at once via the configured
    :class:`~repro.tensor.backend.KernelBackend`.  Convolutions share one
    im2col column buffer across the ``k`` models per batch (columns depend on
    activations, not weights), which is where the fused conv path saves its
    work.  One traversal of the test set yields ``k`` evaluations.

    Supported architectures: Flatten/Linear/ReLU chains (the MLP family) and
    the repo's conv families — VGG (conv/BN/ReLU/pool features + classifier)
    and ResNet (stem/stages/head with BasicBlock / BottleneckBlock residual
    topologies).  Batch-norm running statistics ride in per-checkpoint buffer
    stacks, so conv checkpoints evaluate with their own published statistics,
    exactly like sequential :func:`~repro.nn.metrics.evaluate_top1`.

    Per-model accuracy accumulation mirrors ``evaluate_top1`` operation for
    operation (including its per-batch rounding), and every batched kernel
    applies the same multiply-accumulate per model slice, so accuracies match
    sequential evaluation of each checkpoint.

    Parameters
    ----------
    model_template : Module
        Architecture to evaluate.  Models outside the supported families
        raise :class:`~repro.errors.ConfigurationError`; evaluate those
        through :class:`EvaluatorPool`.
    pipeline : BatchPipeline
        Source of held-out evaluation batches.
    batch_size : int
        Evaluation batch size, matching inline ``evaluate()``'s default.
    backend : KernelBackend or str, optional
        Kernel provider for the fused forward (``repro.tensor.backend``);
        defaults to the numpy reference.  Providers are bit-identical, so
        this only changes speed.
    """

    def __init__(
        self,
        model_template: Module,
        pipeline: Any,
        batch_size: int = 256,
        backend: Union[KernelBackend, str, None] = None,
    ) -> None:
        self._template = model_template.clone()
        self._pipeline = pipeline
        self.batch_size = batch_size
        self.backend = resolve_backend(backend)
        self.num_parameters = self._template.num_parameters()
        self._plan, self._buffer_keys = self._compile(self._template)
        self._bank: Optional[ReplicaBank] = None
        self._rows: List = []  # ModelReplica per bank row

    # -- plan compilation ----------------------------------------------------------------
    def _compile(self, template: Module) -> Tuple[List[Tuple], List[str]]:
        offsets: Dict[int, int] = {}
        offset = 0
        for param in template.parameters():
            offsets[id(param)] = offset
            offset += int(param.data.size)
        compiler = _PlanCompiler(offsets)
        plan = compiler.compile(template)
        consumed = set(compiler.buffer_keys)
        orphaned = [name for name, _ in template.named_buffers() if name not in consumed]
        if orphaned:
            # Every buffer must be owned by a fused op (BN running stats);
            # anything else would silently change the model's arithmetic.
            raise ConfigurationError(
                "batched evaluation cannot carry per-model buffers "
                f"({orphaned[0]!r}, ...); use EvaluatorPool for this model"
            )
        return plan, list(compiler.buffer_keys)

    # -- bank loading --------------------------------------------------------------------
    def _load_bank(self, checkpoints: Sequence[Checkpoint]) -> np.ndarray:
        k = len(checkpoints)
        if self._bank is None or len(self._rows) != k:
            self._bank = ReplicaBank(self.num_parameters, capacity=k)
            self._rows = [
                self._bank.attach_module(self._template.clone()) for _ in range(k)
            ]
        for row, checkpoint in zip(self._rows, checkpoints):
            if checkpoint.num_parameters() != self.num_parameters:
                raise ConfigurationError(
                    f"checkpoint has {checkpoint.num_parameters()} parameters, "
                    f"evaluator expects {self.num_parameters}"
                )
            # The model is bank-row-attached, so this writes the bank row.
            row.model.load_parameter_vector(checkpoint.parameters)
        return self._bank.active_matrix()

    # -- fused forward -------------------------------------------------------------------
    def _stack_weights(self, matrix: np.ndarray) -> List[Tuple]:
        """Materialise per-layer weight stacks from the bank.

        The bank's column slices are strided across rows; the batched kernels
        would re-buffer them to contiguous memory on *every* test batch, so
        the stacks are copied out once per :meth:`evaluate` call instead (one
        O(k·P) pass, amortised over the whole test set).  The values are the
        exact bank floats, so the fused result is unchanged.  Layouts:
        ``Linear`` → ``(k, in, out)`` (the transpose ``x @ W.T`` uses),
        ``Conv2d`` → ``(k, of, f)`` im2col weight matrices, batch norm →
        ``(k, C)`` gamma/beta rows.
        """
        return self._prepare_ops(self._plan, matrix, matrix.shape[0])

    def _prepare_ops(self, ops: List[Tuple], matrix: np.ndarray, k: int) -> List[Tuple]:
        prepared: List[Tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "linear":
                spec: _FusedLinear = op[1]
                w_size = spec.out_features * spec.in_features
                weights = matrix[:, spec.weight_offset : spec.weight_offset + w_size]
                weights = weights.reshape(k, spec.out_features, spec.in_features)
                # (k, in, out): the transposed layout F.linear's ``x @ W.T`` uses.
                stacked = np.ascontiguousarray(weights.transpose(0, 2, 1))
                bias = None
                if spec.bias_offset is not None:
                    bias = np.ascontiguousarray(
                        matrix[:, spec.bias_offset : spec.bias_offset + spec.out_features]
                    )[:, None, :]
                prepared.append(("linear", stacked, bias))
            elif kind == "conv":
                conv: _FusedConv2d = op[1]
                w_size = conv.out_channels * conv.patch_features
                conv_weights = np.ascontiguousarray(
                    matrix[:, conv.weight_offset : conv.weight_offset + w_size]
                ).reshape(k, conv.out_channels, conv.patch_features)
                conv_bias = None
                if conv.bias_offset is not None:
                    conv_bias = np.ascontiguousarray(
                        matrix[:, conv.bias_offset : conv.bias_offset + conv.out_channels]
                    )
                prepared.append(("conv", conv, conv_weights, conv_bias))
            elif kind == "bn":
                norm: _FusedBatchNorm = op[1]
                gamma = np.ascontiguousarray(
                    matrix[:, norm.weight_offset : norm.weight_offset + norm.num_features]
                )
                beta = np.ascontiguousarray(
                    matrix[:, norm.bias_offset : norm.bias_offset + norm.num_features]
                )
                prepared.append(("bn", norm, gamma, beta))
            elif kind == "residual":
                prepared.append(
                    (
                        "residual",
                        self._prepare_ops(op[1], matrix, k),
                        self._prepare_ops(op[2], matrix, k),
                    )
                )
            else:
                prepared.append(op)
        return prepared

    def _stack_buffers(self, checkpoints: Sequence[Checkpoint]) -> Dict[str, np.ndarray]:
        """Stack each consumed checkpoint buffer (BN running stats) to ``(k, C)``."""
        stacks: Dict[str, np.ndarray] = {}
        for key in self._buffer_keys:
            rows = []
            for checkpoint in checkpoints:
                if key not in checkpoint.buffers:
                    raise ConfigurationError(
                        f"checkpoint is missing buffer {key!r}; batched evaluation "
                        "needs every batch-norm running statistic"
                    )
                rows.append(np.asarray(checkpoint.buffers[key]).reshape(-1))
            stacks[key] = np.ascontiguousarray(np.stack(rows))
        return stacks

    def _fused_forward(
        self,
        prepared: List[Tuple],
        k: int,
        images: np.ndarray,
        buffers: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Logits of every banked model for one batch: ``(k, n, classes)``.

        The activations start shared — ``(n, ...)`` — and gain the leading
        ``k`` axis at the first parameterised op through broadcasting; from
        then on each model's activations evolve in its own slice.
        """
        act = np.asarray(images, dtype=np.float32)
        act, batched = self._run_ops(prepared, act, k, False, buffers)
        if not batched:
            # Degenerate chain with no parameterised layer: broadcast to all.
            act = np.broadcast_to(act, (k,) + act.shape)
        return act

    def _run_ops(
        self,
        ops: List[Tuple],
        act: np.ndarray,
        k: int,
        batched: bool,
        buffers: Dict[str, np.ndarray],
    ) -> Tuple[np.ndarray, bool]:
        backend = self.backend
        for op in ops:
            kind = op[0]
            if kind == "flatten":
                # Shared activations flatten to (n, f); batched ones flatten
                # per model to (k, n, f).
                if batched:
                    act = act.reshape(k, act.shape[1], -1)
                else:
                    act = act.reshape(act.shape[0], -1)
            elif kind == "linear":
                _, weights, bias = op
                # Same multiply-accumulate as F.linear's ``x @ W.T`` per model.
                act = backend.batched_linear(act, weights, bias)
                batched = True
            elif kind == "relu":
                # Mirrors F.relu's ``a * (a > 0)`` exactly (not np.maximum).
                act = backend.relu(act)
            elif kind == "conv":
                act = self._fused_conv(op, act, k, batched)
                batched = True
            elif kind == "bn":
                _, norm, gamma, beta = op
                act = backend.batched_batchnorm(
                    act, gamma, beta, buffers[norm.mean_key], buffers[norm.var_key], norm.eps
                )
                batched = True
            elif kind == "pool":
                act = self._fused_pool(op[1], act, k, batched)
            elif kind == "gap":
                # GlobalAvgPool2d: F.mean over the spatial axes.
                act = act.mean(axis=(3, 4)) if batched else act.mean(axis=(2, 3))
            elif kind == "residual":
                _, main_ops, shortcut_ops = op
                main, main_batched = self._run_ops(main_ops, act, k, batched, buffers)
                short, short_batched = self._run_ops(shortcut_ops, act, k, batched, buffers)
                # Elementwise add; broadcasting lifts an unbatched shortcut.
                act = main + short
                batched = main_batched or short_batched
        return act, batched

    def _fused_conv(self, op: Tuple, act: np.ndarray, k: int, batched: bool) -> np.ndarray:
        """One conv layer for all models: im2col columns × ``(k, of, f)`` stack.

        Before the first parameterised op the activations (and thus the
        columns) are shared across models, so im2col runs once for all ``k``;
        afterwards the ``k`` axis folds into the im2col batch axis — pure
        indexing either way, bitwise equal to the sequential per-model lowering.
        """
        _, spec, weights, bias = op
        if batched:
            n = act.shape[1]
            flat = act.reshape((k * n,) + act.shape[2:])
            cols, out_h, out_w = _im2col(
                flat, spec.kernel_size, spec.kernel_size, spec.stride, spec.padding
            )
            cols = cols.reshape(k, n, cols.shape[1], cols.shape[2])
        else:
            n = act.shape[0]
            cols, out_h, out_w = _im2col(
                act, spec.kernel_size, spec.kernel_size, spec.stride, spec.padding
            )
        out = self.backend.batched_conv2d(weights, cols)
        if bias is not None:
            # Same broadcast add as the sequential ``bias.reshape(1, -1, 1)``.
            out = out + bias[:, None, :, None]
        return out.reshape(k, n, spec.out_channels, out_h, out_w)

    def _fused_pool(self, spec: _FusedPool, act: np.ndarray, k: int, batched: bool) -> np.ndarray:
        """Max/avg pooling via the sequential layers' channel-folded im2col."""
        shape = act.shape
        if batched:
            b, c, h, w = shape[0] * shape[1], shape[2], shape[3], shape[4]
        else:
            b, c, h, w = shape[0], shape[1], shape[2], shape[3]
        cols, out_h, out_w = _im2col(
            act.reshape(b * c, 1, h, w), spec.kernel_size, spec.kernel_size, spec.stride, 0
        )
        pooled = cols.max(axis=1) if spec.reduce == "max" else cols.mean(axis=1)
        if batched:
            return pooled.reshape(shape[0], shape[1], c, out_h, out_w)
        return pooled.reshape(shape[0], c, out_h, out_w)

    # -- evaluation ----------------------------------------------------------------------
    def evaluate(self, checkpoints: Sequence[Checkpoint]) -> List[float]:
        """Top-1 accuracy of every checkpoint, one fused pass over the test set."""
        if not checkpoints:
            return []
        matrix = self._load_bank(checkpoints)
        prepared = self._stack_weights(matrix)
        buffers = self._stack_buffers(checkpoints)
        k = len(checkpoints)
        correct = [0] * k
        total = 0
        for batch in self._pipeline.test_batches(batch_size=self.batch_size):
            logits = self._fused_forward(prepared, k, batch.images, buffers)
            labels = np.asarray(batch.labels).reshape(-1)
            predictions = logits.argmax(axis=-1)
            for i in range(k):
                hit_rate = float((predictions[i] == labels).mean())
                correct[i] += int(round(hit_rate * batch.size))
            total += batch.size
        if total == 0:
            return [0.0] * k
        return [c / total for c in correct]

    def evaluate_versions(self, store: Any, versions: Sequence[int]) -> Dict[int, float]:
        """Fetch ``versions`` from a checkpoint store and batch-evaluate them."""
        checkpoints = [store.get(version) for version in versions]
        accuracies = self.evaluate(checkpoints)
        return dict(zip(versions, accuracies))
