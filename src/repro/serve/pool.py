"""Multi-worker checkpoint evaluation: the evaluator pool.

PR 3's serving plane evaluated checkpoints off the training path, but through
exactly one forked evaluator — the first bottleneck once a run publishes
faster than one worker can evaluate.  :class:`EvaluatorPool` scales it to N
forked evaluator workers consuming one shared slot ring concurrently (the
ring protocol and the worker lifecycle live in :mod:`repro.serve.ring`; the
pool is a payload adapter over them).  The parent publishes checkpoint
parameter vectors (and flattened batch-norm buffers) into free shared-memory
slots; workers claim READY slots, copy the slot out, free it immediately, and
evaluate while the parent refills the ring.  The arithmetic per checkpoint is
exactly :func:`repro.nn.metrics.evaluate_top1` on the checkpoint's own
parameters and buffers — the same code path as inline evaluation — so
accuracies are bit-identical to inline for any worker count; only completion
order varies.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.executor import SharedMatrix
from repro.errors import ConfigurationError, SchedulingError
from repro.nn.metrics import evaluate_top1
from repro.nn.module import Module
from repro.serve.checkpoint import Checkpoint
from repro.serve.ring import _SLOT_EMPTY, RingPool  # noqa: F401 - re-export for tests
from repro.telemetry.recorder import get_recorder


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
