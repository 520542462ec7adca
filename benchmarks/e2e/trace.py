"""Spans recorded from outside the program, around its public callables.

``Tracer.installed()`` replaces a fixed list of public methods of ``repro``
with timing wrappers *before* the trainer and server objects are built;
leaving the ``with`` block puts the originals back.  A span is ``(id, name, start, end,
parent, thread, ident)``: ``parent`` is the span that was open on the same
thread when this one started (a thread-local stack), ``ident`` carries a
ticket number where the callable has one.  Spans stay in memory and are
written out once, when the benchmark ends.

A layer's *self time* is its span's duration minus the part of it covered by
its child spans; the training breakdown charges everything inside
``CrossbowTrainer.train`` that no wrapped callable covers to
``engine.loop_self_s``.

Forked workers inherit the wrappers but their spans die with them: worker
time shows up only as the parent's wait (``executor.collect_wait_s``,
``pool.roundtrip_ms_*``) until the program grows spans of its own.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, int, int]


class Tracer:
    """Owns the recorded spans and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: polls of ``InferencePool.collect`` that returned nothing: counted,
        #: not kept as spans (an idle server polls thousands of times a second)
        self.empty_collects = 0
        self._published_at: Dict[int, float] = {}
        #: publish -> collected, per ticket, in milliseconds
        self.roundtrips_ms: List[float] = []

    # -- recording -----------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn: Callable, args: tuple, kwargs: dict, ident: int = -1) -> Any:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), ident)
            )

    def _record(self, name: str, start: float, end: float, ident: int = -1) -> None:
        """A leaf span timed by the caller (parent = whatever is open on this thread)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append(
            (next(self._ids), name, start, end, parent, threading.get_ident(), ident)
        )

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer._timed(name, original, args, kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        replacement.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- install / uninstall -------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer boundaries for the duration of the ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        from repro.data.batching import BatchPipeline
        from repro.engine.crossbow import CrossbowTrainer
        from repro.engine.executor import ProcessExecutor
        from repro.engine.learner import Learner
        from repro.engine.scheduler import TaskScheduler
        from repro.nn.module import Module
        from repro.optim.easgd import EASGD
        from repro.optim.sma import SMA
        from repro.serve.checkpoint import Checkpoint, CheckpointStore
        from repro.serve.inference import InferenceServer
        from repro.serve.scaling import InferencePool
        from repro.tensor.backend import KernelBackend
        from repro.tensor.tensor import Tensor

        for owner, attr, name in (
            (CrossbowTrainer, "train", "engine.train"),
            (CrossbowTrainer, "evaluate", "eval.evaluate"),
            (CrossbowTrainer, "publish_checkpoint", "checkpoint.publish"),
            (Learner, "compute_gradient", "learner.grad"),
            (Tensor, "backward", "nn.backward"),
            (SMA, "step_matrix", "optim.step_matrix"),
            (EASGD, "step_matrix", "optim.step_matrix"),
            (KernelBackend, "scale_rows", "optim.scale_rows"),
            (TaskScheduler, "schedule_iteration", "scheduler.schedule"),
            (ProcessExecutor, "begin_epoch", "executor.begin_epoch"),
            (ProcessExecutor, "issue_step", "executor.issue"),
            (ProcessExecutor, "collect_step", "executor.collect_wait"),
            (CheckpointStore, "publish", "checkpoint.store_publish"),
            (Checkpoint, "apply_to", "checkpoint.apply"),
            (InferenceServer, "submit", "front.submit"),
        ):
            self._wrap(owner, attr, name)
        self._wrap_top_level_forward(Module)
        self._wrap_batch_iterator(BatchPipeline)
        self._wrap_pool(InferencePool)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_top_level_forward(self, module_cls: Any) -> None:
        """``nn.forward`` = the outermost ``Module.__call__`` on a thread.

        Every layer is a ``Module``; only the call that is not nested inside
        another module's call is a model forward.
        """
        original = module_cls.__call__
        tracer = self
        local = self._local

        def call(*args: Any, **kwargs: Any) -> Any:
            if getattr(local, "in_forward", False):
                return original(*args, **kwargs)
            local.in_forward = True
            try:
                return tracer._timed("nn.forward", original, args, kwargs)
            finally:
                local.in_forward = False

        self._patch(module_cls, "__call__", original, call)

    def _wrap_batch_iterator(self, pipeline_cls: Any) -> None:
        """``data.fetch`` = one span per batch the training loop pulls."""
        original = pipeline_cls.epoch_batches
        tracer = self

        def epoch_batches(*args: Any, **kwargs: Any) -> Any:
            iterator = original(*args, **kwargs)
            while True:
                start = time.perf_counter()
                batch = next(iterator, None)
                if batch is None:
                    return
                tracer._record("data.fetch", start, time.perf_counter())
                yield batch

        self._patch(pipeline_cls, "epoch_batches", original, epoch_batches)

    def _wrap_pool(self, pool_cls: Any) -> None:
        """``pool.publish`` spans carry the ticket; ``collect`` closes round trips."""
        publish = pool_cls.publish
        collect = pool_cls.collect
        tracer = self

        def traced_publish(pool: Any, ticket: int, images: Any) -> None:
            tracer._published_at[ticket] = time.perf_counter()
            tracer._timed("pool.publish", publish, (pool, ticket, images), {}, ident=ticket)

        def traced_collect(pool: Any, block: bool = False) -> Any:
            start = time.perf_counter()
            payloads = collect(pool, block=block)
            end = time.perf_counter()
            if not payloads:
                tracer.empty_collects += 1
                return payloads
            tracer._record("pool.collect", start, end, ident=int(payloads[0][0]))
            for payload in payloads:
                published = tracer._published_at.pop(int(payload[0]), None)
                if published is not None:
                    tracer.roundtrips_ms.append((end - published) * 1000.0)
            return payloads

        self._patch(pool_cls, "publish", publish, traced_publish)
        self._patch(pool_cls, "collect", collect, traced_collect)

    def mark(self) -> int:
        """Position in the span list, to split it by phase afterwards."""
        return len(self.spans)

    def dump(self, path: Path, metadata: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        document = {
            **metadata,
            "columns": ["id", "name", "start_s", "end_s", "parent", "thread", "ident"],
            "spans": [
                [s[0], s[1], round(s[2] - origin, 7), round(s[3] - origin, 7), s[4], s[5], s[6]]
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(document) + "\n")


def total(spans: List[Span], name: str, parent: Optional[str] = None) -> Tuple[float, int]:
    """(summed duration, count) of the spans called ``name``.

    ``parent`` keeps only spans whose direct parent (within ``spans``) has that name.
    """
    names = {span[0]: span[1] for span in spans} if parent is not None else {}
    seconds = 0.0
    calls = 0
    for span in spans:
        if span[1] != name or (parent is not None and names.get(span[4]) != parent):
            continue
        seconds += span[3] - span[2]
        calls += 1
    return seconds, calls


def self_time(spans: List[Span], name: str) -> Tuple[float, float]:
    """(duration, self time) summed over the spans called ``name``.

    Self time is the duration minus what the direct child spans cover.
    """
    owners = {span[0] for span in spans if span[1] == name}
    duration = sum(span[3] - span[2] for span in spans if span[0] in owners)
    children = sum(span[3] - span[2] for span in spans if span[4] in owners)
    return duration, duration - children
