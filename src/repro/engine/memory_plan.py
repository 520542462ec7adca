"""Operator output-buffer reuse plans (§4.5 of the paper).

Deep-learning models need far more memory for operator outputs than for the
model itself, and the requirement grows with the batch size and with the number
of learners per GPU.  Crossbow reduces the footprint with two plans:

* an **offline plan** computed per learning task: traversing the operators in
  execution order, an operator reuses an output buffer whose reference count
  has dropped to zero instead of allocating a new one;
* an **online shared plan** across the learners of one GPU: because not all
  instances of the same operator execute concurrently in practice, learners
  draw output buffers from per-operator pools shared GPU-wide.

Both planners work on a list of :class:`OperatorSpec` records, which can be
derived from a real model with :func:`operator_specs_from_forward`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MemoryPlanError
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad


@dataclass(frozen=True)
class OperatorSpec:
    """One dataflow operator: its output size and the operators it reads from."""

    name: str
    output_bytes: int
    input_indices: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.output_bytes < 0:
            raise MemoryPlanError(f"operator {self.name!r} has negative output size")


@dataclass
class MemoryPlan:
    """Result of a planning pass: per-operator buffer assignment and peak bytes."""

    buffer_of_operator: List[int]
    buffer_sizes: Dict[int, int]
    peak_bytes: int
    total_allocated_bytes: int

    @property
    def num_buffers(self) -> int:
        return len(self.buffer_sizes)

    def reuse_fraction(self, naive_bytes: int) -> float:
        """Fraction of the naive allocation avoided by reuse."""
        if naive_bytes <= 0:
            return 0.0
        return 1.0 - self.total_allocated_bytes / naive_bytes


def _consumers(operators: Sequence[OperatorSpec]) -> List[List[int]]:
    """For each operator, the indices of the operators that read its output."""
    consumers: List[List[int]] = [[] for _ in operators]
    for index, op in enumerate(operators):
        for input_index in op.input_indices:
            if not 0 <= input_index < index:
                raise MemoryPlanError(
                    f"operator {op.name!r} reads from invalid index {input_index}"
                )
            consumers[input_index].append(index)
    return consumers


def naive_memory_plan(operators: Sequence[OperatorSpec]) -> MemoryPlan:
    """Every operator gets its own buffer: the no-reuse baseline."""
    buffer_sizes = {index: op.output_bytes for index, op in enumerate(operators)}
    total = sum(buffer_sizes.values())
    return MemoryPlan(
        buffer_of_operator=list(range(len(operators))),
        buffer_sizes=buffer_sizes,
        peak_bytes=total,
        total_allocated_bytes=total,
    )


def offline_memory_plan(operators: Sequence[OperatorSpec]) -> MemoryPlan:
    """Reference-counted buffer reuse over one learning task's operators.

    Visits operators in execution order.  An operator grabs a free buffer that
    is large enough if one exists (growing it if slightly too small would be
    allocation; we only reuse buffers of sufficient size), otherwise it
    allocates a new buffer.  When the last consumer of an operator has been
    visited, the operator's buffer returns to the free list.
    """
    consumers = _consumers(operators)
    remaining = [len(c) for c in consumers]

    buffer_sizes: Dict[int, int] = {}
    free_buffers: List[int] = []
    assignment: List[int] = []
    next_buffer_id = 0
    live_bytes = 0
    peak_bytes = 0

    for index, op in enumerate(operators):
        chosen: Optional[int] = None
        # Reuse the smallest free buffer that fits this output.
        candidates = [b for b in free_buffers if buffer_sizes[b] >= op.output_bytes]
        if candidates:
            chosen = min(candidates, key=lambda b: buffer_sizes[b])
            free_buffers.remove(chosen)
        else:
            chosen = next_buffer_id
            next_buffer_id += 1
            buffer_sizes[chosen] = op.output_bytes
        assignment.append(chosen)
        live_bytes += buffer_sizes[chosen]
        peak_bytes = max(peak_bytes, live_bytes)

        # Decrement the reference counts of this operator's inputs; buffers with
        # no remaining consumers return to the free list.
        for input_index in op.input_indices:
            remaining[input_index] -= 1
            if remaining[input_index] == 0:
                released = assignment[input_index]
                if released not in free_buffers:
                    free_buffers.append(released)
                    live_bytes -= buffer_sizes[released]
        # An operator whose output is never read (e.g. the loss) frees immediately.
        if remaining[index] == 0:
            free_buffers.append(chosen)
            live_bytes -= buffer_sizes[chosen]

    total_allocated = sum(buffer_sizes.values())
    return MemoryPlan(
        buffer_of_operator=assignment,
        buffer_sizes=buffer_sizes,
        peak_bytes=peak_bytes,
        total_allocated_bytes=total_allocated,
    )


def online_shared_plan(
    operators: Sequence[OperatorSpec],
    num_learners: int,
    concurrency: int = 2,
) -> MemoryPlan:
    """Shared per-operator buffer pools across learners on one GPU.

    ``concurrency`` is the number of learners whose instances of the *same*
    operator may be in flight simultaneously (bounded by the number of learner
    streams that can really execute that operator concurrently, typically far
    fewer than the number of learners).  The plan allocates
    ``min(num_learners, concurrency)`` buffers per operator pool instead of one
    per learner, which is exactly the saving §4.5 describes.
    """
    if num_learners < 1:
        raise MemoryPlanError("at least one learner is required")
    if concurrency < 1:
        raise MemoryPlanError("concurrency must be >= 1")
    per_learner = offline_memory_plan(operators)
    copies = min(num_learners, concurrency)
    buffer_sizes: Dict[int, int] = {}
    for copy_index in range(copies):
        for buffer_id, size in per_learner.buffer_sizes.items():
            buffer_sizes[copy_index * per_learner.num_buffers + buffer_id] = size
    total = sum(buffer_sizes.values())
    return MemoryPlan(
        buffer_of_operator=per_learner.buffer_of_operator,
        buffer_sizes=buffer_sizes,
        peak_bytes=per_learner.peak_bytes * copies,
        total_allocated_bytes=total,
    )


def operator_specs_from_forward(
    model: Module, input_shape: Sequence[int], batch_size: int = 1
) -> List[OperatorSpec]:
    """Derive operator specs by running a forward pass and recording output sizes.

    Leaf modules are treated as dataflow operators executed in call order; each
    operator's input is the operator that executed immediately before it, which
    is exact for sequential models and a conservative approximation for models
    with residual connections (the residual add is attributed to the block's
    last operator).
    """
    records: List[Tuple[str, int]] = []
    leaf_modules = [
        (name, module) for name, module in model.named_modules() if not module._modules
    ]

    originals = {}
    was_training = model.training
    try:
        for name, module in leaf_modules:
            originals[name] = module.forward

            def wrapped(x, _name=name):
                output = originals[_name](x)
                size = int(np.prod(output.shape)) * 4 if hasattr(output, "shape") else 0
                records.append((_name, size))
                return output

            object.__setattr__(module, "forward", wrapped)

        dummy = Tensor(np.zeros((batch_size, *input_shape), dtype=np.float32))
        model.eval()
        with no_grad():
            model(dummy)
    finally:
        # Leave the model as it was found, even when the forward raised:
        # in its training mode, and with no instance attribute shadowing
        # its class's ``forward``.
        model.train(was_training)
        for name, module in leaf_modules:
            if name in originals:
                object.__delattr__(module, "forward")

    specs: List[OperatorSpec] = []
    for index, (name, size) in enumerate(records):
        inputs = (index - 1,) if index > 0 else ()
        specs.append(OperatorSpec(name=name, output_bytes=size, input_indices=inputs))
    return specs
