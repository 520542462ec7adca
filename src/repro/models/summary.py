"""Model inventory summaries, the quantities reported in Table 1 of the paper.

Table 1 lists, per benchmark model: the dataset, its input size (MB), the
number of dataflow operators and the model size (MB).  ``summarize_model``
derives the operator count and model size by traversing the module tree:
every leaf layer is one operator, and residual blocks additionally contribute
their element-wise add.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.nn.module import Module
from repro.models.resnet import BasicBlock, BottleneckBlock


@dataclass(frozen=True)
class ModelSummary:
    """Inventory of one benchmark model (one row of Table 1)."""

    name: str
    num_operators: int
    num_parameters: int
    model_size_mb: float
    num_layers_by_type: Dict[str, int]


def _is_leaf(module: Module) -> bool:
    return not module._modules


def summarize_model(model: Module, name: Optional[str] = None) -> ModelSummary:
    """Count dataflow operators and parameter bytes of ``model``."""
    counts: Dict[str, int] = {}
    num_operators = 0
    for _, module in model.named_modules():
        type_name = type(module).__name__
        if _is_leaf(module):
            counts[type_name] = counts.get(type_name, 0) + 1
            num_operators += 1
        if isinstance(module, (BasicBlock, BottleneckBlock)):
            # The residual element-wise addition is an operator of its own in
            # the dataflow graph even though it is not a child module.
            counts["ResidualAdd"] = counts.get("ResidualAdd", 0) + 1
            num_operators += 1

    num_parameters = model.num_parameters()
    model_size_mb = model.parameter_bytes() / (1024.0 * 1024.0)
    return ModelSummary(
        name=name or type(model).__name__,
        num_operators=num_operators,
        num_parameters=num_parameters,
        model_size_mb=model_size_mb,
        num_layers_by_type=counts,
    )
