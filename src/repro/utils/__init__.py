"""Shared utilities: RNG management, registries, timers and lightweight logging."""

from repro.utils.rng import RandomState, split_seed
from repro.utils.registry import Registry
from repro.utils.timer import Timer
from repro.utils.logging import get_logger

__all__ = [
    "RandomState",
    "split_seed",
    "Registry",
    "Timer",
    "get_logger",
]
