"""Deterministic random-number management.

Every stochastic component in the library (dataset generation, weight
initialisation, batch shuffling, simulated kernel jitter) draws from an explicit
:class:`RandomState` rather than the global NumPy generator, so that experiments
are reproducible and independent components do not perturb each other's streams.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

class RandomState:
    """A named, seedable wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Integer seed. ``None`` draws entropy from the OS.
    name:
        Optional label used when deriving child streams, so that two components
        with different names never share a stream even if given the same seed.
    """

    def __init__(self, seed: Optional[int] = None, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._generator = np.random.default_rng(seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator."""
        return self._generator

    def child(self, name: str) -> "RandomState":
        """Derive an independent child stream keyed by ``name``."""
        derived = split_seed(self.seed if self.seed is not None else 0, f"{self.name}/{name}")
        return RandomState(derived, name=f"{self.name}/{name}")

    # Convenience passthroughs -------------------------------------------------
    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._generator.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._generator.uniform(low, high, size)

    def exponential(self, scale=1.0, size=None) -> np.ndarray:
        return self._generator.exponential(scale, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._generator.integers(low, high, size)

    def permutation(self, n) -> np.ndarray:
        return self._generator.permutation(n)

    def shuffle(self, array) -> None:
        self._generator.shuffle(array)

    def choice(self, a, size=None, replace=True, p=None):
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomState(seed={self.seed!r}, name={self.name!r})"


def split_seed(seed: int, key: str) -> int:
    """Deterministically derive a new 63-bit seed from ``seed`` and a string key."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF
