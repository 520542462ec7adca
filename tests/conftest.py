"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.data import create_dataset
from repro.utils.rng import RandomState


def _shm_segments() -> set:
    """Names of the ``multiprocessing.shared_memory`` segments that exist now."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _lane_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("learner-lane-")}


@pytest.fixture(autouse=True)
def no_leaked_resources():
    """Fail a test that leaves a shared segment, a child process or a lane thread behind."""
    segments = _shm_segments()
    children = set(multiprocessing.active_children())
    lanes = _lane_threads()
    yield
    leaks = []
    new_segments = sorted(_shm_segments() - segments)
    if new_segments:
        leaks.append(f"shared-memory segments {new_segments}")
    new_children = sorted(c.name for c in set(multiprocessing.active_children()) - children)
    if new_children:
        leaks.append(f"live child processes {new_children}")
    new_lanes = sorted(thread.name for thread in _lane_threads() - lanes)
    if new_lanes:
        leaks.append(f"learner-lane threads {new_lanes}")
    if leaks:
        pytest.fail("test leaked " + "; ".join(leaks))


@pytest.fixture
def rng() -> RandomState:
    """A deterministic random stream for tests."""
    return RandomState(1234, name="tests")


@pytest.fixture
def blobs_dataset():
    """A small, easily separable dataset that trains in a fraction of a second."""
    return create_dataset("blobs", num_train=256, num_test=128, num_classes=4, input_dim=16)


@pytest.fixture
def tiny_image_dataset():
    """A small synthetic image dataset (3x8x8) for CNN-level tests."""
    from repro.data.datasets import SyntheticImageDataset

    return SyntheticImageDataset(
        "tiny", num_classes=3, channels=3, image_size=8, num_train=96, num_test=48, seed=5
    )


@pytest.fixture
def mlp_model(rng):
    from repro.models import MLP

    return MLP(input_dim=16, num_classes=4, hidden_sizes=(16,), rng=rng)
