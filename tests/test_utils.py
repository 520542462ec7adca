"""Utility modules: RNG management, registry, timer, logging, errors, version."""

from __future__ import annotations

import logging

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigurationError,
    DataError,
    GradientError,
    MemoryPlanError,
    ReproError,
    SchedulingError,
    ShapeError,
)
from repro.utils import RandomState, Registry, Timer, get_logger, split_seed


class TestRandomState:
    def test_same_seed_same_stream(self):
        a = RandomState(42).normal(size=10)
        b = RandomState(42).normal(size=10)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomState(1).normal(size=10)
        b = RandomState(2).normal(size=10)
        assert not np.allclose(a, b)

    def test_child_streams_are_independent_and_deterministic(self):
        parent = RandomState(7, name="root")
        child_a1 = parent.child("data").normal(size=5)
        child_a2 = RandomState(7, name="root").child("data").normal(size=5)
        child_b = RandomState(7, name="root").child("model").normal(size=5)
        np.testing.assert_allclose(child_a1, child_a2)
        assert not np.allclose(child_a1, child_b)

    def test_split_seed_is_deterministic_and_key_sensitive(self):
        assert split_seed(3, "x") == split_seed(3, "x")
        assert split_seed(3, "x") != split_seed(3, "y")
        assert split_seed(3, "x") != split_seed(4, "x")

    def test_convenience_draws(self):
        rng = RandomState(0)
        assert rng.uniform(size=3).shape == (3,)
        assert rng.integers(0, 5, size=4).max() < 5
        assert sorted(rng.permutation(6).tolist()) == list(range(6))
        assert rng.choice([1, 2, 3]) in (1, 2, 3)
        values = list(range(10))
        rng.shuffle(values)
        assert sorted(values) == list(range(10))


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("thing")
        registry.register("a", lambda x: x + 1)
        assert registry.create("a", 2) == 3
        assert "a" in registry
        assert len(registry) == 1

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("double")
        def double(x):
            return 2 * x

        assert registry.create("double", 4) == 8
        assert list(registry) == ["double"]

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", lambda: None)
        with pytest.raises(ValueError):
            registry.register("a", lambda: None)

    def test_unknown_name_error_lists_known_names(self):
        registry = Registry("thing")
        registry.register("alpha", lambda: None)
        with pytest.raises(KeyError, match="alpha"):
            registry.get("beta")


class TestTimerAndLogging:
    def test_timer_records_laps(self):
        timer = Timer()
        with timer:
            sum(range(1000))
        assert timer.total() > 0
        timer.start()
        timer.stop("phase2")
        assert timer.total("phase2") > 0

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_get_logger_namespacing(self):
        logger = get_logger("engine.test")
        assert logger.name == "repro.engine.test"
        assert isinstance(logger, logging.Logger)


class TestErrorsAndVersion:
    def test_error_hierarchy(self):
        for error_cls in (
            ShapeError,
            GradientError,
            ConfigurationError,
            SchedulingError,
            MemoryPlanError,
            DataError,
        ):
            assert issubclass(error_cls, ReproError)

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2
