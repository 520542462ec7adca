"""Tests for the serving rules: the sans-I/O ``BatchingCore`` and its drivers.

Two layers:

* a hypothesis state machine over the core alone — admit / advance / next_batch
  on a fake clock, for every admission policy, with the conservation, ordering,
  cap, deadline, ripeness and degrade invariants checked after every step
  (fork-free, thread-free);
* live vs simulated — the same burst through a real ``InferenceServer`` (its
  forward held on a gate, so the burst lands while the loop is busy) and
  through ``simulate()`` on an explicit-arrival trace must produce the same
  counters, batch count and served count; plus the drift regression: requests
  waiting out their coalescing window count toward ``max_queue_depth`` on both
  planes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import AdmissionError, ConfigurationError
from repro.nn import Linear, Module
from repro.scenarios import Arrival, Scenario, ServiceModel, Trace, simulate
from repro.serve import InferenceServer
from repro.serve.batching import ADMISSION_POLICIES, BatchingCore
from repro.utils.rng import RandomState

CAP, WINDOW_MS, BOUND = 4, 10.0, 3


@dataclass
class _Req:
    seq: int
    size: int
    enqueued_at: float
    deadline: Optional[float]


# ------------------------------------------------------------ the core, on a fake clock
class CoreMachine(RuleBasedStateMachine):
    def __init__(self, policy: str) -> None:
        super().__init__()
        self.policy = policy
        self.core: BatchingCore[_Req] = BatchingCore(CAP, WINDOW_MS, policy, BOUND)
        self.now = 0.0
        self.wake_at: Optional[float] = None
        self.admits = 0
        self.rejected = 0
        self.shed = 0
        self.degraded_batches = 0
        self.served: List[_Req] = []
        self.expired: List[_Req] = []

    @rule(size=st.integers(1, CAP + 2), deadline_ms=st.sampled_from([None, 0.0, 4.0, 25.0]))
    def admit(self, size: int, deadline_ms: Optional[float]) -> None:
        deadline = None if deadline_ms is None else self.now + deadline_ms / 1000.0
        request = _Req(self.admits, size, self.now, deadline)
        self.admits += 1
        before = list(self.core.queue)
        refused = self.core.admit(request)
        full = self.policy in ("reject", "shed-oldest") and len(before) >= BOUND
        if full and self.policy == "reject":
            assert refused is request
            assert list(self.core.queue) == before
            self.rejected += 1
        elif full:
            assert refused is before[0]
            assert list(self.core.queue) == before[1:] + [request]
            self.shed += 1
        else:
            assert refused is None
            assert list(self.core.queue) == before + [request]

    @rule(dt_ms=st.sampled_from([0.5, 3.0, 12.0, 30.0]))
    def advance(self, dt_ms: float) -> None:
        self.now += dt_ms / 1000.0

    @rule()
    def sleep_until_wake_at(self) -> None:
        """What every driver does with ``wake_at``: be back exactly then."""
        if self.wake_at is not None:
            self.now = max(self.now, self.wake_at)

    @rule()
    def next_batch(self) -> None:
        prior = list(self.core.queue)
        now = self.now
        decision = self.core.next_batch(now)
        batch, expired = decision.batch, decision.expired
        taken = len(batch) + len(expired)
        # What was taken is a prefix of the queue; the rest is untouched, in order.
        assert sorted(batch + expired, key=lambda r: r.seq) == prior[:taken]
        assert list(self.core.queue) == prior[taken:]
        assert [r.seq for r in batch] == sorted(r.seq for r in batch)
        assert len(batch) == 1 or sum(r.size for r in batch) <= CAP
        assert all(r.deadline is None or now <= r.deadline for r in batch)
        assert all(r.deadline is not None and now > r.deadline for r in expired)
        overloaded = self.policy == "degrade" and len(prior) - 1 >= BOUND
        assert decision.degraded == overloaded
        if taken:
            anchor = prior[0]
            assert (
                sum(r.size for r in prior) >= CAP
                or now >= anchor.enqueued_at + WINDOW_MS / 1000.0
                or overloaded
            )
            assert decision.wake_at is None
            # The take stops at the request that fills the batch, or short of
            # the cap before the one that would overflow it, or at the queue's end.
            filled = sum(r.size for r in batch)
            if filled >= CAP:
                assert prior[taken - 1] is batch[-1]
            elif batch and prior[taken:]:
                assert filled + prior[taken].size > CAP
        elif prior:
            assert decision.wake_at == prior[0].enqueued_at + WINDOW_MS / 1000.0 > now
            assert sum(r.size for r in prior) < CAP
        else:
            assert decision.wake_at is None
        self.wake_at = decision.wake_at
        self.served += batch
        self.expired += expired
        self.degraded_batches += bool(batch and decision.degraded)

    @invariant()
    def accounting_holds(self) -> None:
        counters, queue = self.core.counters, self.core.queue
        assert counters.offered == self.admits == counters.accepted + counters.rejected
        assert counters.rejected == self.rejected
        assert counters.shed == self.shed
        assert counters.deadline_missed == len(self.expired)
        assert counters.degraded_batches == self.degraded_batches
        assert counters.accepted == len(self.served) + self.shed + len(self.expired) + len(queue)
        if self.policy in ("reject", "shed-oldest"):
            assert len(queue) <= BOUND and counters.max_queue_depth_seen <= BOUND
        # Served requests, concatenated over batches, left in arrival order.
        assert [r.seq for r in self.served] == sorted(r.seq for r in self.served)


@pytest.mark.parametrize("policy", ADMISSION_POLICIES)
def test_core_state_machine(policy):
    run_state_machine_as_test(
        lambda: CoreMachine(policy),
        settings=settings(max_examples=25, stateful_step_count=40, deadline=None),
    )


def test_edges_a_random_walk_rarely_reaches():
    # A full batch ends the take: the expired request right behind it stays queued.
    core: BatchingCore[_Req] = BatchingCore(2, 0.0, "none", None)
    for seq, deadline in enumerate([None, None, 0.5, None]):
        core.admit(_Req(seq, 1, 0.0, deadline))
    decision = core.next_batch(1.0)
    assert [r.seq for r in decision.batch] == [0, 1] and not decision.expired
    decision = core.next_batch(1.0)
    assert [r.seq for r in decision.batch] == [3] and [r.seq for r in decision.expired] == [2]
    # Overload that finds only expired requests ran no degraded forward pass.
    core = BatchingCore(2, 50.0, "degrade", 1)
    for seq in range(3):
        core.admit(_Req(seq, 1, 0.0, 0.5))
    decision = core.next_batch(1.0)
    assert decision.degraded and not decision.batch and len(decision.expired) == 3
    assert core.counters.degraded_batches == 0 and core.counters.deadline_missed == 3


def test_constructor_is_the_knob_validation():
    for knobs in [(0, 1.0, "none", None), (1, -1.0, "none", None), (1, 1.0, "drop-newest", 1)]:
        with pytest.raises(ConfigurationError):
            BatchingCore(*knobs)
    for policy in ("reject", "shed-oldest", "degrade"):
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            BatchingCore(1, 1.0, policy, 0)
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            Scenario(trace=_ExplicitTrace(), admission_policy=policy, max_queue_depth=None)


# ------------------------------------------------------------------ live vs simulated
@dataclass(frozen=True)
class _ExplicitTrace(Trace):
    """Arrivals at exactly the listed ``(at_s, samples)`` points."""

    schedule: Tuple[Tuple[float, int], ...] = ()

    def arrivals(self, seed: int) -> List[Arrival]:
        return [Arrival(at_s=at, samples=samples) for at, samples in self.schedule]


class _Gate:
    """The test's handle on a gated forward; survives ``Module.clone()``'s deepcopy."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.open = threading.Event()

    def __deepcopy__(self, memo: dict) -> "_Gate":
        return self


class _GatedModel(Module):
    """A one-layer model whose forward blocks until the gate opens."""

    def __init__(self, gate: _Gate, width: int = 8) -> None:
        super().__init__()
        self.gate = gate
        self.head = Linear(width, 4, rng=RandomState(3))

    def forward(self, x):
        self.gate.entered.set()
        assert self.gate.open.wait(timeout=30.0)
        return self.head(x)


def _images(n: int) -> np.ndarray:
    return RandomState(n).normal(size=(n, 8)).astype(np.float32)


def _settle(futures) -> int:
    """Wait for every future; how many were served (the rest were refused)."""
    served = 0
    for future in futures:
        try:
            future.result(timeout=30.0)
            served += 1
        except AdmissionError:
            pass
    return served


_COMPARED = ("offered", "accepted", "rejected", "shed", "deadline_missed", "degraded_batches")
_BURST = (1, 2, 1, 3, 1, 1, 2, 1)


@pytest.mark.parametrize("cap", [1, 4])
@pytest.mark.parametrize("policy", ADMISSION_POLICIES)
def test_burst_behind_a_busy_loop_matches_simulation(policy, cap):
    knobs = dict(
        max_batch_size=cap, max_latency_ms=0.0, admission_policy=policy, max_queue_depth=3
    )
    gate = _Gate()
    server = InferenceServer(_GatedModel(gate), **knobs)
    with server:
        futures = [server.submit(_images(1))]
        assert gate.entered.wait(timeout=30.0)  # the loop is inside the forward
        futures += [server.submit(_images(size)) for size in _BURST]
        gate.open.set()
        served = _settle(futures)
    live = server.counters.summary()

    trace = _ExplicitTrace(schedule=((0.0, 1),) + tuple((0.001, size) for size in _BURST))
    result = simulate(Scenario(trace=trace, service=ServiceModel(1000.0, 1.0), **knobs))
    simulated = result.counters.summary()
    assert {key: live[key] for key in _COMPARED} == {key: simulated[key] for key in _COMPARED}
    assert server.stats.batches == result.batches
    assert served == server.stats.requests == result.served


def test_requests_waiting_out_their_window_count_as_queued():
    """The drift regression: six arrivals inside one 200 ms window, bound 2.

    The two that fit wait for company in the queue — and count toward
    ``max_queue_depth`` — so the other four are refused, live and simulated.
    """
    knobs = dict(
        max_batch_size=8, max_latency_ms=200.0, admission_policy="reject", max_queue_depth=2
    )
    server = InferenceServer(Linear(8, 4, rng=RandomState(3)), **knobs)
    with server:
        futures = []
        for _ in range(6):
            futures.append(server.submit(_images(1)))
            time.sleep(0.005)
        served = _settle(futures)
    trace = _ExplicitTrace(schedule=tuple((0.005 * i, 1) for i in range(6)))
    result = simulate(Scenario(trace=trace, **knobs))
    assert server.counters.rejected == result.counters.rejected == 4
    assert served == result.served == 2
    assert server.stats.batches == result.batches == 1
