"""Tests for the one slot ring (``repro.serve.ring``) both serving pools adapt.

Two things only a single ring makes checkable in one place:

* the protocol itself, fork-free: a seeded random walk of fill / abort /
  claim / free over one :class:`SlotRing`, asserting after every step that
  the semaphores count exactly the EMPTY and READY slots, that claims come
  out lowest-ticket-first, and that an illegal edge trips its assert;
* the liveness path of the blocking publish: with every slot occupied and the
  only worker dead, ``submit``/``publish`` must raise instead of blocking.
"""

from __future__ import annotations

import os
import random
import signal
import time

import numpy as np
import pytest

from repro.engine import process_execution_supported
from repro.engine.executor import SharedMatrix, _fork_context
from repro.errors import SchedulingError
from repro.models import create_model
from repro.serve import Checkpoint, EvaluatorPool, InferencePool
from repro.serve.ring import (
    _SLOT_CLAIMED,
    _SLOT_EMPTY,
    _SLOT_FILLING,
    _SLOT_READY,
    SlotRing,
)
from repro.utils.rng import RandomState

needs_fork = pytest.mark.skipif(
    not process_execution_supported(), reason="requires the fork start method"
)

NUM_SLOTS = 4
INPUT_DIM = 8


def _states(ring):
    with ring.lock:
        return [int(state) for state in ring.meta.array[:, 0]]


def _assert_permits_match(ring):
    states = _states(ring)
    assert ring.free.get_value() == states.count(_SLOT_EMPTY)
    assert ring.ready.get_value() == states.count(_SLOT_READY)


@pytest.fixture
def ring():
    payload = SharedMatrix(NUM_SLOTS, 1)
    ring = SlotRing(_fork_context(), NUM_SLOTS, [payload])
    yield ring
    ring.close()


# ------------------------------------------------------------------- the protocol
@needs_fork
class TestSlotRingProtocol:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_walk_keeps_permits_and_claim_order(self, ring, seed):
        """Any legal fill/abort/claim/free sequence: ``free`` permits == EMPTY
        slots, ``ready`` permits == READY slots, lowest ticket claimed first,
        and each claimed slot carries the payload published under its ticket."""
        rng = random.Random(seed)
        payload = ring.payload[0].array
        claims = ring.claims()
        ready = {}  # ticket -> slot, the model of what is READY
        claimed = {}  # slot -> ticket
        tickets = list(range(1000))
        rng.shuffle(tickets)  # tickets need not arrive in order
        for _ in range(400):
            op = rng.choice(("fill", "abort", "claim", "free"))
            if op in ("fill", "abort") and ring.free.acquire(block=False):
                ticket = tickets.pop()
                if op == "fill":
                    with ring.filling(ticket) as slot:
                        assert _states(ring)[slot] == _SLOT_FILLING
                        payload[slot, 0] = ticket
                    ready[ticket] = slot
                else:
                    with pytest.raises(RuntimeError, match="bad payload"):
                        with ring.filling(ticket):
                            raise RuntimeError("bad payload")
            elif op == "claim" and ready:
                slot, ticket = next(claims)
                assert ticket == min(ready)
                assert slot == ready.pop(ticket)
                assert _states(ring)[slot] == _SLOT_CLAIMED
                claimed[slot] = ticket
            elif op == "free" and claimed:
                slot = rng.choice(sorted(claimed))
                with ring.reading(slot):
                    assert payload[slot, 0] == claimed.pop(slot)
            _assert_permits_match(ring)
        states = _states(ring)
        assert {s for s, state in enumerate(states) if state == _SLOT_READY} == set(ready.values())
        assert {s for s, state in enumerate(states) if state == _SLOT_CLAIMED} == set(claimed)

    def test_illegal_edges_trip_their_asserts(self, ring):
        assert _states(ring) == [_SLOT_EMPTY] * NUM_SLOTS
        with pytest.raises(AssertionError, match="never claimed"):
            ring._free_claimed_slot(0)
        with pytest.raises(AssertionError, match="never reserved"):
            ring._publish_ready_slot(0, ticket=1)
        with pytest.raises(AssertionError, match="never reserved"):
            ring._abort_filling_slot(0)
        ring.free.acquire()
        with ring.filling(7) as slot:
            pass
        with pytest.raises(AssertionError, match="never claimed"):
            ring._free_claimed_slot(slot)  # READY, not CLAIMED
        assert _states(ring)[slot] == _SLOT_READY  # the failed edges changed nothing
        _assert_permits_match(ring)

    def test_full_ring_has_no_free_permit_and_stop_ends_claims(self, ring):
        for ticket in range(NUM_SLOTS):
            assert ring.free.acquire(block=False)
            with ring.filling(ticket):
                pass
        assert not ring.free.acquire(block=False)
        claims = ring.claims()
        assert next(claims)[1] == 0
        ring.request_stop(workers=1)
        assert list(claims) == []  # the latch wins over the three READY slots


# ------------------------------------------------------------------- liveness
class _NoBatches:
    def test_batches(self, batch_size):
        return []


def _model():
    return create_model(
        "mlp", rng=RandomState(3), input_dim=INPUT_DIM, num_classes=4, hidden_sizes=(16,)
    )


def _evaluator_pool():
    model = _model()
    pool = EvaluatorPool(model, _NoBatches(), workers=1, num_slots=2)
    checkpoint = Checkpoint.from_model(model)
    return pool, lambda ticket: pool.submit(ticket, checkpoint)


def _inference_pool():
    pool = InferencePool(_model(), sample_shape=(INPUT_DIM,), workers=1, num_slots=2)
    batch = np.zeros((1, INPUT_DIM), dtype=np.float32)
    return pool, lambda ticket: pool.publish(ticket, batch)


@needs_fork
@pytest.mark.parametrize("build", [_evaluator_pool, _inference_pool])
def test_publish_into_a_full_ring_fails_fast_when_the_only_worker_died(build):
    """Every slot occupied and the only worker SIGKILLed: the next publish
    must raise within the liveness poll instead of blocking on ``free``."""
    pool, publish = build()
    try:
        (worker,) = pool._processes()
        # Freeze the worker first so it cannot drain the ring, then fill it.
        os.kill(worker.pid, signal.SIGSTOP)
        for ticket in range(pool.num_slots):
            publish(ticket)
        worker.kill()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        started = time.monotonic()
        with pytest.raises(SchedulingError, match="died while the slot ring was full"):
            publish(pool.num_slots)
        assert time.monotonic() - started < 3.0
        assert pool.in_flight == pool.num_slots  # the failed publish counted nothing
    finally:
        # Never the cooperative close(): it takes the ring lock, which a
        # killed worker may have died holding.
        pool.terminate()
