"""Load generators that do not perturb the program they measure.

Both generators are driven from the calling thread and never busy-wait: a
spinning generator holds the GIL and starves the in-process serving thread,
which collapses the very server it is measuring.

* :func:`run_open_loop` — independent users: requests are sent on a seeded
  Poisson schedule regardless of how the server is doing, all arrivals due
  in the same wake-up are sent together, and latency is timed from each
  request's *due* time, so a stall is charged to every request it delayed.
  How late the generator itself ran is returned beside the latencies.
* :func:`run_closed_loop` — saturation: a fixed number of requests stay in
  flight; each completion submits the next request from the future's
  done-callback, so no generator thread competes with the server at all.

Completion is stamped inside the future's done-callback (the earliest moment
a caller could observe the result).
"""

from __future__ import annotations

import concurrent.futures
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: seconds to wait for stragglers after the last request was sent
DRAIN_TIMEOUT_S = 30.0


def poisson_schedule(seed: int, rate_rps: float, duration_s: float) -> np.ndarray:
    """Arrival offsets (seconds, ascending) of a Poisson process on ``[0, duration)``."""
    rng = np.random.default_rng([seed, 0x5C4ED])
    # Draw a fifth more gaps than the mean needs, then cut at the horizon.
    count = int(rate_rps * duration_s * 1.2) + 64
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=count))
    while arrivals[-1] < duration_s:  # pragma: no cover - 1.2x margin makes this rare
        more = np.cumsum(rng.exponential(1.0 / rate_rps, size=count)) + arrivals[-1]
        arrivals = np.concatenate([arrivals, more])
    return arrivals[arrivals < duration_s]


def request_indices(seed: int, count: int, pool_size: int) -> np.ndarray:
    """Which sample of the request pool each of ``count`` requests carries."""
    rng = np.random.default_rng([seed, 0x5A3B1E])
    return rng.integers(0, pool_size, size=count)


@dataclass
class OpenLoopResult:
    """What one open-loop block observed, one row per request."""

    due: np.ndarray  # schedule offsets (s)
    sent: np.ndarray  # actual send offsets (s); NaN = never sent
    done: np.ndarray  # completion offsets (s); NaN = never completed
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: request index -> logits, kept for every ``check_every``-th request
    responses: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1000.0

    @property
    def failed(self) -> int:
        """Requests whose future raised, or that never completed."""
        raised = {index for index, _ in self.errors}
        lost = int(np.isnan(self.done).sum())
        return len(raised) + lost


def run_open_loop(
    submit: Callable[[np.ndarray], concurrent.futures.Future],
    pool: np.ndarray,
    schedule: np.ndarray,
    indices: np.ndarray,
    check_every: int = 16,
    periodic: Optional[Tuple[float, Callable[[int], None]]] = None,
) -> OpenLoopResult:
    """Send ``pool[indices[i]]`` at ``schedule[i]`` and time every response.

    ``periodic=(interval_s, fn)`` calls ``fn(n)`` from the generator whenever
    schedule time passes the ``n``-th multiple of ``interval_s`` (the
    checkpoint re-publisher of the hot-swap workload).
    """
    count = len(schedule)
    result = OpenLoopResult(
        due=np.asarray(schedule, dtype=np.float64),
        sent=np.full(count, np.nan),
        done=np.full(count, np.nan),
    )
    # A short lead so the first arrivals are not already late.
    origin = time.perf_counter() + 0.02

    def on_done(index: int, future: concurrent.futures.Future) -> None:
        result.done[index] = time.perf_counter() - origin
        error = future.exception()
        if error is not None:
            result.errors.append((index, repr(error)))
        elif index % check_every == 0:
            result.responses[index] = np.array(future.result(), copy=True)

    ticks = 0
    cursor = 0
    while cursor < count:
        now = time.perf_counter() - origin
        if periodic is not None and now >= ticks * periodic[0]:
            periodic[1](ticks)
            ticks += 1
            continue
        wait = schedule[cursor] - now
        if wait > 0:
            if periodic is not None:
                wait = min(wait, max(ticks * periodic[0] - now, 0.0))
            time.sleep(wait)
            continue
        # Everything due by now goes out in this wake-up.
        upto = int(np.searchsorted(schedule, now, side="right"))
        for index in range(cursor, upto):
            result.sent[index] = time.perf_counter() - origin
            future = submit(pool[indices[index] : indices[index] + 1])
            future.add_done_callback(functools.partial(on_done, index))
        cursor = upto
    # Futures are not kept (memory would grow with the request count); the
    # stamps the callbacks leave say when everything has come back.
    _sleep_until(lambda: not np.isnan(result.done).any())
    return result


def _sleep_until(finished: Callable[[], bool]) -> None:
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while not finished() and time.perf_counter() < deadline:
        time.sleep(0.002)


@dataclass
class ClosedLoopResult:
    """Completion stamps (perf_counter instants) of one saturation run."""

    started_at: float
    stamps: np.ndarray
    submitted: int
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Requests that raised or never completed."""
        return max(0, self.submitted - len(self.stamps))


def run_closed_loop(
    submit: Callable[[np.ndarray], concurrent.futures.Future],
    pool: np.ndarray,
    indices: np.ndarray,
    duration_s: float,
    in_flight: int = 64,
) -> ClosedLoopResult:
    """Keep ``in_flight`` single-sample requests outstanding for ``duration_s``.

    The calling thread only primes the loop and then sleeps; each completion
    callback submits the successor, so the offered load is always exactly
    what the server can take.
    """
    stamps: List[float] = []
    errors: List[str] = []
    # send() runs on the calling thread (priming) and on the server's thread
    # (callbacks) at once; the lock makes the count exact and the close final.
    lock = threading.Lock()
    state = {"sent": 0, "open": True}

    def send() -> None:
        with lock:
            if not state["open"]:
                return
            index = state["sent"]
            state["sent"] = index + 1
        sample = indices[index % len(indices)]
        submit(pool[sample : sample + 1]).add_done_callback(on_done)

    def on_done(future: concurrent.futures.Future) -> None:
        error = future.exception()
        if error is not None:
            errors.append(repr(error))
        else:
            stamps.append(time.perf_counter())
        send()

    started_at = time.perf_counter()
    for _ in range(in_flight):
        send()
    time.sleep(duration_s)
    with lock:
        state["open"] = False
        submitted = state["sent"]
    _sleep_until(lambda: len(stamps) + len(errors) >= submitted)
    return ClosedLoopResult(
        started_at=started_at,
        stamps=np.asarray(stamps, dtype=np.float64),
        submitted=submitted,
        errors=errors,
    )
