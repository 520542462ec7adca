"""The task manager: handles task-completion events and tracks throughput.

In the paper's system the task manager runs on multiple CPU threads, handles
GPU completion events, hands each replica and learner stream to the next
learning task and frees input-batch slots (§4.1 step 4).  Here every
iteration runs every learner, so nothing changes hands, and the task
manager's externally visible role is bookkeeping: it records completed
iterations and exposes the rate at which learning tasks complete, which is
precisely the signal the auto-tuner consumes (§4.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.engine.scheduler import IterationTiming


@dataclass(frozen=True)
class CompletionEvent:
    """One completed iteration, as seen by the task manager."""

    iteration: int
    sim_time: float
    samples: int
    duration: float


class TaskManager:
    """Tracks iteration completions and computes training throughput."""

    def __init__(self, window: int = 20) -> None:
        if window < 1:
            raise ValueError("throughput window must be >= 1")
        self.window = window
        self.events: List[CompletionEvent] = []
        self._recent: Deque[CompletionEvent] = deque(maxlen=window)
        self.total_samples = 0
        self.total_learning_tasks = 0

    def handle_completion(
        self, timing: IterationTiming, num_learning_tasks: int
    ) -> CompletionEvent:
        """Record the completion of one scheduled iteration."""
        event = CompletionEvent(
            iteration=timing.iteration,
            sim_time=timing.end,
            samples=timing.samples,
            duration=timing.duration,
        )
        self.events.append(event)
        self._recent.append(event)
        self.total_samples += timing.samples
        self.total_learning_tasks += num_learning_tasks
        return event

    # -- throughput signals ----------------------------------------------------------------
    def recent_throughput(self) -> float:
        """Images/second over the sliding window of recent iterations (simulated time)."""
        if len(self._recent) < 2:
            return 0.0
        first, last = self._recent[0], self._recent[-1]
        elapsed = last.sim_time - first.sim_time + first.duration
        if elapsed <= 0:
            return 0.0
        samples = sum(event.samples for event in self._recent)
        return samples / elapsed

    def cumulative_throughput(self) -> float:
        """Images/second since the start of training."""
        if not self.events:
            return 0.0
        elapsed = self.events[-1].sim_time
        return self.total_samples / elapsed if elapsed > 0 else 0.0

    def reset_window(self) -> None:
        """Clear the sliding window (after the auto-tuner changes the learner count)."""
        self._recent.clear()

    def __len__(self) -> int:
        return len(self.events)
