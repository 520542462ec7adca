"""Wall-clock timing helper for ad-hoc measurements."""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Timer:  # repro: waive[R6] - documented API, docs/telemetry.md
    """A simple start/stop timer that accumulates named laps.

    It measures real (host) time, as opposed to the simulated time tracked by
    :mod:`repro.gpusim`, and :meth:`to_span` bridges its laps into telemetry
    (``docs/telemetry.md``).
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.laps: Dict[str, List[float]] = {}

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self, label: str = "default") -> float:
        """Stop the timer and record the elapsed time under ``label``."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before Timer.start()")
        elapsed = time.perf_counter() - self._start
        self._start = None
        self.laps.setdefault(label, []).append(elapsed)
        return elapsed

    def total(self, label: str = "default") -> float:
        return sum(self.laps.get(label, []))

    def to_span(self, recorder, prefix: str = "timer.", **labels) -> int:
        """Bridge accumulated laps into telemetry span events.

        Each recorded lap becomes one ``<prefix><label>`` span on
        ``recorder`` (a :class:`repro.telemetry.Recorder`), so ad-hoc Timer
        measurements join the same queryable store as the instrumented hot
        paths.  Laps stay in place (the bridge may be called once at the end
        of a harness); returns the number of spans emitted.
        """
        emitted = 0
        for label, laps in self.laps.items():
            for elapsed in laps:
                recorder.record_span(f"{prefix}{label}", elapsed, **labels)
                emitted += 1
        return emitted

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
