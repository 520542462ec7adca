"""Order statistics the benchmark reports: medians, quartile spread, windows.

Every end-to-end number is the best of its repeats (train runs, serve
segments, saturation windows, set-up launches); the spread printed beside it
is the distance between the first and third quartile as a share of the
median — the same statistic the acceptance check applies across runs.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

import numpy as np


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median; 0.0 for fewer than two values or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


def segment_percentiles(
    due: np.ndarray, latency: np.ndarray, segment_s: float, segments: int, q: float
) -> List[float]:
    """Per-segment ``q``-th percentile of ``latency``, bucketed by due time.

    ``due`` are schedule offsets from the start of the block; a request
    belongs to the segment its *due* time falls in, so a stall is charged to
    the segment that suffered it, not the one that drained it.
    """
    out: List[float] = []
    for index in range(segments):
        mask = (due >= index * segment_s) & (due < (index + 1) * segment_s)
        if mask.any():
            out.append(float(np.percentile(latency[mask], q)))
    return out


def window_rates(stamps: np.ndarray, start: float, window_s: float, windows: int) -> List[float]:
    """Completions per second in consecutive windows, bounded at completion events.

    Completions arrive in batches, so counting stamps inside fixed wall-clock
    windows quantises the rate by one batch per window (±3 % at 32 per batch
    and ~1000 /s).  Each window instead runs from the first completion at or
    after its nominal start to the first completion at or after its nominal
    end, and the rate is completions between the two events over the time
    between them.
    """
    stamps = np.sort(np.asarray(stamps, dtype=np.float64))
    rates: List[float] = []
    for index in range(windows):
        lo = int(np.searchsorted(stamps, start + index * window_s, side="left"))
        hi = int(np.searchsorted(stamps, start + (index + 1) * window_s, side="left"))
        if hi >= len(stamps) or hi <= lo:
            continue
        elapsed = stamps[hi] - stamps[lo]
        if elapsed > 0:
            rates.append(float((hi - lo) / elapsed))
    return rates
