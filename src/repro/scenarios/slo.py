"""Service-level objectives: turning counters into pass/fail verdicts.

Admission control gives the server *mechanisms* (reject, shed, degrade,
deadlines); an :class:`SLOSpec` states the *contract* those mechanisms must
uphold under a given workload — p99 latency below a bound, deadline misses
and rejections below a rate, a minimum fraction of offered requests served.
Following the behavioural-contract stance of AWDIT-style testing harnesses,
the verdict logic lives here once, shared by pytest assertions, the
``ScenarioRunner`` rows, and the ``bench_scenarios`` CLI, instead of being
re-asserted ad hoc in every test.

A spec evaluates any mapping that carries the standard accounting columns
(``offered``/``accepted``/``served``/``rejected``/``shed``/
``deadline_missed``/``p99_ms``) — a :class:`ScenarioResult` row, or a row
built from a live :class:`~repro.serve.batching.ServeCounters` via
:func:`counters_row`.  Unset objectives are simply not checked, so a spec can
be as narrow as one latency bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.batching import ServeCounters


@dataclass(frozen=True)
class SLOCheck:
    """One evaluated objective: the bound, what was observed, and the verdict."""

    objective: str
    bound: float
    observed: float
    ok: bool

    def __str__(self) -> str:
        comparator = "<=" if self.ok else ">"
        return f"{self.objective}: {self.observed:g} {comparator} {self.bound:g}"


@dataclass(frozen=True)
class SLOReport:
    """Every objective's outcome for one scenario; falsy when any failed."""

    spec: "SLOSpec"
    checks: Sequence[SLOCheck]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def verdict(self) -> str:
        """``"pass"``/``"fail"`` — the tidy-row column value."""
        return "pass" if self.passed else "fail"

    def failures(self) -> List[SLOCheck]:
        return [check for check in self.checks if not check.ok]

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        if not self.checks:
            return "pass (no objectives)"
        return f"{self.verdict}: " + "; ".join(str(check) for check in self.checks)


@dataclass(frozen=True)
class SLOSpec:
    """Bounds the serving plane must hold under a scenario's load.

    Parameters
    ----------
    p99_latency_ms : float, optional
        Upper bound on the p99 request latency (over served requests).
    max_deadline_miss_rate : float, optional
        Upper bound on ``deadline_missed / accepted`` — the fraction of
        admitted requests that expired before a forward pass started.
    max_rejection_rate : float, optional
        Upper bound on ``(rejected + shed) / offered`` — the fraction of
        offered requests the admission policy turned away.
    min_served_fraction : float, optional
        Lower bound on ``served / offered`` — the end-to-end goodput floor.

    Every bound is optional; unset objectives are not checked.  A spec with
    no objectives passes vacuously (and says so in its report).
    """

    name: str = "slo"
    p99_latency_ms: Optional[float] = None
    max_deadline_miss_rate: Optional[float] = None
    max_rejection_rate: Optional[float] = None
    min_served_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        for attribute in (
            "p99_latency_ms",
            "max_deadline_miss_rate",
            "max_rejection_rate",
            "min_served_fraction",
        ):
            value = getattr(self, attribute)
            if value is not None and value < 0:
                raise ConfigurationError(f"SLOSpec {attribute} must be >= 0")

    def evaluate(self, row: Mapping[str, object]) -> SLOReport:
        """Check every set objective against one accounting row."""
        offered = max(float(row.get("offered", 0) or 0), 1.0)
        accepted = max(float(row.get("accepted", 0) or 0), 1.0)
        checks: List[SLOCheck] = []
        if self.p99_latency_ms is not None:
            p99 = float(row.get("p99_ms", 0.0) or 0.0)
            checks.append(
                SLOCheck("p99_latency_ms", self.p99_latency_ms, p99, p99 <= self.p99_latency_ms)
            )
        if self.max_deadline_miss_rate is not None:
            rate = float(row.get("deadline_missed", 0) or 0) / accepted
            checks.append(
                SLOCheck(
                    "deadline_miss_rate",
                    self.max_deadline_miss_rate,
                    rate,
                    rate <= self.max_deadline_miss_rate,
                )
            )
        if self.max_rejection_rate is not None:
            turned_away = float(row.get("rejected", 0) or 0) + float(row.get("shed", 0) or 0)
            rate = turned_away / offered
            checks.append(
                SLOCheck(
                    "rejection_rate",
                    self.max_rejection_rate,
                    rate,
                    rate <= self.max_rejection_rate,
                )
            )
        if self.min_served_fraction is not None:
            fraction = float(row.get("served", 0) or 0) / offered
            # A lower bound: ok when observed >= bound (SLOCheck renders the
            # comparator from ok, so report strings stay readable).
            checks.append(
                SLOCheck(
                    "served_fraction",
                    self.min_served_fraction,
                    fraction,
                    fraction >= self.min_served_fraction,
                )
            )
        return SLOReport(spec=self, checks=tuple(checks))


def counters_row(
    counters: ServeCounters,
    latencies_ms: Optional[Iterable[float]] = None,
    served: Optional[int] = None,
) -> dict:
    """An SLO-evaluable accounting row from a live server's counters.

    ``offered`` is every submitted request (accepted + rejected); ``served``
    defaults to the accepted requests that were not later shed or expired —
    pass the server's ``stats.requests`` when batching may still be in
    flight.  ``latencies_ms`` (e.g. ``server.stats.latencies_ms``) feeds the
    p99 objective; omitted, p99 reports 0.
    """
    samples = np.asarray(list(latencies_ms if latencies_ms is not None else []), dtype=np.float64)
    if served is None:
        served = counters.accepted - counters.shed - counters.deadline_missed
    summary = counters.summary()
    return {
        "offered": counters.offered,
        "accepted": counters.accepted,
        "rejected": counters.rejected,
        "shed": counters.shed,
        "deadline_missed": counters.deadline_missed,
        "served": served,
        "p50_ms": float(np.percentile(samples, 50)) if samples.size else 0.0,
        "p99_ms": float(np.percentile(samples, 99)) if samples.size else 0.0,
        "queue_depth_p50": summary["queue_depth_p50"],
        "queue_depth_p99": summary["queue_depth_p99"],
    }
