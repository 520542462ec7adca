"""Scenario execution: deterministic replay of traces against serving semantics.

The acceptance bar for the scenario harness is *bit-identical* per-scenario
counters under a fixed seed — across reruns and across ``n_jobs`` sweep
workers.  The real :class:`~repro.serve.inference.InferenceServer` cannot give
that: it batches against the wall clock, so thread scheduling decides which
requests coalesce.  The harness therefore has two replay planes:

* :func:`simulate` — a discrete-event simulation in *virtual time* driving the
  server's own :class:`~repro.serve.batching.BatchingCore` (the one statement
  of the admission, deadline and coalescing rules, same ``ServeCounters``),
  with a :class:`ServiceModel` standing in for the forward pass and
  ``workers`` parallel serving lanes standing in for replicated servers.
  Deterministic by construction: arrivals come from a seed-threaded
  :class:`~repro.scenarios.traces.Trace` and time only advances through the
  event heap.  This is what :meth:`ScenarioRunner.sweep` fans out and what
  the CI regression gate pins.
* :meth:`ScenarioRunner.replay_live` / :meth:`ScenarioRunner.replay_evaluation`
  — the same traces replayed against a *real* ``InferenceServer`` thread or
  ``EvaluationService`` worker pool, for integration coverage (conservation
  still holds exactly; latencies and batch compositions do not) and for
  fault-injection scenarios that need real processes to kill.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionError, ConfigurationError, SchedulingError
from repro.scenarios.slo import SLOReport, SLOSpec, counters_row
from repro.scenarios.sweep import expand_grid, fan
from repro.scenarios.traces import Trace
from repro.serve.batching import BatchingCore, ServeCounters
from repro.serve.inference import InferenceServer
from repro.telemetry.recorder import get_recorder

__all__ = [
    "ServiceModel",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "simulate",
]


@dataclass(frozen=True)
class ServiceModel:
    """Virtual-time cost model for one forward pass over a coalesced batch.

    ``batch_ms(n) = batch_overhead_ms + per_sample_ms * n`` — an affine model
    with a fixed per-call overhead, which is exactly the shape that makes
    micro-batching pay (the overhead amortises across coalesced requests,
    echoing the single-learner-large-batch argument on the training side).
    """

    batch_overhead_ms: float = 1.0
    per_sample_ms: float = 0.25

    def __post_init__(self) -> None:
        if self.batch_overhead_ms < 0 or self.per_sample_ms <= 0:
            raise ConfigurationError(
                "ServiceModel needs batch_overhead_ms >= 0 and per_sample_ms > 0"
            )

    def batch_ms(self, samples: int) -> float:
        return self.batch_overhead_ms + self.per_sample_ms * samples


@dataclass(frozen=True)
class Scenario:
    """One fully specified replay: a trace against one serving configuration.

    Plain frozen data (trace, knobs, cost model, optional SLO, seed) so a
    sweep's scenario list pickles cleanly into :func:`~repro.scenarios.sweep.fan`
    worker processes.  The four serving knobs are validated by the one
    constructor the live server also goes through, so a scenario that
    simulates is also one the live server would accept.
    """

    trace: Trace
    admission_policy: str = "reject"
    max_queue_depth: Optional[int] = 8
    deadline_ms: Optional[float] = None
    workers: int = 1
    max_batch_size: int = 8
    max_latency_ms: float = 2.0
    service: ServiceModel = field(default_factory=ServiceModel)
    slo: Optional[SLOSpec] = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.batching_core()  # built and dropped: its constructor validates the four knobs
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be positive")
        if self.workers < 1:
            raise ConfigurationError("scenario needs >= 1 worker lane")

    def batching_core(self) -> BatchingCore[_SimRequest]:
        """A fresh core under this scenario's knobs (raises on invalid ones)."""
        return BatchingCore(
            self.max_batch_size, self.max_latency_ms, self.admission_policy, self.max_queue_depth
        )

    @property
    def label(self) -> str:
        """Stable identity for tidy rows and the regression baseline."""
        parts = [self.trace.name, self.admission_policy, f"w{self.workers}"]
        if self.deadline_ms is not None:
            parts.append(f"d{self.deadline_ms:g}ms")
        return "/".join(parts)


@dataclass
class _SimRequest:
    """One in-flight request inside the simulation."""

    enqueued_at: float  # virtual arrival instant
    size: int  # samples
    deadline: Optional[float]  # absolute virtual instant; None = no deadline
    client: int = -1  # closed-loop client index; -1 = open-loop
    index: int = 0  # closed-loop per-client request ordinal


@dataclass
class ScenarioResult:
    """Everything one replay produced: counters, latencies, and the verdict."""

    scenario: Scenario
    counters: ServeCounters
    served: int
    batches: int
    latencies_ms: List[float]
    makespan_s: float
    slo_report: Optional[SLOReport] = None

    @property
    def conserved(self) -> bool:
        """The admission accounting identities every replay must satisfy.

        After a full drain: every offered request was accepted or rejected,
        and every accepted request was served, shed, or expired — no request
        is lost or double-counted.
        """
        counters = self.counters
        return (
            counters.offered == counters.accepted + counters.rejected
            and counters.accepted
            == self.served + counters.shed + counters.deadline_missed
        )

    def check(self) -> "ScenarioResult":
        """Raise :class:`~repro.errors.SchedulingError` unless :attr:`conserved`."""
        if not self.conserved:
            counters = self.counters
            raise SchedulingError(
                f"scenario {self.scenario.label} lost requests: "
                f"offered={counters.offered} accepted={counters.accepted} "
                f"rejected={counters.rejected} served={self.served} "
                f"shed={counters.shed} deadline_missed={counters.deadline_missed}"
            )
        return self

    def row(self) -> Dict[str, object]:
        """One tidy row: identity columns, counters, rates, and the verdict.

        ``served_req_per_s`` matches the regression gate's throughput-column
        pattern, and — being a virtual-time ratio — is exactly reproducible,
        so scenario rows gate at zero tolerance where wall-clock benches need
        slack.
        """
        scenario = self.scenario
        counters = self.counters
        latencies = np.asarray(self.latencies_ms, dtype=np.float64)
        duration = max(self.makespan_s, 1e-9)
        row: Dict[str, object] = {
            "scenario": scenario.label,
            "trace": scenario.trace.name,
            "policy": scenario.admission_policy,
            "workers": scenario.workers,
            "deadline_ms": scenario.deadline_ms if scenario.deadline_ms is not None else 0.0,
            "max_queue_depth": scenario.max_queue_depth or 0,
            "max_batch": scenario.max_batch_size,
            "seed": scenario.seed,
            "offered": counters.offered,
            "accepted": counters.accepted,
            "rejected": counters.rejected,
            "shed": counters.shed,
            "deadline_missed": counters.deadline_missed,
            "served": self.served,
            "batches": self.batches,
            "degraded_batches": counters.degraded_batches,
            "max_queue_depth_seen": counters.max_queue_depth_seen,
            "queue_depth_p99": round(float(counters.summary()["queue_depth_p99"]), 4),
            "p50_ms": round(float(np.percentile(latencies, 50)), 4) if latencies.size else 0.0,
            "p99_ms": round(float(np.percentile(latencies, 99)), 4) if latencies.size else 0.0,
            "duration_s": round(duration, 4),
            "offered_req_per_s": round(counters.offered / duration, 4),
            "served_req_per_s": round(self.served / duration, 4),
        }
        row["slo"] = self.slo_report.verdict if self.slo_report is not None else ""
        return row


# Event kinds, ordered only by (time, sequence) — the kind never breaks ties,
# so every heap entry carries a unique monotone sequence number.
_ARRIVAL, _LANE_FREE, _WAKE = 0, 1, 2


def simulate(scenario: Scenario) -> ScenarioResult:
    """Replay one scenario in virtual time; deterministic for a fixed seed.

    A single event heap drives three event kinds: request arrivals (fixed up
    front for open-loop traces, completion-driven for closed loops), serving
    lanes freeing up, and coalescing-window wake-ups.  Every serving decision
    is the scenario's :class:`~repro.serve.batching.BatchingCore`'s; this
    function only owns virtual time, the lanes and the clients around it.
    """
    trace = scenario.trace
    deadline_s = None if scenario.deadline_ms is None else scenario.deadline_ms / 1000.0

    core = scenario.batching_core()
    idle_lanes = list(range(scenario.workers))
    events: List[Tuple[float, int, int, Any]] = []
    sequence = itertools.count()
    latencies: List[float] = []
    served = 0
    batches = 0
    makespan = 0.0

    def push(at: float, kind: int, payload: Any = None) -> None:
        heapq.heappush(events, (at, next(sequence), kind, payload))

    def request_at(at: float, size: int, client: int = -1, index: int = 0) -> _SimRequest:
        deadline = None if deadline_s is None else at + deadline_s
        return _SimRequest(at, size, deadline, client, index)

    # Closed-loop plumbing: client c's request i arrives think[c, i] seconds
    # after its previous response (or after t=0 for i=0).
    think: Optional[np.ndarray] = None
    if trace.kind == "closed":
        think = trace.think_times(scenario.seed)
        for client in range(think.shape[0]):
            first = float(think[client, 0])
            push(first, _ARRIVAL, request_at(first, trace.request_samples, client))
    else:
        for arrival in trace.arrivals(scenario.seed):
            push(arrival.at_s, _ARRIVAL, request_at(arrival.at_s, arrival.samples))

    def respond(request: _SimRequest, at: float) -> None:
        """A client learned its request's fate; closed loops think, then resubmit."""
        if think is None or request.client < 0:
            return
        next_index = request.index + 1
        if next_index >= think.shape[1]:
            return
        arrived = at + float(think[request.client, next_index])
        follow_up = request_at(arrived, trace.request_samples, request.client, next_index)
        push(arrived, _ARRIVAL, follow_up)

    def dispatch(at: float) -> None:
        """Launch the core's batches while a lane is idle; else arm its wake-up."""
        nonlocal batches
        while idle_lanes and core.queue:
            decision = core.next_batch(at)
            # Clients hear of expiry before the wake-up / completion is pushed:
            # heap sequence numbers break ties, so this order is observable.
            for request in decision.expired:
                respond(request, at)
            if not decision.batch:
                if decision.wake_at is not None:
                    push(decision.wake_at, _WAKE)
                return
            batches += 1
            lane = idle_lanes.pop(0)
            total = sum(request.size for request in decision.batch)
            finish = at + scenario.service.batch_ms(total) / 1000.0
            push(finish, _LANE_FREE, (lane, decision.batch))

    while events:
        at, _, kind, payload = heapq.heappop(events)
        makespan = max(makespan, at)
        if kind == _ARRIVAL:
            refused = core.admit(payload)
            if refused is not None:
                respond(refused, at)
        elif kind == _LANE_FREE:
            lane, batch = payload
            insort(idle_lanes, lane)
            for request in batch:
                served += 1
                latencies.append((at - request.enqueued_at) * 1000.0)
                respond(request, at)
        dispatch(at)

    if trace.kind == "open":
        makespan = max(makespan, trace.duration_s)
    result = ScenarioResult(
        scenario=scenario,
        counters=core.counters,
        served=served,
        batches=batches,
        latencies_ms=latencies,
        makespan_s=makespan,
    )
    result.check()
    if scenario.slo is not None:
        result.slo_report = scenario.slo.evaluate(result.row())
    return result


class ScenarioRunner:
    """Runs scenarios: single replays, grid sweeps, and live-system replays.

    The runner holds the defaults shared across a sweep (cost model, batching
    knobs, SLO) while :meth:`sweep` varies the grid axes — trace × admission
    policy × worker count × deadline — cadCAD-style: the full combination
    list is expanded up front and fanned over
    :func:`~repro.scenarios.sweep.fan`, one independent simulation per
    combination, results in grid order regardless of ``n_jobs``.
    """

    def __init__(
        self,
        service: Optional[ServiceModel] = None,
        max_batch_size: int = 8,
        max_latency_ms: float = 2.0,
        max_queue_depth: int = 8,
        slo: Optional[SLOSpec] = None,
    ) -> None:
        self.service = service if service is not None else ServiceModel()
        self.max_batch_size = max_batch_size
        self.max_latency_ms = max_latency_ms
        self.max_queue_depth = max_queue_depth
        self.slo = slo

    # -- deterministic plane -----------------------------------------------------------
    def run(self, scenario: Scenario) -> ScenarioResult:
        """Simulate one scenario (conservation-checked, SLO-evaluated)."""
        with get_recorder().span("scenario.simulate", scenario=scenario.label):
            return simulate(scenario)

    def scenarios(
        self,
        traces: Sequence[Trace],
        policies: Sequence[str] = ("reject", "shed-oldest"),
        workers: Sequence[int] = (1, 2),
        deadlines_ms: Sequence[Optional[float]] = (None,),
        seed: int = 0,
    ) -> List[Scenario]:
        """The expanded sweep grid, in deterministic row-major order."""
        grid = expand_grid(
            {
                "trace": list(traces),
                "policy": list(policies),
                "workers": list(workers),
                "deadline_ms": list(deadlines_ms),
            }
        )
        return [
            Scenario(
                trace=combo["trace"],
                admission_policy=combo["policy"],
                workers=combo["workers"],
                deadline_ms=combo["deadline_ms"],
                max_queue_depth=self.max_queue_depth,
                max_batch_size=self.max_batch_size,
                max_latency_ms=self.max_latency_ms,
                service=self.service,
                slo=self.slo,
                seed=seed,
            )
            for combo in grid
        ]

    def sweep(
        self,
        traces: Sequence[Trace],
        policies: Sequence[str] = ("reject", "shed-oldest"),
        workers: Sequence[int] = (1, 2),
        deadlines_ms: Sequence[Optional[float]] = (None,),
        seed: int = 0,
        n_jobs: int = 1,
    ) -> List[ScenarioResult]:
        """Simulate every grid combination; identical rows for any ``n_jobs``."""
        return fan(simulate, self.scenarios(traces, policies, workers, deadlines_ms, seed), n_jobs)

    @staticmethod
    def rows(results: Sequence[ScenarioResult]) -> List[Dict[str, object]]:
        """Tidy rows for ``record_bench_summary`` / ``save_rows``.

        With telemetry enabled, every row's numeric columns are also emitted
        as ``scenario.<column>`` gauges (labelled by scenario), so sweep
        outcomes land in the same time-series store as the live counters.
        """
        rows = [result.row() for result in results]
        recorder = get_recorder()
        if recorder.enabled:
            for row in rows:
                label = str(row.get("scenario", ""))
                for key, value in row.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    recorder.gauge(f"scenario.{key}", float(value), scenario=label)
        return rows

    # -- live planes -------------------------------------------------------------------
    def replay_live(
        self,
        trace: Trace,
        server: InferenceServer,
        images_for: Callable[[int], np.ndarray],
        seed: int = 0,
        deadline_ms: Optional[float] = None,
        time_scale: float = 1.0,
        timeout_s: float = 30.0,
    ) -> Dict[str, object]:
        """Replay an open-loop trace against a running ``InferenceServer``.

        Arrivals are paced on the wall clock (``time_scale`` compresses the
        virtual timeline; 0.1 plays an 8 s trace in 0.8 s), each submitted via
        ``server.submit``; every future is then awaited and classified.
        Latency and batching are *not* reproducible here — thread timing owns
        them — but conservation is, and is checked before returning.
        """
        if trace.kind != "open":
            raise ConfigurationError(
                "replay_live needs an open-loop trace; closed loops respond to "
                "completions and are replayed by simulate()"
            )
        if time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")
        arrivals = trace.arrivals(seed)
        futures = []
        start = time.perf_counter()
        for arrival in arrivals:
            delay = start + arrival.at_s * time_scale - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(
                server.submit(images_for(arrival.samples), deadline_ms=deadline_ms)
            )
        served = 0
        refused = 0
        for future in futures:
            try:
                future.result(timeout=timeout_s)
                served += 1
            except AdmissionError:
                refused += 1
        counters = server.counters
        if counters.offered != len(arrivals):
            raise SchedulingError(
                f"live replay lost requests at the admission boundary: "
                f"submitted {len(arrivals)}, counted {counters.offered}"
            )
        if served + refused != len(arrivals):
            raise SchedulingError(
                f"live replay lost futures: {served} served + {refused} refused "
                f"!= {len(arrivals)} submitted"
            )
        row: Dict[str, object] = {
            "trace": trace.name,
            **counters_row(counters, server.stats.latencies_ms, served=served),
            "refused": refused,
        }
        if self.slo is not None:
            row["slo"] = self.slo.evaluate(row).verdict
        return row

    def replay_evaluation(
        self,
        trace: Trace,
        service: Any,
        checkpoint_for: Callable[[int], Any],
        seed: int = 0,
        on_submit: Optional[Callable[[int], None]] = None,
        max_recoveries: int = 4,
    ) -> Dict[str, object]:
        """Drive an ``EvaluationService`` with one submission per trace request.

        The fault-injection plane: ``on_submit(index)`` runs before each
        submission (tests use it to kill a pool worker mid-scenario), and the
        replay *recovers* from the resulting
        :class:`~repro.errors.SchedulingError`s the way a resilient trainer
        would — it re-queues every ticket the dead pool lost and resubmits,
        letting the service respawn a fresh pool — then proves conservation:
        every trace request resolves to exactly one accuracy.
        """
        total = trace.offered(seed)
        ticket_to_index: Dict[int, int] = {}
        pending: Deque[int] = deque(range(total))
        recoveries = 0
        resubmitted = 0

        def unresolved() -> List[int]:
            return sorted(
                {
                    index
                    for ticket, index in ticket_to_index.items()
                    if ticket not in service.accuracies
                }
            )

        def requeue(indexes: List[int]) -> None:
            nonlocal resubmitted
            resubmitted += len(indexes)
            merged = dict.fromkeys(list(pending) + indexes)
            pending.clear()
            pending.extend(merged)

        def recover(error: SchedulingError) -> None:
            nonlocal recoveries
            recoveries += 1
            if recoveries > max_recoveries:
                raise error
            lost = unresolved()
            for index in lost:
                # Their tickets are gone for good; forget them so a later
                # recovery does not count them lost twice.
                for ticket in [t for t, i in ticket_to_index.items() if i == index]:
                    del ticket_to_index[ticket]
            requeue(lost)

        while True:
            while pending:
                index = pending[0]
                if on_submit is not None:
                    on_submit(index)
                try:
                    ticket = service.submit(checkpoint_for(index), epoch=index)
                except SchedulingError as error:
                    recover(error)  # the head index was not submitted; retry it
                    continue
                pending.popleft()
                ticket_to_index[ticket] = index
            try:
                service.drain()
            except SchedulingError as error:
                recover(error)
                continue
            still_lost = unresolved()
            if not still_lost:
                break
            requeue(still_lost)

        accuracies = {
            index: service.accuracies[ticket]
            for ticket, index in ticket_to_index.items()
            if ticket in service.accuracies
        }
        if len(accuracies) != total:
            raise SchedulingError(
                f"evaluation replay resolved {len(accuracies)} of {total} requests"
            )
        return {
            "trace": trace.name,
            "offered": total,
            "resolved": len(accuracies),
            "resubmitted": resubmitted,
            "recoveries": recoveries,
            "accuracies": accuracies,
        }


def rerun_identical(scenario: Scenario) -> bool:
    """True when two independent simulations of ``scenario`` agree bit for bit.

    The determinism acceptance check as a library call (the bench CLI and the
    tests both use it): counters, latencies, and the tidy row must all match.
    """
    first, second = simulate(scenario), simulate(replace(scenario))
    return (
        first.counters.summary() == second.counters.summary()
        and first.latencies_ms == second.latencies_ms
        and first.row() == second.row()
    )
