"""One workload run: set-up, train, serve, saturate — and the checks on the outputs.

The phases run one after the other: fresh-trainer train repeats back to
back, set-up launches, open-loop serve segments, then the windows of one
closed-loop saturation run.  Each reports the best of its repeats (the
shortest time, the highest rate): on a shared host a neighbour takes a third
of a core away for seconds at a time, which only ever makes a repeat slower,
so the best repeat is the one number the neighbour does not move.  A phase
whose own repeats disagree (quartile spread above :data:`UNSTEADY` of the
median) repeats up to as many times again, while the run's time cap allows.
The program is driven through its public functions only.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import loadgen
import stats
import trace
from cli import DEFAULT_SECONDS
from trace import Tracer
from workloads import Workload, build_server, build_trainer

HERE = Path(__file__).resolve().parent

#: a phase extends itself when (Q3 - Q1) / median of its repeats exceeds this
UNSTEADY = 0.05
#: every n-th response is kept and compared with a direct forward
CHECK_EVERY = 16
#: requests kept in flight by the saturation phase
IN_FLIGHT = 64
#: (k, P)-sized array passes of the reference ``step_matrix`` arithmetic:
#: correction 4 (W - z, then x alpha), column sum 1, combine 3, apply 3
STEP_MATRIX_PASSES = 11
READY_LINE = "READY"
#: past this much wall time a run stops repeating and reports what it has: the
#: contract allows a run 180 s, and a starved host has made one take 165 s
OVERTIME_S = 130.0


@dataclass(frozen=True)
class Plan:
    """How much one run does (derived from ``--seconds``)."""

    #: set-up probe launches
    launches: int
    #: fresh-trainer ``train()`` repeats
    repeats: int
    #: open-loop segments of the one serve block
    segments: int
    segment_s: float
    #: discarded head of a serve block: thread start-up and cold caches
    lead_in_s: float
    #: one closed-loop run: a discarded warm-up, then this many windows
    saturation_warmup_s: float
    windows: int
    window_s: float
    #: wall-clock cap of the whole run; a phase extends itself only inside it
    cap_s: float
    smoke: bool = False


def plan_for(seconds: float, traced: bool, smoke: bool = False) -> Plan:
    """The counts are fixed; ``seconds`` below ``run_seconds`` shortens what is timed.

    A full run measures for about 41 s: 7 set-up launches (~0.55 s each) and
    5 train repeats (about 2.8 s, fixed work), then one open-loop block of 16
    segments of 1 s and one saturation run of 1 s warm-up and 10 windows of
    0.5 s.  Segments and windows are short so that some of them fall between
    a neighbour's bursts (README, "How steady the numbers are").
    """
    if smoke:
        return Plan(1, 1, 1, 0.5, 0.1, 0.15, 1, 0.25, cap_s=60.0, smoke=True)
    share = min(1.0, seconds / DEFAULT_SECONDS)
    return Plan(
        launches=7,
        repeats=1 if traced else 5,
        segments=6 if traced else 16,
        segment_s=1.0 * share,
        lead_in_s=0.2,
        saturation_warmup_s=1.0 * share,
        windows=10,
        window_s=0.5 * share,
        cap_s=seconds + 3.0,
    )


@dataclass
class Metric:
    """One reported number: the best of ``samples``, and their quartile spread."""

    unit: str
    samples: List[float]
    #: "lower" or "higher", as BENCHMARK.json has it
    better: str = "lower"

    @property
    def value(self) -> float:
        return min(self.samples) if self.better == "lower" else max(self.samples)

    @property
    def spread(self) -> float:
        return stats.iqr_share(self.samples)


@dataclass
class Report:
    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, unit: str, samples: Any, better: str = "lower") -> None:
        if isinstance(samples, (int, float, np.integer, np.floating)):
            samples = [float(samples)]
        self.metrics[name] = Metric(unit, [float(s) for s in samples] or [0.0], better)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} failed: {why}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


# ------------------------------------------------------------------------------- set-up
def setup_command(workload: Workload) -> List[str]:
    return [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload.name]


def setup_probe(workload: Workload) -> None:
    """Child side of ``setup_s``: everything between a cold start and ready to work.

    Builds the dataset and the trainer (shared memory included), runs one
    iteration on a one-iteration copy of the run (lazy first-iteration work;
    process mode forks its workers here), builds and starts the server (pool
    fork included) and answers one request — then says so and tears down.
    """
    trainer, _ = build_trainer(workload)
    warm, _ = build_trainer(workload, warmup=True)
    try:
        warm.train()
        checkpoint = warm.publish_checkpoint()
    finally:
        warm.close()
    pool = trainer.dataset.test_images
    server = build_server(
        workload, trainer.initial_model, trainer.dataset.sample_shape, checkpoint
    )
    try:
        server.start()
        server.predict(pool[:1])
        print(READY_LINE, flush=True)
    finally:
        stop_server(server, release=True)
        trainer.close()


def launch_setup(workload: Workload, report: Report) -> float:
    """One ``setup_s`` sample: spawn -> ``READY`` of a fresh interpreter."""
    report.attempted += 1
    started = time.perf_counter()
    with subprocess.Popen(setup_command(workload), stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=120)
    if line != READY_LINE or code != 0:
        report.fail(1, f"set-up probe exited {code} after printing {line!r}")
    return elapsed


# ------------------------------------------------------------------------------ training
@dataclass
class TrainRun:
    wall_s: float
    samples: int
    reached: bool
    epochs_to_target: int
    final_accuracy: float
    extra: Dict[str, float]


@dataclass
class Trained:
    """What serving needs from a finished training run."""

    template: Any
    sample_shape: Tuple[int, ...]
    request_pool: np.ndarray
    checkpoints: List[Any]  # per-epoch, oldest first
    parameters: int


def train_once(workload: Workload, smoke: bool) -> Tuple[TrainRun, Trained]:
    """One fresh trainer, trained to the target with inline evaluation and a store."""
    gc.collect()
    trainer, store = build_trainer(workload, smoke=smoke)
    try:
        started = time.perf_counter()
        result = trainer.train()
        wall = time.perf_counter() - started
        run = TrainRun(
            wall_s=wall,
            samples=int(result.metrics.records[-1].samples_processed),
            reached=bool(result.reached_target),
            epochs_to_target=int(result.epochs_to_accuracy() or 0),
            final_accuracy=float(result.metrics.final_accuracy()),
            extra=dict(result.extra),
        )
        trained = Trained(
            template=trainer.initial_model,
            sample_shape=tuple(trainer.dataset.sample_shape),
            request_pool=trainer.dataset.test_images,
            checkpoints=[store.get(version) for version in store.versions()],
            parameters=trainer.initial_model.num_parameters(),
        )
    finally:
        trainer.close()
    return run, trained


# ------------------------------------------------------------------------------- serving
def stop_server(server: Any, release: bool) -> None:
    """Stop the serving thread; with ``release`` also give up a pooled server's workers."""
    if release and hasattr(server, "close"):
        server.close()
    else:
        server.stop()


@dataclass
class Serving:
    """The workload's server and the running totals of what was sent to it.

    The server is built once; its serving thread is started and stopped
    around the serve block and around the saturation run.
    """

    server: Any
    store: Any  # the serving-side CheckpointStore of the hot-swap workload, else None
    pool: np.ndarray
    sent: int = 0
    completed: int = 0
    published: int = 0

    def __enter__(self) -> "Serving":
        self.server.start()
        self.server.predict(self.pool[:1])  # warm-up, counted by the server too
        self.sent += 1
        self.completed += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.server.stop()


def build_serving(workload: Workload, trained: Trained) -> Serving:
    from repro.serve import CheckpointStore

    final = trained.checkpoints[-1]
    store = None
    if workload.republish_every_s is not None:
        store = CheckpointStore(capacity=4)
        store.publish(dataclasses.replace(final, version=None))
    server = build_server(workload, trained.template, trained.sample_shape, final, store)
    return Serving(server=server, store=store, pool=trained.request_pool)


@dataclass
class ServeBlock:
    result: loadgen.OpenLoopResult
    indices: np.ndarray
    segments: int
    segment_s: float
    lead_in_s: float
    #: wall time of the open loop itself (server start-up and stop excluded)
    wall_s: float

    def percentiles(self, q: float) -> List[float]:
        """Per-segment percentile of due-time latency, lead-in excluded."""
        counted = ~np.isnan(self.result.done) & (self.result.due >= self.lead_in_s)
        return stats.segment_percentiles(
            self.result.due[counted] - self.lead_in_s,
            self.result.latency_ms[counted],
            self.segment_s,
            self.segments,
            q,
        )


def serve_block(
    workload: Workload,
    trained: Trained,
    serving: Serving,
    seed: int,
    block: int,
    segments: int,
    plan: Plan,
) -> ServeBlock:
    """One uninterrupted open-loop stretch: the lead-in, then ``segments`` segments."""
    stream = seed * 1009 + block
    duration = plan.lead_in_s + segments * plan.segment_s
    schedule = loadgen.poisson_schedule(stream, workload.rate_rps, duration)
    indices = loadgen.request_indices(stream, len(schedule), len(serving.pool))
    periodic = None
    if serving.store is not None:
        epochs = trained.checkpoints

        def republish(_tick: int) -> None:
            source = epochs[serving.published % len(epochs)]
            serving.store.publish(dataclasses.replace(source, version=None))
            serving.published += 1

        periodic = (workload.republish_every_s, republish)
    gc.collect()
    with serving:
        started = time.perf_counter()
        result = loadgen.run_open_loop(
            serving.server.submit,
            serving.pool,
            schedule,
            indices,
            check_every=CHECK_EVERY,
            periodic=periodic,
        )
        wall = time.perf_counter() - started
    serving.sent += len(schedule)
    serving.completed += len(schedule) - result.failed
    return ServeBlock(result, indices, segments, plan.segment_s, plan.lead_in_s, wall)


def saturation_rates(
    serving: Serving, seed: int, run: int, plan: Plan, report: Report
) -> List[float]:
    """Completions/s in each window of one closed-loop run (after its warm-up), 64 in flight."""
    indices = loadgen.request_indices(seed * 1009 + 500 + run, 4096, len(serving.pool))
    gc.collect()
    with serving:
        result = loadgen.run_closed_loop(
            serving.server.submit,
            serving.pool,
            indices,
            plan.saturation_warmup_s + plan.windows * plan.window_s + 0.05,
            in_flight=IN_FLIGHT,
        )
    serving.sent += result.submitted
    serving.completed += result.submitted - result.failed
    report.attempted += result.submitted
    report.fail(result.failed, "saturation requests lost or raised")
    return stats.window_rates(
        result.stamps,
        result.started_at + plan.saturation_warmup_s,
        plan.window_s,
        windows=plan.windows,
    )


# -------------------------------------------------------------------------------- checks
def reference_logits(trained: Trained) -> List[np.ndarray]:
    """A direct forward of every published checkpoint over the whole request pool."""
    from repro.tensor.tensor import Tensor, no_grad

    model = trained.template.clone()
    out = []
    for checkpoint in trained.checkpoints:
        checkpoint.apply_to(model)
        model.eval()
        with no_grad():
            out.append(np.array(model(Tensor(trained.request_pool)).data, copy=True))
    return out


def count_mismatches(
    references: List[np.ndarray], pairs: List[Tuple[int, np.ndarray]]
) -> int:
    """Responses that equal no published version's logits for their sample.

    The tolerance absorbs BLAS summation-order differences between a request
    served inside a coalesced batch and the reference's whole-pool forward;
    consecutive checkpoints differ by orders of magnitude more, and a torn
    (half-swapped) model matches none of them.
    """
    bad = 0
    for sample, logits in pairs:
        response = np.asarray(logits).reshape(-1)
        if not any(
            np.allclose(response, reference[sample].reshape(-1), rtol=1e-3, atol=1e-3)
            for reference in references
        ):
            bad += 1
    return bad


def check_outputs(
    workload: Workload,
    trained: Trained,
    serving: Serving,
    blocks: List[ServeBlock],
    report: Report,
) -> None:
    """Logits of every kept response, then the server's own conservation identities."""
    references = reference_logits(trained)
    if serving.store is None:
        references = references[-1:]  # a static server may only answer with the final model
    pairs = [
        (int(block.indices[index]), logits)
        for block in blocks
        for index, logits in block.result.responses.items()
    ]
    report.fail(
        count_mismatches(references, pairs),
        f"responses matching no published checkpoint (of {len(pairs)} checked)",
    )
    counters = serving.server.counters
    served = serving.server.stats.requests
    identities = {
        "offered == accepted + rejected": (
            counters.offered == counters.accepted + counters.rejected
        ),
        "accepted == sent": counters.accepted == serving.sent,
        "nothing rejected, shed or expired": (
            counters.rejected + counters.shed + counters.deadline_missed == 0
        ),
        "served == completed": served == serving.completed,
    }
    for name, holds in identities.items():
        if not holds:
            report.fail(1, f"ServeCounters identity broken: {name}")


def peak_rss_mb() -> float:
    """Parent high-water mark plus the largest waited-for child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ------------------------------------------------------------------------- whole workload
def run_untraced(workload: Workload, seed: int, plan: Plan) -> Report:
    """Every end-to-end metric of one workload, tracing off, recorder disabled."""
    report = Report(workload.name, seed, traced=False)
    started = time.perf_counter()
    serve_s = plan.lead_in_s + plan.segments * plan.segment_s + 0.3
    saturation_s = plan.saturation_warmup_s + plan.windows * plan.window_s + 0.3
    #: the reference forwards and teardown that follow the last phase
    tail_s = 1.5

    def owed(done: int, planned: int) -> bool:
        """Whether a phase still owes planned repeats (all but the first yield to overtime)."""
        overtime = time.perf_counter() - started > OVERTIME_S
        return done < planned and not (done and overtime)

    def may_extend(values: List[float], planned: int, cost_s: float) -> bool:
        """Whether a phase should (unsteady, under twice the plan) and may (cap) repeat.

        ``cost_s`` is one more repeat plus everything still planned after it.
        """
        left = plan.cap_s - (time.perf_counter() - started)
        return (
            3 <= len(values) < 2 * planned
            and stats.iqr_share(values) > UNSTEADY
            and left > cost_s
        )

    # Train repeats run back to back: a process-mode trainer that starts after
    # an idle gap is often scheduled onto its parent's core for the first
    # second (wake-affine placement), which makes every other repeat 25 % slower.
    after_train_s = plan.launches * 0.6 + serve_s + saturation_s + tail_s
    runs: List[TrainRun] = []
    while owed(len(runs), plan.repeats) or may_extend(
        [run.wall_s for run in runs],
        plan.repeats,
        1.2 * max(run.wall_s for run in runs) + after_train_s,
    ):
        run, trained = train_once(workload, plan.smoke)
        runs.append(run)
        report.attempted += 1
        if not plan.smoke and not run.reached:
            report.fail(1, f"train repeat missed the target in {workload.max_epochs} epochs")
    if len({(run.epochs_to_target, run.final_accuracy) for run in runs}) != 1:
        report.fail(1, "train repeats disagree on epochs-to-target or final accuracy")

    # Set-up launches come second so that a train phase that extended itself
    # is known before anything else decides whether it may.
    after_setup_s = serve_s + saturation_s + tail_s
    setups: List[float] = []
    while owed(len(setups), plan.launches) or may_extend(
        setups, plan.launches, 1.2 * max(setups) + after_setup_s
    ):
        setups.append(launch_setup(workload, report))

    # One open-loop block cut into segments; an unsteady one is followed by a
    # second block of as many segments as the cap has room for.
    serving = build_serving(workload, trained)
    try:
        blocks = [serve_block(workload, trained, serving, seed, 0, plan.segments, plan)]
        left = plan.cap_s - (time.perf_counter() - started) - saturation_s - tail_s
        more = min(plan.segments, int((left - plan.lead_in_s - 0.3) / plan.segment_s))
        if more >= 1 and may_extend(blocks[0].percentiles(95), plan.segments, 0.0):
            blocks.append(serve_block(workload, trained, serving, seed, 1, more, plan))
        rates = saturation_rates(serving, seed, 0, plan, report)
        if may_extend(rates, plan.windows, saturation_s + tail_s):
            rates += saturation_rates(serving, seed, 1, plan, report)
    finally:
        stop_server(serving.server, release=True)
    for block in blocks:
        report.attempted += len(block.result.due)
        report.fail(block.result.failed, "requests whose future raised or never completed")
    check_outputs(workload, trained, serving, blocks, report)
    if len(runs) < plan.repeats or len(setups) < plan.launches:
        report.notes.append(f"overtime (> {OVERTIME_S:.0f} s): phases cut short of the plan")

    report.add("setup_s", "s", setups)
    report.add(
        "train_samples_per_s", "1/s", [run.samples / run.wall_s for run in runs], better="higher"
    )
    report.add("tta_s", "s", [run.wall_s for run in runs])
    report.add("serve_p50_ms", "ms", [v for block in blocks for v in block.percentiles(50)])
    report.add("serve_p95_ms", "ms", [v for block in blocks for v in block.percentiles(95)])
    report.add("serve_saturation_rps", "1/s", rates, better="higher")
    report.add("peak_rss_mb", "MiB", peak_rss_mb())
    return report


def run_traced(workload: Workload, seed: int, plan: Plan, out_dir: Path) -> Report:
    """The per-layer breakdown: one traced train repeat and six traced serve segments.

    An untraced repeat before and one after the traced repeat give the wall
    time tracing is compared with (``trace.overhead_share``); a discarded
    repeat comes first because the first ``train()`` of a process is 8-15 %
    slower than the ones after it.
    """
    report = Report(workload.name, seed, traced=True)
    load_start = os.getloadavg()[0]
    tracer = Tracer()
    if not plan.smoke:
        train_once(workload, plan.smoke)
    untraced = [train_once(workload, plan.smoke)[0].wall_s]
    with tracer.installed():
        run, trained = train_once(workload, plan.smoke)
    train_end = tracer.mark()
    untraced.append(train_once(workload, plan.smoke)[0].wall_s)
    report.attempted += 1
    if not plan.smoke and not run.reached:
        report.fail(1, "traced train repeat missed the target")
    with tracer.installed():
        serving = build_serving(workload, trained)
        try:
            block = serve_block(workload, trained, serving, seed, 0, plan.segments, plan)
        finally:
            stop_server(serving.server, release=True)
    report.attempted += len(block.result.due)
    report.fail(block.result.failed, "requests whose future raised or never completed")
    check_outputs(workload, trained, serving, [block], report)
    layer_metrics(report, workload, tracer, train_end, run, trained, serving, block)
    report.add("trace.overhead_share", "share", run.wall_s / (sum(untraced) / 2) - 1.0)
    report.add("host.load1_start", "count", load_start)
    report.add("host.load1_end", "count", os.getloadavg()[0])
    tracer.dump(
        out_dir / f"trace-{workload.name}.json",
        {"workload": workload.name, "seed": seed, "train_spans_end": train_end},
    )
    return report


def layer_metrics(
    report: Report,
    workload: Workload,
    tracer: Tracer,
    train_end: int,
    run: TrainRun,
    trained: Trained,
    serving: Serving,
    block: ServeBlock,
) -> None:
    """Fold spans, program counters and generator observations into named layer metrics.

    Layers a workload bypasses report 0 (``executor.*`` on serial workloads,
    ``pool.*`` and ``front.forward_s`` split as the README explains).
    """
    train_spans = tracer.spans[:train_end]
    serve_spans = tracer.spans[train_end:]

    def seconds(name: str, parent: Optional[str] = None) -> float:
        return trace.total(train_spans, name, parent=parent)[0]

    def calls(name: str) -> int:
        return trace.total(train_spans, name)[1]

    add = report.add
    add("data.fetch_s", "s", seconds("data.fetch"))
    add("data.batches", "count", calls("data.fetch"))
    add("learner.grad_s", "s", seconds("learner.grad"))
    add("learner.grad_calls", "count", calls("learner.grad"))
    add("nn.forward_s", "s", seconds("nn.forward", parent="learner.grad"))
    add("nn.backward_s", "s", seconds("nn.backward"))
    add("optim.step_matrix_s", "s", seconds("optim.step_matrix"))
    add("optim.step_matrix_calls", "count", calls("optim.step_matrix"))
    add(
        "optim.step_bytes",
        "B",
        STEP_MATRIX_PASSES
        * calls("optim.step_matrix")
        * workload.learners
        * trained.parameters
        * 4,
    )
    add("optim.scale_rows_s", "s", seconds("optim.scale_rows"))
    extra = run.extra
    add("engine.sync_stall_s", "s", extra.get("sync_stall_seconds", 0.0))
    add("engine.sync_overlapped_s", "s", extra.get("overlapped_sync_seconds", 0.0))
    add("engine.sync_overlap_share", "share", extra.get("sync_overlap_fraction", 0.0))
    add("engine.max_staleness", "count", extra.get("max_staleness", 0))
    add("engine.iterations", "count", extra.get("sync_iterations", 0))
    add("engine.epochs_to_target", "count", run.epochs_to_target)
    add("engine.final_accuracy", "share", run.final_accuracy)
    train_wall, loop_self = trace.self_time(train_spans, "engine.train")
    add("engine.train_wall_s", "s", train_wall)
    add("engine.loop_self_s", "s", loop_self)
    add("engine.unattributed_share", "share", loop_self / train_wall if train_wall else 0.0)
    add("executor.begin_epoch_s", "s", seconds("executor.begin_epoch"))
    add("executor.issue_s", "s", seconds("executor.issue"))
    add("executor.collect_wait_s", "s", seconds("executor.collect_wait"))
    add("executor.steps", "count", calls("executor.collect_wait"))
    add("executor.respawns", "count", extra.get("pool_respawns", 0))
    add("scheduler.schedule_s", "s", seconds("scheduler.schedule"))
    add("scheduler.iterations", "count", calls("scheduler.schedule"))
    add("eval.evaluate_s", "s", seconds("eval.evaluate"))
    add("eval.calls", "count", calls("eval.evaluate"))
    add("checkpoint.publish_s", "s", seconds("checkpoint.publish"))
    add("checkpoint.publishes", "count", calls("checkpoint.store_publish"))
    add(
        "checkpoint.bytes",
        "B",
        calls("checkpoint.store_publish") * trained.checkpoints[-1].nbytes(),
    )

    # Serving: spans recorded after the training repeat ended.
    server = serving.server
    summary = server.stats.summary()
    counters = server.counters.summary()
    submit_s, _ = trace.total(serve_spans, "front.submit")
    forward_s, _ = trace.total(serve_spans, "nn.forward")
    apply_s, _ = trace.total(serve_spans, "checkpoint.apply")
    publish_s, publishes = trace.total(serve_spans, "pool.publish")
    _, collects = trace.total(serve_spans, "pool.collect")
    polls = collects + tracer.empty_collects
    latency = block.result.latency_ms[~np.isnan(block.result.done)]
    late = block.result.late_ms[~np.isnan(block.result.sent)]
    trips = tracer.roundtrips_ms
    add("checkpoint.apply_s", "s", apply_s)
    add("checkpoint.hot_swaps", "count", summary["hot_swaps"])
    add("front.submit_s", "s", submit_s)
    add("front.offered", "count", counters["offered"])
    add("front.accepted", "count", counters["accepted"])
    add("front.rejected", "count", counters["rejected"])
    add("front.shed", "count", counters["shed"])
    add("front.deadline_missed", "count", counters["deadline_missed"])
    add("front.queue_depth_p50", "count", counters["queue_depth_p50"])
    add("front.queue_depth_p99", "count", counters["queue_depth_p99"])
    add("front.batches", "count", summary["batches"])
    add("front.mean_batch_size", "count", summary["mean_batch_size"])
    add("front.forward_s", "s", forward_s)
    add("front.forward_busy_share", "share", forward_s / block.wall_s)
    add("front.p99_ms", "ms", float(np.percentile(latency, 99)) if latency.size else 0.0)
    add("pool.publish_s", "s", publish_s)
    add("pool.publish_calls", "count", publishes)
    add("pool.collect_calls", "count", polls)
    add("pool.collect_empty_share", "share", tracer.empty_collects / polls if polls else 0.0)
    add("pool.roundtrip_ms_p50", "ms", float(np.percentile(trips, 50)) if trips else 0.0)
    add("pool.roundtrip_ms_p95", "ms", float(np.percentile(trips, 95)) if trips else 0.0)
    add("pool.recoveries", "count", getattr(server, "recoveries", 0))
    add("gen.sent", "count", int((~np.isnan(block.result.sent)).sum()))
    add("gen.failed", "count", block.result.failed)
    add("gen.late_ms_p99", "ms", float(np.percentile(late, 99)) if late.size else 0.0)
