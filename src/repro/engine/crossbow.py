"""The one training loop: learners, a synchroniser, task engine, auto-tuner.

One training run couples two things:

* the **numeric training** of ``g × m`` model replicas (real NumPy
  forward/backward passes, then one fused synchronisation step over the flat
  parameter vectors: SMA's Algorithm 1, EA-SGD, or the S-SGD baseline's
  averaged momentum-SGD update),
* the **simulated execution** of the corresponding learning and synchronisation
  tasks on the multi-GPU server (:mod:`repro.gpusim`), which yields the
  throughput and time-to-accuracy numbers the paper reports.

Test accuracy is always evaluated on the central model ``z``: the central
average model SMA returns upon termination, or S-SGD's one shared model.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.analysis.sanitizer import guard_for
from repro.data import AugmentationPipeline, BatchPipeline, create_dataset
from repro.engine.autotuner import AutoTuner, AutoTunerDecision
from repro.engine.config import CrossbowConfig
from repro.engine.executor import ProcessExecutor, SharedMatrix, SharedReplicaBank
from repro.engine.learner import Learner, LearnerLanes, blas_threads, usable_cpus
from repro.engine.metrics import EpochRecord, SyncCounters, TrainingMetrics, TrainingResult
from repro.engine.replica import ReplicaBank
from repro.engine.scheduler import IterationTiming, LearnerSlot, SchedulingPolicy, TaskScheduler
from repro.engine.task_manager import TaskManager
from repro.errors import ConfigurationError
from repro.models import create_model
from repro.nn.metrics import evaluate_top1
from repro.nn.module import Module
from repro.serve.checkpoint import Checkpoint, CheckpointStore
from repro.optim.easgd import EASGD, EASGDConfig
from repro.optim.schedules import hyperparameters_for_model, schedule_for_model
from repro.optim.sma import SMA, SMAConfig
from repro.optim.ssgd import SSGD
from repro.gpusim import Tracer, cost_profile_for_model, titan_x_server
from repro.telemetry.recorder import get_recorder
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

logger = get_logger("engine.crossbow")


@dataclass
class _PendingIteration:
    """One collected-but-unapplied iteration.

    The learners have already written this iteration's raw gradients into
    update buffer ``update_index``.  At ``pipeline_depth=0`` the trainer
    applies it at once; at depth 1 it applies the fused synchronisation step
    lazily — overlapped with the *next* iteration's gradient computation — or
    at a flush barrier (epoch end, resize, evaluation, close).
    """

    losses: np.ndarray
    slots: List[LearnerSlot]
    update_index: int
    staleness: int


def _schedule_crossbow(
    scheduler: TaskScheduler,
    iteration: int,
    slots: List[LearnerSlot],
    batch_size: int,
    synchronise: bool,
) -> IterationTiming:
    """Crossbow's task graph: FCFS learning tasks overlapping SMA's sync tasks."""
    return scheduler.schedule_iteration(
        iteration=iteration, slots=slots, batch_size=batch_size, synchronise=synchronise
    )


def _schedule_ssgd(
    scheduler: TaskScheduler,
    iteration: int,
    slots: List[LearnerSlot],
    batch_size: int,
    synchronise: bool,
) -> IterationTiming:
    """S-SGD's task graph: per-GPU gradients, all-reduce, update, global barrier."""
    return scheduler.schedule_ssgd_iteration(iteration=iteration, batch_per_gpu=batch_size)


class CrossbowTrainer:
    """Trains a model with the Crossbow system design described in §3 and §4.

    Per iteration, ``k`` learners each compute a gradient on their own small
    batch; the gradients are gathered into a ``(k, P)`` update matrix and the
    whole Algorithm-1 step — learning rate and weight decay, local updates,
    corrections, central-model move — is applied as fused matrix operations
    on the :class:`ReplicaBank`, whose row ``j`` *is* learner ``j``'s
    weights.  Alongside the numeric training, the corresponding
    learning/synchronisation tasks are scheduled on the simulated multi-GPU
    server, producing the throughput and time-to-accuracy numbers the paper
    reports.

    The paper's S-SGD baseline (§2.3, Figure 1) runs through the same loop as
    ``synchronisation="ssgd"``: one learner per GPU on its ``batch_size``
    share of the aggregate batch, and a synchroniser that averages the ``g``
    gradient rows into one momentum-SGD update of every replica.  Three
    things differ, each fixed at construction: the root RNG stream is named
    ``"ssgd"``, the simulated iteration is the lock-step S-SGD task graph
    (:meth:`TaskScheduler.schedule_ssgd_iteration`), and the result's
    ``system`` is ``"tensorflow-ssgd"``.

    Parameters
    ----------
    config : CrossbowConfig
        Full description of the run: model, dataset, learner topology
        (``num_gpus × replicas_per_gpu``), synchroniser and its
        hyper-parameters, auto-tuning, and the execution mode.  With
        ``execution="process"`` the gradient computations run in one worker
        process per learner over a shared-memory bank
        (:mod:`repro.engine.executor`), each worker reading its batch from
        its row of a shared input matrix; ``execution="serial"`` (default)
        keeps them in-process, running an iteration's ``k`` passes at once
        on one CPU-pinned lane per core that BLAS leaves free
        (:class:`~repro.engine.learner.LearnerLanes`).  Both draw their
        batches from the one :class:`~repro.data.batching.BatchPipeline`, so
        fixed-seed runs of the two modes, at any lane width, produce
        bit-identical central models, with or without augmentation.

    Notes
    -----
    Shape conventions used throughout: ``k`` = number of learners, ``P`` =
    flat parameter count, ``W`` = the ``(k, P)`` active bank matrix, ``U`` =
    the ``(k, P)`` matrix of raw gradient rows (the fused step scales it by
    the learning rate and adds the decay term), ``z`` = the central model (a
    ``(P,)`` vector).  Test accuracy is always evaluated on ``z``.

    Call :meth:`close` (or use the trainer briefly and let it be garbage
    collected) to release worker processes and shared-memory segments when
    ``execution="process"``.
    """

    def __init__(self, config: CrossbowConfig) -> None:
        self.config = config
        ssgd = config.synchronisation == "ssgd"
        # The S-SGD baseline keeps its own root stream, so its seeds draw the
        # data order and initial model they always drew.
        self.rng = RandomState(config.seed, name="ssgd" if ssgd else "crossbow")
        self._system = "tensorflow-ssgd" if ssgd else "crossbow"

        # Data substrate -------------------------------------------------------------
        self.dataset = create_dataset(config.dataset_name, **config.dataset_overrides)
        total_learners = config.num_gpus * config.replicas_per_gpu
        augmentation = (
            AugmentationPipeline.cifar_default(self.rng.child("augmentation"))
            if config.use_augmentation
            else AugmentationPipeline.identity()
        )
        self.pipeline = BatchPipeline(
            self.dataset,
            batch_size=config.batch_size,
            num_learners=max(total_learners, config.num_gpus * config.max_replicas_per_gpu),
            augmentation=augmentation,
            rng=self.rng.child("pipeline"),
        )
        if self.pipeline.batches_per_epoch < total_learners:
            # Algorithm 1 requires at least one batch per learner per iteration
            # (|B| >= k); otherwise no SMA iteration could ever complete.
            raise ConfigurationError(
                f"dataset provides only {self.pipeline.batches_per_epoch} batches per epoch "
                f"but the configuration has {total_learners} learners; "
                "use a larger dataset or a smaller batch size / learner count"
            )

        # Model substrate ------------------------------------------------------------
        self.initial_model = create_model(
            config.model_name, rng=self.rng.child("model"), **config.model_overrides
        )
        hyper = hyperparameters_for_model(config.model_name)
        self.learning_rate = (
            config.learning_rate if config.learning_rate is not None else hyper["learning_rate"]
        )
        self.momentum = config.momentum if config.momentum is not None else hyper["momentum"]
        self.weight_decay = (
            config.weight_decay if config.weight_decay is not None else hyper["weight_decay"]
        )
        self.schedule = schedule_for_model(config.model_name, base_rate=self.learning_rate)

        # Simulated hardware ------------------------------------------------------------
        self.profile = cost_profile_for_model(config.model_name)
        tracer = Tracer(enabled=config.trace_tasks)
        self.server = titan_x_server(config.num_gpus, tracer=tracer)
        self.scheduler = TaskScheduler(
            server=self.server,
            profile=self.profile,
            policy=SchedulingPolicy.LOCKSTEP if ssgd else SchedulingPolicy.FCFS_OVERLAP,
            keep_task_records=config.trace_tasks,
        )
        # A plain function, not a bound method: the trainer keeps no reference
        # cycle, so dropping it frees its bank and replicas at once.
        self._schedule_tasks = _schedule_ssgd if ssgd else _schedule_crossbow
        self.task_manager = TaskManager(window=max(4, config.auto_tune_interval))

        # Replicas and learners ------------------------------------------------------------
        # All replica weights live in one persistent (k, P) bank so the SMA
        # iteration runs as fused matrix ops.  With auto-tuning, rows are
        # pre-allocated up to the tuner's ceiling so grow/shrink never
        # reallocates mid-training; without it, only the fixed learner count
        # is allocated (the bank can still grow geometrically on demand).
        num_parameters = self.initial_model.num_parameters()
        max_learners = config.num_gpus * (
            config.max_replicas_per_gpu if config.auto_tune else config.replicas_per_gpu
        )
        self._shared_segments: List[SharedMatrix] = []
        #: which weight buffer holds the newest published weights (0 = bank,
        #: 1 = shadow); always 0 outside a pipelined epoch's steady state
        self._published_index = 0
        self._next_update_index = 0
        self._pending: Optional[_PendingIteration] = None
        self._executor: Union[ProcessExecutor, LearnerLanes]
        if config.execution == "process":
            self.replica_bank = SharedReplicaBank(num_parameters, capacity=max_learners)
            self._executor = ProcessExecutor(self.pipeline)
        else:
            self.replica_bank = ReplicaBank(num_parameters, capacity=max_learners)
            self._executor = LearnerLanes(self.pipeline)
        # In process mode the bank and the gradient matrix live in shared
        # memory: workers read weights and write gradients with zero copies.
        # pipeline_depth=1 adds a second gradient matrix (iteration t+1's
        # gradients must not race iteration t's fused update) and a shadow
        # weight buffer — the back buffer of the publish/flip protocol.
        self._update_matrix = self._new_matrix(max_learners, num_parameters)
        self._update_matrix_b: Optional[np.ndarray] = None
        self._shadow_matrix: Optional[np.ndarray] = None
        if config.pipeline_depth == 1:
            self._update_matrix_b = self._new_matrix(max_learners, num_parameters)
            self._shadow_matrix = self._new_matrix(max_learners, num_parameters)
        self._bind_executor_buffers()
        self.learners: List[Learner] = []
        for gpu in self.server.gpus:
            for _ in range(config.replicas_per_gpu):
                self._add_learner_on_gpu(gpu.gpu_id, self.initial_model.clone())

        # Synchronisation algorithm ----------------------------------------------------------
        self.synchroniser = self._build_synchroniser(self.initial_model.parameter_vector())

        # Auto-tuner ---------------------------------------------------------------------------
        self.autotuner = AutoTuner(
            max_learners=config.max_replicas_per_gpu,
            min_learners=1,
            learners_per_gpu=config.replicas_per_gpu,
            enabled=config.auto_tune,
        )

        self.metrics = TrainingMetrics()
        self.sync_counters = SyncCounters()
        self._iteration = 0
        self._last_lr = self.schedule.rate(0.0)
        self._accuracy_before_lr_change: Optional[float] = None

        # Serving plane (repro.serve) ---------------------------------------------------
        # The materialised central model is cached keyed on the synchroniser's
        # version counter, so back-to-back evaluate()/publish_checkpoint()
        # calls without an intervening step share one clone-and-average pass.
        self._central_cache: Optional[Module] = None
        self._central_cache_key: Optional[Tuple[int, int]] = None
        #: optional CheckpointStore that publish_checkpoint() feeds
        self.checkpoint_store: Optional[CheckpointStore] = None
        self._evaluation_service = None  # repro.serve.EvaluationService
        self._last_eval_epoch: Optional[int] = None

    # ------------------------------------------------------------------ construction helpers
    def _build_synchroniser(self, center: np.ndarray):
        """A synchroniser for the current learners, its central model at ``center``."""
        num_replicas = len(self.learners)
        if self.config.synchronisation == "ssgd":
            return SSGD(center, num_replicas, self.momentum)
        if self.config.synchronisation == "easgd":
            return EASGD(
                center,
                num_replicas,
                EASGDConfig(communication_period=self.config.synchronisation_period),
            )
        return SMA(
            center,
            num_replicas,
            SMAConfig(synchronisation_period=self.config.synchronisation_period),
        )

    def _add_learner_on_gpu(self, gpu_id: int, model: Module) -> None:
        slot = self.scheduler.add_learner(gpu_id)
        self.replica_bank.attach(model)
        self.learners.append(Learner(model, slot))

    # ------------------------------------------------------------------------ training loop
    def train(self) -> TrainingResult:
        """Run training until the target accuracy or the epoch budget is reached."""
        config = self.config
        started = time.perf_counter()
        reached = False

        for epoch in range(config.max_epochs):
            self._apply_schedule(epoch)
            train_loss = self._train_epoch(epoch)
            eval_epoch = config.evaluate_every_epochs > 0 and (
                (epoch + 1) % config.evaluate_every_epochs == 0
                or epoch == config.max_epochs - 1
            )
            pending_from: Optional[int] = None
            if self._evaluation_service is not None:
                # Absorb any accuracies the off-path evaluator finished since
                # the last epoch before recording this one.
                self._evaluation_service.poll()
            if eval_epoch and self._evaluation_service is not None:
                # Off the critical path: snapshot z, hand it to the service,
                # and record the accuracy as pending — resolve_accuracy()
                # fills it (and any carried copies) in once the worker reports.
                checkpoint = self.publish_checkpoint(epoch=epoch)
                self._evaluation_service.submit(checkpoint, epoch=epoch)
                self._last_eval_epoch = epoch
                if config.target_accuracy is not None:
                    # The early-stop check below needs this epoch's real
                    # accuracy, so a target turns the epoch boundary into a
                    # barrier: process mode waits only for the in-flight
                    # evaluation (which overlapped this epoch's training),
                    # serial mode evaluates the deferred queue here.
                    self._evaluation_service.drain()
                    test_accuracy = self._evaluation_service.accuracy_for_epoch(epoch)
                    pending_from = None
                else:
                    test_accuracy = float("nan")
                    pending_from = epoch
            elif eval_epoch:
                if self.checkpoint_store is not None:
                    self.publish_checkpoint(epoch=epoch)
                test_accuracy = self.evaluate()
            else:
                test_accuracy = (
                    self.metrics.records[-1].test_accuracy if self.metrics.records else 0.0
                )
                if math.isnan(test_accuracy):
                    # Carrying forward a still-pending accuracy: register under
                    # the same source epoch so one resolution covers the chain.
                    pending_from = self._last_eval_epoch
            record = EpochRecord(
                epoch=epoch,
                sim_time=self.server.now(),
                test_accuracy=test_accuracy,
                train_loss=train_loss,
                samples_processed=self.task_manager.total_samples,
                learning_rate=self._last_lr,
                replicas=len(self.learners),
            )
            self.metrics.add(record, pending_from=pending_from)
            logger.debug(
                "epoch %d: loss=%.4f acc=%.4f sim_time=%.1fs replicas=%d",
                epoch,
                train_loss,
                test_accuracy,
                record.sim_time,
                len(self.learners),
            )
            if (
                config.target_accuracy is not None
                and self.metrics.median_accuracy_at(len(self.metrics.records) - 1)
                >= config.target_accuracy
            ):
                reached = True
                break

        if self._evaluation_service is not None:
            # Barrier: every queued checkpoint is evaluated and every pending
            # record resolved, so the returned metrics are bit-identical to
            # what inline evaluation would have reported on this seed.
            self._evaluation_service.drain()
            self.metrics.assert_resolved()

        # Snapshot the run's cumulative counters into the telemetry plane so
        # the analytics layer can window them across runs and commits.
        recorder = get_recorder()
        if recorder.enabled:
            for key, value in self.sync_counters.as_dict().items():
                recorder.counter(f"trainer.{key}", float(value))
            recorder.counter("trainer.autotuner_resizes", self.autotuner.resize_count)
            recorder.counter("trainer.epochs", len(self.metrics.records))
            # With the inputs of lane_width(), so a width of 1 says why.
            cores = len(usable_cpus())
            recorder.counter(
                "trainer.learner_lanes",
                self.learner_lanes,
                execution=config.execution,
                cores=cores,
                blas_threads=blas_threads(cores),
            )

        return TrainingResult(
            system=self._system,
            model_name=config.model_name,
            dataset_name=config.dataset_name,
            num_gpus=config.num_gpus,
            replicas_per_gpu=self.autotuner.learners_per_gpu,
            batch_size=config.batch_size,
            metrics=self.metrics,
            reached_target=reached,
            target_accuracy=config.target_accuracy,
            wall_clock_seconds=time.perf_counter() - started,
            extra={
                "total_learners": len(self.learners),
                "sma_restarts": getattr(self.synchroniser, "restarts", 0),
                "autotuner_resizes": self.autotuner.resize_count,
                "learner_lanes": self.learner_lanes,
                **self.sync_counters.as_dict(),
                **(
                    {
                        "pool_respawns": self._executor.respawns,
                        "pool_resizes_in_place": self._executor.resizes_in_place,
                    }
                    if isinstance(self._executor, ProcessExecutor)
                    else {}
                ),
            },
        )

    def _train_epoch(self, epoch: int) -> float:
        """One pass over the training data; returns the mean training loss.

        Each iteration issues one learning task per learner to the executor
        (worker processes, or the in-process lanes), collects the ``k``
        losses and runs the fused synchronisation step here; the epoch ends
        when fewer than ``k`` batches remain.  ``pipeline_depth`` is the only
        difference between the schedules:

        * ``0`` — each collected iteration is applied at once, in place.
        * ``1`` — it becomes the pending iteration.  The next iteration is
          issued against the still-published weights (staleness 1), and the
          pending one is applied **into the back buffer** while the workers
          compute, then published with a buffer flip.  The first iteration
          after an epoch start (or a resize) has nothing pending, so runs on
          fresh weights.

        The epoch end flushes the last pending update and copies the
        published buffer back into the bank, so every quiescent boundary
        (evaluation, checkpoint, resize, close) observes the bank as the
        single source of truth, at either depth.
        """
        executor = self._executor
        depth = self.config.pipeline_depth
        losses: List[float] = []
        executor.begin_epoch(epoch)
        try:
            while executor.batches_remaining() >= len(self.learners):
                self._reserve_rows(len(self.learners))
                update_index = self._next_update_index
                staleness = 1 if self._pending is not None else 0
                executor.issue_step(self.learners, self._published_index, update_index)
                self._next_update_index = 1 - update_index if depth else 0
                # Only at depth 1 is an iteration pending here: its serial
                # section hides behind the workers' gradients of this one.
                self._apply_pending(overlapped=True)
                step_losses = executor.collect_step()
                self._pending = _PendingIteration(
                    losses=step_losses,
                    slots=[learner.slot for learner in self.learners],
                    update_index=update_index,
                    staleness=staleness,
                )
                if depth == 0:
                    self._apply_pending(overlapped=False)
                losses.append(float(np.mean(step_losses)))
                self._maybe_autotune()
            self._flush_pipeline()
        finally:
            executor.end_epoch()
        return float(np.mean(losses)) if losses else float("nan")

    def _weight_buffer(self, index: int) -> np.ndarray:
        """Full-capacity weight buffer ``index`` (0 = the bank, 1 = the shadow)."""
        if index == 0:
            return self.replica_bank.storage
        assert self._shadow_matrix is not None
        return self._shadow_matrix

    def _update_buffer(self, index: int) -> np.ndarray:
        """Full-capacity gradient buffer ``index``."""
        if index == 0:
            return self._update_matrix
        assert self._update_matrix_b is not None
        return self._update_matrix_b

    def _apply_pending(self, overlapped: bool) -> None:
        """Apply the pending iteration's fused update; at depth 1, publish it with a flip."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        k = len(pending.slots)
        front = self._weight_buffer(self._published_index)[:k]
        updates = self._update_buffer(pending.update_index)[:k]
        # Depth 0 has no back buffer: the step moves the bank in place.
        back_index = 1 - self._published_index
        out = None if self._shadow_matrix is None else self._weight_buffer(back_index)[:k]
        self._finish_iteration(
            front,
            updates,
            pending.slots,
            out=out,
            overlapped=overlapped,
            staleness=pending.staleness,
        )
        if out is not None:
            # Publish: the back buffer now holds the newest weights; the next
            # issued step addresses it and the old front becomes scratch.
            self._published_index = back_index

    def _flush_pipeline(self) -> None:
        """Barrier: apply any pending update and republish the bank (buffer 0).

        After this, the replica bank again holds the canonical weights (row
        ``j`` *is* learner ``j``'s replica) and no step is in flight — the
        quiescent state every consumer outside the pipelined loop assumes
        (evaluation, checkpointing, auto-tuner resizes, tests inspecting
        ``replica_bank.active_matrix()``).  No-op outside pipelined epochs.
        """
        if self._pending is not None:
            # Epoch-boundary (or barrier) application: nothing overlaps it.
            self._apply_pending(overlapped=False)
        if self._published_index != 0:
            k = len(self.learners)
            bank_guard = guard_for(self.replica_bank.storage)
            shadow_guard = guard_for(self._weight_buffer(1))
            with get_recorder().span("trainer.flip", rows=k):
                with bank_guard.write_rows(range(k)), shadow_guard.read_rows(range(k)):
                    np.copyto(self.replica_bank.storage[:k], self._weight_buffer(1)[:k])
            self._published_index = 0

    def _bind_executor_buffers(self) -> None:
        """Register the current weight/update buffers with the executor."""
        extra = [] if self._shadow_matrix is None else [self._shadow_matrix]
        updates = [self._update_matrix]
        if self._update_matrix_b is not None:
            updates.append(self._update_matrix_b)
        self._executor.bind_buffers(self.replica_bank, extra, updates)

    def _finish_iteration(
        self,
        weights: np.ndarray,
        updates: np.ndarray,
        slots: List[LearnerSlot],
        out: Optional[np.ndarray] = None,
        overlapped: bool = False,
        staleness: int = 0,
    ) -> None:
        """Apply the fused update to the bank and schedule the simulated tasks.

        With ``out`` (pipelined mode) the new weights land in the back buffer
        instead of mutating ``weights`` — the deferred publish of the
        flip protocol.  The weight-decay term always uses ``weights`` (the
        newest published weights), not the stale view the gradients were
        computed on.  ``overlapped``/``staleness`` feed the sync counters.
        """
        synchronise = self.synchroniser.should_synchronise()
        started = time.perf_counter()
        # Sanitized windows for the whole fused-update section: the step
        # scales the gradient rows in place (a write), the published weights are
        # read (pipelined) or stepped in place (depth 0), and the back buffer is
        # written.  Unregistered (serial-path) arrays resolve to no-op guards.
        rows = range(len(slots))
        with contextlib.ExitStack() as guards:
            guards.enter_context(guard_for(updates).write_rows(rows))
            if out is None:
                guards.enter_context(guard_for(weights).write_rows(rows))
            else:
                guards.enter_context(guard_for(weights).read_rows(rows))
                guards.enter_context(guard_for(out).write_rows(rows))
            self.synchroniser.step_matrix(
                weights,
                updates,
                out=out,
                learning_rate=self._last_lr,
                weight_decay=self.weight_decay,
            )
        sync_seconds = time.perf_counter() - started
        self.sync_counters.record(sync_seconds, overlapped, staleness)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.record_span(
                "trainer.sync", sync_seconds, overlapped=overlapped, staleness=staleness
            )

        # Hardware part: schedule the corresponding tasks on the simulated server.
        timing = self._schedule_tasks(
            self.scheduler, self._iteration, slots, self.config.batch_size, synchronise
        )
        self.task_manager.handle_completion(timing, num_learning_tasks=len(slots))
        self._iteration += 1

    def _new_matrix(self, rows: int, cols: int) -> np.ndarray:
        """A float32 ``(rows, cols)`` buffer, in shared memory under process execution."""
        if self.config.execution != "process":
            return np.zeros((rows, cols), dtype=np.float32)
        segment = SharedMatrix(rows, cols)
        self._shared_segments.append(segment)
        return segment.array

    def _reserve_rows(self, k: int) -> None:
        """Grow the update (and pipelined shadow) buffers to at least ``k`` rows.

        Re-binding different buffer objects invalidates a worker pool, so it
        respawns against the new rows.  Old segments stay alive (and in
        ``self._shared_segments``) until :meth:`close`: running workers may
        still map them mid-invalidate.
        """
        if k <= self._update_matrix.shape[0]:
            return
        cols = self._update_matrix.shape[1]
        self._update_matrix = self._new_matrix(k, cols)
        if self._update_matrix_b is not None:
            self._update_matrix_b = self._new_matrix(k, cols)
        if self._shadow_matrix is not None:
            self._shadow_matrix = self._new_matrix(k, cols)
        self._bind_executor_buffers()

    # ------------------------------------------------------------------------ auto-tuning
    def _maybe_autotune(self) -> None:
        if not self.config.auto_tune:
            return
        if self._iteration == 0 or self._iteration % self.config.auto_tune_interval != 0:
            return
        throughput = self.task_manager.recent_throughput()
        if throughput <= 0:
            return
        decision = self.autotuner.observe(throughput)
        if decision is AutoTunerDecision.ADD_LEARNER:
            self._grow_learners()
        elif decision is AutoTunerDecision.REMOVE_LEARNER:
            self._shrink_learners()

    def _grow_learners(self) -> None:
        """Add one learner per GPU, initialised from the central average model (§4.4)."""
        with get_recorder().span("autotuner.resize", direction="grow"):
            self._quiesce_for_resize()
            self.scheduler.barrier()
            center = np.array(self.synchroniser.center, copy=True)
            for gpu in self.server.gpus:
                model = self.initial_model.clone()
                model.load_parameter_vector(center)
                self._add_learner_on_gpu(gpu.gpu_id, model)
            self._finish_resize()
        logger.debug("auto-tuner: grew to %d learners per GPU", self.autotuner.learners_per_gpu)

    def _shrink_learners(self) -> None:
        """Remove one learner per GPU: the one added last on it."""
        with get_recorder().span("autotuner.resize", direction="shrink"):
            self._quiesce_for_resize()
            self.scheduler.barrier()
            for gpu in self.server.gpus:
                last = [each for each in self.learners if each.slot.gpu_id == gpu.gpu_id][-1]
                self.learners.remove(last)
                self.replica_bank.detach(last.model)
                self.scheduler.remove_learner(last.slot)
            self._finish_resize()
        logger.debug("auto-tuner: shrank to %d learners per GPU", self.autotuner.learners_per_gpu)

    def _quiesce_for_resize(self) -> None:
        """Barriers that must precede any learner-set change.

        * Pipelined mode: apply the in-flight iteration and republish the
          bank, so the resize operates on canonical weights and no worker is
          mid-step when rows move.
        * Off-path evaluation: drain any pending checkpoint evaluation before
          re-sharding.  Eval *epochs* already drain when a target accuracy
          needs the number, but a resize can land between epochs' polls with
          submissions still queued; finishing them first means an off-path
          accuracy can never be computed concurrently with (or reordered
          around) a half-packed bank and the synchroniser rebuild.
        """
        self._flush_pipeline()
        if self._evaluation_service is not None and self._evaluation_service.pending():
            self._evaluation_service.drain()

    def _finish_resize(self) -> None:
        """Steps 4 and 5 of a resize: re-pack the bank, then rebuild the synchroniser.

        A resize runs on the trainer's thread between iterations, after
        ``collect_step`` has joined every lane, so nothing else touches the
        learners while they change.  Its five steps:

        1. :meth:`_quiesce_for_resize` flushes a pipelined update and drains
           off-path evaluations, then ``TaskScheduler.barrier()`` drains the
           simulated tasks so no ready time predates the resize.
        2. Grow: a model cloned from the central average model (§4.4) per
           GPU, attached to the bank, with a slot from
           ``TaskScheduler.add_learner``.  Shrink: the learner added last on
           each GPU is dropped and its model detached from the bank.
        3. Shrink: ``TaskScheduler.remove_learner`` forgets each removed
           learner's ready time and retires its stream for a later grow.
        4. ``ReplicaBank.pack`` re-packs the rows into learner order, so
           ``active_matrix()`` stays a dense ``(k, P)`` prefix.
        5. Under ``execution="process"`` the worker pool is re-pointed in
           place (surviving workers re-bind to their packed rows, removed
           workers stop, added learners get fresh forks) — or invalidated
           for a full respawn when the shared buffers were reallocated (see
           :meth:`ProcessExecutor.resize`).  Then the synchroniser is rebuilt
           for the new ``k`` from the current central model, keeping its
           iteration and restart counts.
        """
        self.replica_bank.pack([learner.model for learner in self.learners])
        self._executor.resize(self.learners)
        previous = self.synchroniser
        self.synchroniser = self._build_synchroniser(previous.center)
        self.synchroniser.iteration = previous.iteration
        if isinstance(previous, SMA):
            self.synchroniser.restarts = previous.restarts
        # The synchroniser object (and its version counter) was replaced, and
        # the learner set changed; drop the cached central model outright.
        self._central_cache = None
        self._central_cache_key = None
        self.task_manager.reset_window()

    # ------------------------------------------------------------------------ schedule / restart
    def _apply_schedule(self, epoch: int) -> None:
        new_rate = self.schedule.rate(float(epoch))
        if new_rate != self._last_lr:
            if self.config.synchronisation == "sma":
                if self._evaluation_service is not None:
                    # The restart rule compares real accuracies across the LR
                    # change; force the off-path evaluations to complete first
                    # so the decision matches inline evaluation exactly.
                    self._evaluation_service.drain()
                # §3.2: if accuracy did not improve across the learning-rate
                # change, restart the averaging process from the current centre.
                current = self.metrics.final_accuracy()
                if (
                    self._accuracy_before_lr_change is not None
                    and current <= self._accuracy_before_lr_change
                ):
                    self.synchroniser.restart()
            self._accuracy_before_lr_change = self.metrics.final_accuracy()
            self._last_lr = new_rate

    # ------------------------------------------------------------------------ evaluation
    def central_model(self) -> Module:
        """Materialise the central average model ``z`` as a module.

        SMA only averages trainable parameters; non-trainable state (the
        batch-norm running statistics) is averaged across the replicas, which is
        the standard practice for evaluating an averaged model.

        The materialised module is cached keyed on the synchroniser's version
        counter and the learner count: back-to-back calls without an
        intervening training step (evaluate + publish_checkpoint at an epoch
        boundary, say) return the same instance without re-cloning,
        re-averaging, or — under ``execution="process"`` — re-fetching worker
        buffers.  Treat it as a read-only snapshot; the next step invalidates
        it.
        """
        # A pipelined in-flight iteration must be applied first: z (and the
        # published weights) would otherwise lag the already-computed
        # gradients of the pending step.  No-op at epoch boundaries.
        self._flush_pipeline()
        key = (getattr(self.synchroniser, "version", -1), len(self.learners))
        if self._central_cache is not None and key == self._central_cache_key:
            return self._central_cache
        # Under process execution batch-norm statistics accumulate in the
        # workers; pull them back before averaging (weights never need this).
        self._executor.sync_buffers()
        model = self.initial_model.clone()
        model.load_parameter_vector(np.asarray(self.synchroniser.center))
        replica_models = [learner.model for learner in self.learners]
        if replica_models:
            target_buffers = dict(model.named_buffers())
            replica_buffers = [dict(m.named_buffers()) for m in replica_models]
            for name, buffer in target_buffers.items():
                stacked = np.stack([buffers[name] for buffers in replica_buffers])
                buffer[...] = stacked.mean(axis=0)
        self._central_cache = model
        self._central_cache_key = key
        return model

    def evaluate(self, batch_size: int = 256) -> float:
        """Top-1 accuracy of the central average model on the held-out test set."""
        return evaluate_top1(
            self.central_model(), self.pipeline.test_batches(batch_size=batch_size)
        )

    # ------------------------------------------------------------------------ serving plane
    def publish_checkpoint(self, epoch: Optional[int] = None) -> Checkpoint:
        """Snapshot the central model ``z`` for the serving plane.

        Captures the central parameter vector, the replica-averaged batch-norm
        buffers and run metadata (epoch, iteration, SMA restart count) as a
        :class:`~repro.serve.checkpoint.Checkpoint`, publishing it to the
        attached :class:`~repro.serve.checkpoint.CheckpointStore` when one is
        set.  Called by :meth:`train` at evaluation boundaries; safe to call
        from user code at any sync boundary — the snapshot is a private copy,
        so training continues unaffected.
        """
        with get_recorder().span("trainer.publish_checkpoint"):
            model = self.central_model()
            checkpoint = Checkpoint.from_model(
                model,
                epoch=-1 if epoch is None else epoch,
                iteration=self._iteration,
                sma_restarts=getattr(self.synchroniser, "restarts", 0),
            )
            if self.checkpoint_store is not None:
                self.checkpoint_store.publish(checkpoint)
        return checkpoint

    def attach_checkpoint_store(self, store: CheckpointStore) -> CheckpointStore:
        """Route :meth:`publish_checkpoint` snapshots into ``store``."""
        self.checkpoint_store = store
        return store

    def attach_evaluation_service(self, service):
        """Evaluate off the training loop via a :class:`repro.serve.EvaluationService`.

        Binds the service to this trainer's model architecture, test pipeline
        and metrics, then switches :meth:`train` from inline evaluation to
        publish-and-defer: eval-epoch accuracies are recorded as pending and
        resolved asynchronously, with a ``drain()`` barrier at the end of
        training (and before any SMA restart decision) keeping fixed-seed
        results bit-identical to inline evaluation.  The caller keeps
        ownership: ``service.close()`` is not called by the trainer.
        """
        service.bind(self.initial_model, self.pipeline, self.metrics)
        self._evaluation_service = service
        return service

    # ------------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release worker processes and shared-memory segments (idempotent).

        Only meaningful under ``execution="process"``; a serial trainer holds
        no external resources.  Under process execution, closing detaches
        every learner's model from the shared bank (each keeps a private copy
        of its weights), so the trainer stays usable for evaluation — but not
        for further training.
        """
        # Apply any pipelined in-flight update so the final central model and
        # bank state reflect every collected gradient.  The flush is
        # parent-side arithmetic only, so it is safe even if workers died.
        self._flush_pipeline()
        self._executor.close()
        if isinstance(self.replica_bank, SharedReplicaBank):
            self.replica_bank.close()
        if self._shared_segments:
            # Swap in private empty matrices before unlinking: a surviving view
            # into an unmapped segment would segfault on any later touch.
            cols = self._update_matrix.shape[1]
            self._update_matrix = np.zeros((0, cols), dtype=np.float32)
            self._update_matrix_b = None
            self._shadow_matrix = None
            for segment in self._shared_segments:
                segment.close()
            self._shared_segments = []

    def __enter__(self) -> "CrossbowTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------------ introspection
    def throughput(self) -> float:
        return self.task_manager.cumulative_throughput()

    def replicas_per_gpu(self) -> int:
        return self.autotuner.learners_per_gpu

    def central_model_vector(self) -> np.ndarray:
        return np.array(self.synchroniser.center, copy=True)

    @property
    def learner_lanes(self) -> int:
        """The most lanes any serial iteration ran its learners on (1 in process mode)."""
        return self._executor.widest if isinstance(self._executor, LearnerLanes) else 1
