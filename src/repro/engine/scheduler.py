"""The task scheduler: maps learning and synchronisation tasks onto GPU streams.

Two scheduling policies are implemented (§4.3):

``FCFS_OVERLAP`` (Crossbow)
    Learning tasks are issued to whichever learner stream is available first.
    Synchronisation tasks of iteration N overlap with learning tasks of
    iteration N+1: a learner's next learning task only waits for that learner's
    own local synchronisation task, and local synchronisation tasks only wait
    for the previous iteration's global synchronisation on their GPU.

``LOCKSTEP`` (TensorFlow/PyTorch style, used for the scheduler ablation)
    A global barrier separates iterations: every task of iteration N+1 waits
    for every task of iteration N, and each task pays a higher host-side
    scheduling overhead (round-robin dispatch).

The scheduler only produces the *timing* of tasks on the simulated server; the
numeric work is performed by the learners and the SMA state in the trainer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import SchedulingError
from repro.engine.tasks import GlobalSyncTask, IterationTasks, LearningTask, LocalSyncTask
from repro.gpusim.costmodel import (
    TaskCostProfile,
    learning_task_duration,
    local_sync_duration,
)
from repro.gpusim.server import MultiGpuServer


class SchedulingPolicy(str, enum.Enum):
    """Task dispatch policy."""

    FCFS_OVERLAP = "fcfs-overlap"
    LOCKSTEP = "lockstep"


#: host-side dispatch overhead per task, seconds
_SCHEDULER_OVERHEAD = {
    SchedulingPolicy.FCFS_OVERLAP: 0.15e-3,
    SchedulingPolicy.LOCKSTEP: 0.7e-3,
}


class LearnerSlot(NamedTuple):
    """Where one learner runs: its id, its GPU and its learner stream on that GPU."""

    learner_id: int
    gpu_id: int
    stream_id: int


@dataclass
class IterationTiming:
    """Simulated timing of one iteration."""

    iteration: int
    start: float
    end: float
    learning_end: float
    sync_end: float
    samples: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TaskScheduler:
    """Schedules one SMA (or S-SGD) iteration at a time onto the simulated server."""

    server: MultiGpuServer
    profile: TaskCostProfile
    policy: SchedulingPolicy = SchedulingPolicy.FCFS_OVERLAP
    keep_task_records: bool = False

    _learner_ready: Dict[int, float] = field(default_factory=dict)
    _gpu_average_ready: Dict[int, float] = field(default_factory=dict)
    _barrier: float = 0.0
    _next_task_id: int = 0
    _next_learner_id: int = 0
    iteration_history: List[IterationTasks] = field(default_factory=list)

    def __post_init__(self) -> None:
        for gpu in self.server.gpus:
            self._gpu_average_ready.setdefault(gpu.gpu_id, 0.0)

    # -- helpers -----------------------------------------------------------------------
    def _task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id

    def add_learner(self, gpu_id: int) -> LearnerSlot:
        """Give a new learner on ``gpu_id`` an id and a learner stream; it is ready now.

        Ids come from a counter and are never reused, so a task name
        ``learn[i=…,r=<id>]`` names one learner over the whole run.
        """
        stream = self.server.gpu(gpu_id).add_learner_stream()
        slot = LearnerSlot(self._next_learner_id, gpu_id, stream.stream_id)
        self._next_learner_id += 1
        self._learner_ready[slot.learner_id] = self.now()
        return slot

    def remove_learner(self, slot: LearnerSlot) -> None:
        """Forget a learner the auto-tuner removed and retire its stream for reuse.

        Without this, :meth:`barrier` keeps updating the ready time of every
        learner ever removed, and grow/shrink oscillation leaks a stream per
        cycle.
        """
        self._learner_ready.pop(slot.learner_id, None)
        self.server.gpu(slot.gpu_id).retire_learner_stream(slot.stream_id)

    def registered_learner_ids(self) -> List[int]:
        """Ids of every learner the scheduler currently tracks."""
        return sorted(self._learner_ready)

    def now(self) -> float:
        return self.server.now()

    def barrier(self) -> float:
        """Insert a global execution barrier (used by the auto-tuner when resizing)."""
        self._barrier = self.now()
        for learner_id in self._learner_ready:
            self._learner_ready[learner_id] = max(self._learner_ready[learner_id], self._barrier)
        for gpu_id in self._gpu_average_ready:
            self._gpu_average_ready[gpu_id] = max(self._gpu_average_ready[gpu_id], self._barrier)
        return self._barrier

    # -- main entry point -----------------------------------------------------------------
    def schedule_iteration(
        self,
        iteration: int,
        slots: Sequence[LearnerSlot],
        batch_size: int,
        synchronise: bool = True,
        payload_bytes: Optional[int] = None,
    ) -> IterationTiming:
        """Schedule the tasks of one iteration and return its simulated timing.

        ``slots`` are the learners taking part in this iteration (one
        learning task each).  ``synchronise`` is False when the synchronisation
        period τ > 1 and this iteration skips the global exchange.
        """
        if not slots:
            raise SchedulingError("cannot schedule an iteration with no learners")
        payload_bytes = (
            payload_bytes if payload_bytes is not None else self.profile.parameter_bytes
        )
        overhead = _SCHEDULER_OVERHEAD[self.policy]

        per_gpu_counts: Dict[int, int] = {}
        for slot in slots:
            per_gpu_counts[slot.gpu_id] = per_gpu_counts.get(slot.gpu_id, 0) + 1

        learning_records: List[LearningTask] = []
        local_records: List[LocalSyncTask] = []
        local_end_times: List[float] = []
        iteration_start = float("inf")

        for slot in slots:
            gpu = self.server.gpu(slot.gpu_id)
            stream = gpu.streams.get(slot.stream_id)
            if stream is None:
                raise SchedulingError(
                    f"learner {slot.learner_id} refers to missing stream {slot.stream_id}"
                )
            concurrent = per_gpu_counts[slot.gpu_id]

            copy_record = self.server.schedule_input_transfer(
                slot.gpu_id, self.profile, batch_size, dependencies=[self._barrier]
            )

            learn_deps = [
                copy_record.end,
                self._learner_ready.get(slot.learner_id, 0.0),
                self._barrier,
            ]
            if self.policy is SchedulingPolicy.LOCKSTEP:
                # A barrier between iterations: wait for every GPU's average
                # model to be up to date before any learning task starts.
                learn_deps.append(max(self._gpu_average_ready.values()))
            duration = learning_task_duration(
                self.profile, batch_size, concurrent, scheduler_overhead_s=overhead
            )
            learn_record = self.server.schedule_task(
                slot.gpu_id,
                stream,
                name=f"learn[i={iteration},r={slot.learner_id}]",
                duration=duration,
                dependencies=learn_deps,
                kind="learning",
            )
            iteration_start = min(iteration_start, learn_record.start)
            learning_records.append(
                LearningTask(
                    task_id=self._task_id(),
                    iteration=iteration,
                    replica_id=slot.learner_id,
                    gpu_id=slot.gpu_id,
                    stream_id=slot.stream_id,
                    batch_index=-1,
                    batch_size=batch_size,
                    start=learn_record.start,
                    end=learn_record.end,
                )
            )

            # Local synchronisation: replica difference against the GPU-local
            # average model.  Depends on the learning task and on the previous
            # iteration's global synchronisation for this GPU.
            local_deps = [learn_record.end, self._gpu_average_ready[slot.gpu_id]]
            local_duration = local_sync_duration(self.profile, concurrent)
            local_record = self.server.schedule_task(
                slot.gpu_id,
                stream,
                name=f"local-sync[i={iteration},r={slot.learner_id}]",
                duration=local_duration,
                dependencies=local_deps,
                kind="local_sync",
            )
            local_records.append(
                LocalSyncTask(
                    task_id=self._task_id(),
                    iteration=iteration,
                    replica_id=slot.learner_id,
                    gpu_id=slot.gpu_id,
                    stream_id=slot.stream_id,
                    start=local_record.start,
                    end=local_record.end,
                )
            )
            local_end_times.append(local_record.end)
            # The learner is free for its next learning task as soon as its own
            # local synchronisation finished (overlap with the global sync).
            self._learner_ready[slot.learner_id] = local_record.end

        learning_end = max(task.end for task in learning_records)

        global_records: List[GlobalSyncTask] = []
        if synchronise:
            replicas_per_gpu = max(per_gpu_counts.values())
            collective = self.server.schedule_allreduce(
                payload_bytes,
                ready_times=local_end_times,
                name=f"global-sync[i={iteration}]",
                replicas_per_gpu=replicas_per_gpu,
                hierarchical=True,
            )
            for gpu_id, record in collective.items():
                self._gpu_average_ready[gpu_id] = record.end
                global_records.append(
                    GlobalSyncTask(
                        task_id=self._task_id(),
                        iteration=iteration,
                        gpu_id=gpu_id,
                        start=record.start,
                        end=record.end,
                        payload_bytes=payload_bytes,
                    )
                )
            sync_end = max(record.end for record in collective.values())
        else:
            sync_end = max(local_end_times)

        if self.policy is SchedulingPolicy.LOCKSTEP:
            self._barrier = max(sync_end, learning_end)

        tasks = IterationTasks(
            iteration=iteration,
            learning=tuple(learning_records),
            local_sync=tuple(local_records),
            global_sync=tuple(global_records),
            synchronised=synchronise,
        )
        if self.keep_task_records:
            self.iteration_history.append(tasks)

        return IterationTiming(
            iteration=iteration,
            start=iteration_start,
            end=max(sync_end, learning_end),
            learning_end=learning_end,
            sync_end=sync_end,
            samples=batch_size * len(slots),
        )

    # -- S-SGD style iteration (used by the baseline trainer) ------------------------------
    def schedule_ssgd_iteration(
        self,
        iteration: int,
        batch_per_gpu: int,
        payload_bytes: Optional[int] = None,
    ) -> IterationTiming:
        """Schedule one parallel S-SGD iteration: partial gradients, all-reduce, update.

        S-SGD uses one replica per GPU and a global barrier between iterations
        (Figure 1 of the paper).
        """
        payload_bytes = (
            payload_bytes if payload_bytes is not None else self.profile.parameter_bytes
        )
        overhead = _SCHEDULER_OVERHEAD[self.policy]
        gradient_ends: List[float] = []
        iteration_start = float("inf")
        for gpu in self.server.gpus:
            stream = gpu.learner_streams()[0] if gpu.learner_streams() else gpu.sync_stream
            copy_record = self.server.schedule_input_transfer(
                gpu.gpu_id, self.profile, batch_per_gpu, dependencies=[self._barrier]
            )
            duration = learning_task_duration(
                self.profile, batch_per_gpu, 1, scheduler_overhead_s=overhead
            )
            record = self.server.schedule_task(
                gpu.gpu_id,
                stream,
                name=f"grad[i={iteration},g={gpu.gpu_id}]",
                duration=duration,
                dependencies=[copy_record.end, self._barrier],
                kind="learning",
            )
            iteration_start = min(iteration_start, record.start)
            gradient_ends.append(record.end)

        collective = self.server.schedule_allreduce(
            payload_bytes,
            ready_times=gradient_ends,
            name=f"allreduce[i={iteration}]",
            replicas_per_gpu=1,
            hierarchical=False,
        )
        sync_end = max(record.end for record in collective.values())

        update_ends: List[float] = []
        for gpu in self.server.gpus:
            stream = gpu.learner_streams()[0] if gpu.learner_streams() else gpu.sync_stream
            update_record = self.server.schedule_task(
                gpu.gpu_id,
                stream,
                name=f"update[i={iteration},g={gpu.gpu_id}]",
                duration=local_sync_duration(self.profile, 1),
                dependencies=[sync_end],
                kind="local_sync",
            )
            update_ends.append(update_record.end)

        end = max(update_ends)
        self._barrier = end  # S-SGD iterations are separated by a global barrier
        return IterationTiming(
            iteration=iteration,
            start=iteration_start,
            end=end,
            learning_end=max(gradient_ends),
            sync_end=sync_end,
            samples=batch_per_gpu * self.server.num_gpus,
        )
