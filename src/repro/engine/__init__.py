"""The Crossbow task engine, which also trains the S-SGD baseline.

This package is the paper's primary contribution: the system that trains many
small-batch model replicas per GPU and keeps them synchronised with SMA while
hiding the synchronisation cost behind learning tasks.

* :class:`~repro.engine.crossbow.CrossbowTrainer` — the full system: learners,
  replica pools, FCFS task scheduler with overlap, hierarchical SMA
  synchronisation, auto-tuned number of learners per GPU.  The same loop runs
  the TensorFlow-style parallel synchronous SGD baseline used throughout the
  evaluation, as ``CrossbowConfig(synchronisation="ssgd")``.
* :mod:`~repro.engine.metrics` — time-to-accuracy / epochs-to-accuracy
  bookkeeping with the paper's median-of-last-five-epochs rule.
"""

from repro.engine.metrics import EpochRecord, SyncCounters, TrainingMetrics, TrainingResult
from repro.engine.replica import ModelReplica, ReplicaBank, ReplicaPool
from repro.engine.learner import Learner
from repro.engine.tasks import GlobalSyncTask, LearningTask, LocalSyncTask, TaskKind
from repro.engine.scheduler import IterationTiming, SchedulingPolicy, TaskScheduler
from repro.engine.task_manager import TaskManager
from repro.engine.autotuner import AutoTuner, AutoTunerDecision
from repro.engine.executor import (
    ProcessExecutor,
    SharedMatrix,
    SharedReplicaBank,
    WorkerPool,
    process_execution_supported,
)
from repro.engine.memory_plan import (
    MemoryPlan,
    OperatorSpec,
    naive_memory_plan,
    offline_memory_plan,
    online_shared_plan,
    operator_specs_from_forward,
)
from repro.engine.config import CrossbowConfig
from repro.engine.crossbow import CrossbowTrainer

__all__ = [
    "EpochRecord",
    "SyncCounters",
    "TrainingMetrics",
    "TrainingResult",
    "ModelReplica",
    "ReplicaBank",
    "ReplicaPool",
    "Learner",
    "TaskKind",
    "LearningTask",
    "LocalSyncTask",
    "GlobalSyncTask",
    "SchedulingPolicy",
    "IterationTiming",
    "TaskScheduler",
    "TaskManager",
    "AutoTuner",
    "AutoTunerDecision",
    "ProcessExecutor",
    "SharedMatrix",
    "SharedReplicaBank",
    "WorkerPool",
    "process_execution_supported",
    "MemoryPlan",
    "OperatorSpec",
    "offline_memory_plan",
    "naive_memory_plan",
    "online_shared_plan",
    "operator_specs_from_forward",
    "CrossbowConfig",
    "CrossbowTrainer",
]
