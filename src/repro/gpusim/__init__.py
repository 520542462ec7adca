"""Discrete-event simulator of a single multi-GPU server.

This package stands in for the 8-GPU (GeForce GTX Titan X, PCIe 3.0) server the
paper evaluates on.  It models the quantities that determine *hardware
efficiency* in the paper:

* per-GPU **streams** on which kernels/tasks execute in issue order, with
  **events** expressing cross-stream dependencies (§2.2, §4.3),
* a **kernel cost model** mapping (model, batch size, concurrent learners) to a
  task duration, including streaming-multiprocessor contention when several
  learners share a GPU (§3.3),
* a **PCIe topology** and a **ring all-reduce** cost model for the
  inter-GPU synchronisation traffic (§4.2),
* a **copy engine** for host-to-device input transfers that overlap with
  compute (§4.5).

The simulated clock produced here is what the trainers in :mod:`repro.engine`
use to report throughput and time-to-accuracy; the gradient math itself runs
for real on the CPU.
"""

from repro.gpusim.costmodel import (
    COST_PROFILES,
    GpuSpec,
    TaskCostProfile,
    cost_profile_for_model,
    learning_task_duration,
    local_sync_duration,
    utilisation,
)
from repro.gpusim.topology import Interconnect, Topology, pcie_tree_topology
from repro.gpusim.allreduce import ring_allreduce_time, hierarchical_reduce_time
from repro.gpusim.device import Event, Gpu, Stream, TaskRecord
from repro.gpusim.server import MultiGpuServer, titan_x_server
from repro.gpusim.tracing import TraceEvent, Tracer

__all__ = [
    "GpuSpec",
    "TaskCostProfile",
    "COST_PROFILES",
    "cost_profile_for_model",
    "learning_task_duration",
    "local_sync_duration",
    "utilisation",
    "Interconnect",
    "Topology",
    "pcie_tree_topology",
    "ring_allreduce_time",
    "hierarchical_reduce_time",
    "Event",
    "Gpu",
    "Stream",
    "TaskRecord",
    "MultiGpuServer",
    "titan_x_server",
    "TraceEvent",
    "Tracer",
]
