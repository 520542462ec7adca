"""Collective-communication cost models.

Crossbow implements the inter-GPU part of a global synchronisation task as a
ring all-reduce (§4.2): each GPU exchanges equally-sized partitions with its
ring neighbours so the reduction work is spread evenly across GPUs.  The
classic cost of a ring all-reduce of ``S`` bytes over ``g`` devices is
``2 (g-1)/g * S / B + 2 (g-1) * L`` with bottleneck bandwidth ``B`` and
per-hop latency ``L``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gpusim.topology import Topology


def ring_allreduce_time(size_bytes: float, topology: Topology) -> float:
    """Time for a ring all-reduce of ``size_bytes`` across all GPUs of ``topology``."""
    if size_bytes < 0:
        raise ConfigurationError("payload size must be non-negative")
    num_gpus = topology.num_gpus
    if num_gpus <= 1 or size_bytes == 0:
        return 0.0
    link = topology.ring_bottleneck()
    transfer = 2.0 * (num_gpus - 1) / num_gpus * size_bytes / link.bandwidth
    latency = 2.0 * (num_gpus - 1) * link.latency
    return transfer + latency


def hierarchical_reduce_time(
    size_bytes: float, topology: Topology, replicas_per_gpu: int
) -> float:
    """Two-level synchronisation cost: intra-GPU reduction then inter-GPU all-reduce.

    Intra-GPU aggregation of ``replicas_per_gpu`` model-sized buffers happens in
    device memory (fast, bandwidth-bound); the inter-GPU step is a ring
    all-reduce of one model-sized buffer.  This mirrors §3.3 of the paper where
    learners on the same GPU synchronise against a local reference model and
    only reference models participate in SMA across GPUs.
    """
    if replicas_per_gpu < 1:
        raise ConfigurationError("need at least one replica per GPU")
    device_bandwidth = 400e9  # bytes/s of on-device memory traffic
    intra = (replicas_per_gpu - 1) * 2.0 * size_bytes / device_bandwidth
    inter = ring_allreduce_time(size_bytes, topology)
    return intra + inter
