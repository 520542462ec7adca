"""The serving plane: checkpoint store, off-path evaluation, micro-batch inference.

Crossbow always evaluates the central average model ``z`` — but materialising
``z`` and running the held-out set through it inline stalls SMA iterations.
This package isolates the *analytical read path* (evaluation, inference) from
the *transactional write path* (training), the same split HTAP systems make:

* :mod:`repro.serve.checkpoint` — :class:`Checkpoint` snapshots of ``z``
  (parameters + averaged batch-norm buffers + metadata) in a bounded
  :class:`CheckpointStore` ring with optional ``.npz`` spill,
* :mod:`repro.serve.evaluation` — :class:`EvaluationService`, a deferred
  queue (serial) or a pool of evaluator worker processes over shared memory
  (process) that batch-evaluates queued checkpoints off the training loop and
  feeds accuracies back into the training metrics, with a ``drain()`` barrier
  that keeps fixed-seed results bit-identical to inline evaluation,
* :mod:`repro.serve.ring` — the one shared-memory slot ring and forked-pool
  lifecycle both worker pools below are payload adapters over,
* :mod:`repro.serve.pool` — the scaling layer: :class:`EvaluatorPool` (N
  forked workers claiming checkpoints from the slot ring) and
  :class:`BatchedEvaluator` (k checkpoint versions banked into a ``(k, P)``
  replica bank and evaluated in one fused forward — the serving-side analogue
  of ``SMA.step_matrix``),
* :mod:`repro.serve.batching` — the one statement of the serving rules: a
  sans-I/O, clock-injected ``BatchingCore`` (admission policies, per-request
  deadlines, micro-batch ripeness and membership, :class:`ServeCounters`)
  driven by both servers below and by ``repro.scenarios.simulate``,
* :mod:`repro.serve.inference` — :class:`InferenceServer`, the wall-clock
  driver of that core: a micro-batching front-end with max-batch/max-latency
  coalescing knobs, between-batch hot swap to the newest published
  checkpoint, and request admission control (bounded queue with reject /
  shed-oldest / degrade policies, per-request deadlines),
* :mod:`repro.serve.scaling` — the multi-process inference plane:
  :class:`InferencePool` (N forked inference workers over a request-tensor
  slot ring, resized in place by parking/resuming workers),
  :class:`PooledInferenceServer` (the same front door, forward passes fanned
  across the pool, responses matched to futures by ticket), and
  :class:`ServingAutoTuner` (Algorithm 2's observe/decide machinery running
  setpoint control on the telemetry plane's
  :func:`~repro.telemetry.queries.load_signal`).
"""

from repro.serve.checkpoint import Checkpoint, CheckpointStore
from repro.serve.evaluation import EvaluationService, EvaluationTicket
from repro.serve.batching import ServeCounters
from repro.serve.inference import InferenceServer, ServingStats
from repro.serve.pool import BatchedEvaluator, EvaluatorPool
from repro.serve.scaling import (
    InferencePool,
    PooledInferenceServer,
    ServingAutoTuner,
    autoscale_step,
)

__all__ = [
    "BatchedEvaluator",
    "Checkpoint",
    "CheckpointStore",
    "EvaluationService",
    "EvaluationTicket",
    "EvaluatorPool",
    "InferencePool",
    "InferenceServer",
    "PooledInferenceServer",
    "ServeCounters",
    "ServingStats",
    "ServingAutoTuner",
    "autoscale_step",
]
