"""Reproduction of CROSSBOW (VLDB 2019): scaling deep learning with small batch
sizes on multi-GPU servers.

The public API is organised in layers:

* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.models`, :mod:`repro.data`
  — the deep-learning substrate (NumPy autodiff, layers, benchmark models,
  synthetic datasets),
* :mod:`repro.gpusim` — a discrete-event multi-GPU server simulator standing in
  for the 8-GPU testbed used in the paper,
* :mod:`repro.optim` — SMA (the paper's Algorithm 1), EA-SGD, the S-SGD
  baseline's update, SGD with momentum and learning-rate schedules,
* :mod:`repro.engine` — the Crossbow task engine (learners, the replica bank,
  task scheduler, auto-tuner, memory planner), whose one training loop also
  runs the S-SGD baseline,
* :mod:`repro.experiments` — workload definitions and runners for every table
  and figure in the paper's evaluation.
"""

from repro._version import __version__

__all__ = ["__version__"]
