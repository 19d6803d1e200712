"""Parallel runtime substrate.

The paper implements its algorithms in C++ with ParlayLib on a 48-core
shared-memory machine.  Pure Python cannot exploit fine-grained shared-memory
parallelism because of the GIL, so this package provides two complementary
substitutes:

* serial/thread/process backends (:mod:`repro.parallel.scheduler`) that
  coarse-grained work such as the APSP source chunks is mapped over;
* a work–span cost model (:mod:`repro.parallel.cost_model`) that records the
  work and span of each algorithm phase and predicts the running time on
  ``P`` processors as ``W / P + c * S``, which is how the scalability
  experiments (Fig. 4) are reproduced.
"""

from repro.parallel.cost_model import PhaseCost, WorkSpanTracker, predicted_speedup
from repro.parallel.scheduler import (
    ParallelBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
    make_backend,
    set_backend,
)

__all__ = [
    "PhaseCost",
    "WorkSpanTracker",
    "predicted_speedup",
    "ParallelBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
    "make_backend",
    "set_backend",
]
