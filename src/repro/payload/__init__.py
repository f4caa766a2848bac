"""Message payloads.

Collective algorithms in this package are written once and run in two
modes:

* **data mode** — payloads carry real :class:`numpy.ndarray` vectors, so
  every algorithm's result is verified element-wise against numpy
  reductions (used by the test suite at small scale);
* **symbolic mode** — payloads carry only a element count and item size,
  so large-scale benchmark runs (up to 10,240 simulated ranks) skip all
  actual arithmetic while charging identical simulated time.

Both modes share one interface (:class:`~repro.payload.payload.Payload`)
with partitioning, concatenation and reduction, mirroring exactly the
operations DPML performs on user buffers.
"""

from repro.payload.ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.payload.payload import (
    Bundle,
    DataPayload,
    Payload,
    SymbolicPayload,
    concat,
    make_payload,
    payload_counters,
    reduce_payloads,
    reset_payload_counters,
    split_bounds,
)

__all__ = [
    "MAX",
    "MIN",
    "PROD",
    "SUM",
    "ReduceOp",
    "Bundle",
    "Payload",
    "DataPayload",
    "SymbolicPayload",
    "concat",
    "make_payload",
    "payload_counters",
    "reduce_payloads",
    "reset_payload_counters",
    "split_bounds",
]
