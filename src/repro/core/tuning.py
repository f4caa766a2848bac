"""The hybrid, per-cluster tuned DPML selector (paper Sections 4 & 6.4).

"A combination of several different communication algorithms that
dynamically choose the best algorithm for different message sizes and
system sizes is required to extract best possible performance."

The paper's authors "performed empirical evaluation of different
configurations on the four clusters and chose the best configuration
for each message size".  We do the same: :data:`TUNING_TABLES` holds,
per cluster, an ordered list of ``(max_bytes, spec)`` rows; the first
row whose ``max_bytes`` covers the message decides the variant and
leader count.  :mod:`repro.core.autotune` regenerates these tables
empirically on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "DPML_TUNED",
    "TuningSpec",
    "TUNING_TABLES",
    "allreduce_dpml_tuned",
    "lookup_spec",
]

INF = float("inf")


@dataclass(frozen=True)
class TuningSpec:
    """One tuning-table row: which variant to run and how."""

    algorithm: str  #: registry name ("dpml", "dpml_pipelined", "sharp_*", ...)
    leaders: int = 1  #: leaders per node (ignored by sharp designs)

    def kwargs(self) -> dict:
        """Keyword arguments for the selected algorithm."""
        if self.algorithm in ("dpml", "dpml_pipelined"):
            return {"leaders": self.leaders}
        return {}


# Ordered (max_bytes, spec) rows per cluster.  A-C equal
# repro.core.autotune's output at 16 nodes x 28 ppn; D differs in one
# row (docs/calibration.md has the comparison).  The pattern matches
# Section 6.2: one/few leaders for small messages, more leaders as the
# message grows, SHArP for tiny messages where available, pipelined
# DPML for very large messages.
TUNING_TABLES: dict[str, list[tuple[float, TuningSpec]]] = {
    "cluster-a": [
        (512, TuningSpec("sharp_socket_leader")),
        (2048, TuningSpec("dpml", leaders=4)),
        (8192, TuningSpec("dpml", leaders=8)),
        (131072, TuningSpec("dpml", leaders=16)),
        (INF, TuningSpec("dpml_pipelined", leaders=16)),
    ],
    "cluster-b": [
        (64, TuningSpec("dpml", leaders=1)),
        (512, TuningSpec("dpml", leaders=2)),
        (2048, TuningSpec("dpml", leaders=4)),
        (8192, TuningSpec("dpml", leaders=8)),
        (131072, TuningSpec("dpml", leaders=16)),
        (INF, TuningSpec("dpml_pipelined", leaders=16)),
    ],
    "cluster-c": [
        (64, TuningSpec("dpml", leaders=1)),
        (512, TuningSpec("dpml", leaders=2)),
        (2048, TuningSpec("dpml", leaders=4)),
        (8192, TuningSpec("dpml", leaders=8)),
        (131072, TuningSpec("dpml", leaders=16)),
        (524288, TuningSpec("dpml_pipelined", leaders=16)),
        (INF, TuningSpec("dpml", leaders=16)),
    ],
    "cluster-d": [
        (64, TuningSpec("dpml", leaders=1)),
        (512, TuningSpec("dpml", leaders=4)),
        (2048, TuningSpec("dpml", leaders=8)),
        (131072, TuningSpec("dpml", leaders=16)),
        (524288, TuningSpec("dpml_pipelined", leaders=16)),
        (INF, TuningSpec("dpml", leaders=16)),
    ],
}

_FALLBACK_TABLE = [
    (2048, TuningSpec("dpml", leaders=1)),
    (16384, TuningSpec("dpml", leaders=4)),
    (131072, TuningSpec("dpml", leaders=8)),
    (INF, TuningSpec("dpml", leaders=16)),
]


def lookup_spec(
    cluster_name: str, nbytes: int, *, sharp_available: bool = False
) -> TuningSpec:
    """Tuning-table lookup for one message size."""
    table = TUNING_TABLES.get(cluster_name, _FALLBACK_TABLE)
    for max_bytes, spec in table:
        if nbytes <= max_bytes:
            if spec.algorithm.startswith("sharp") and not sharp_available:
                continue
            return spec
    return table[-1][1]


def allreduce_dpml_tuned(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
) -> Generator:
    """The proposed hybrid design: per-size best DPML/SHArP variant."""
    from repro.mpi.collectives.registry import resolve_allreduce

    machine = comm.machine
    spec = lookup_spec(
        machine.config.name,
        payload.nbytes,
        sharp_available=machine.sharp is not None,
    )
    fn = resolve_allreduce(spec.algorithm, comm)
    result = yield from fn(comm, payload, op, tag_base=tag_base, **spec.kwargs())
    return result


DPML_TUNED = AllreduceAlgorithm(
    "dpml_tuned", allreduce_dpml_tuned,
    exempt="size-dependent dispatch to other registered entries",
)
