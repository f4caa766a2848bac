"""DPML-Pipelined (paper Section 4.2).

For very large messages on message-rate-bound fabrics (Omni-Path), the
``n / l`` bytes a leader carries into phase 3 can still sit in the
bandwidth-bound Zone C.  DPML-Pipelined splits each leader's partially
reduced partition into ``k`` sub-partitions and issues ``k``
*non-blocking* inter-node allreduces followed by a waitall, so the
per-step compute and communication of consecutive sub-partitions
overlap (the paper's Equation 5 gives the serialized cost; the benefit
comes from the overlap the non-blocking calls expose).

``k`` is "proportional to the message size and inversely related to the
number of leaders": we take ``k = ceil(partition_bytes /
pipeline_unit)`` capped at :data:`MAX_K`, and phase 3 is one segment
pipeline (:func:`~repro.mpi.collectives.base.segment_count` and
:func:`~repro.mpi.collectives.base.run_segments`).

Everything else is plain DPML: :func:`~repro.core.dpml.run_dpml` runs
DPML's node steps and this module passes only the pipelined phase-3
allreduce.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.dpml import DPML_PHASES, _phase_charges, run_dpml
from repro.core.leaders import check_leader_count
from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import run_segments, segment_count
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "DPML_PIPELINED",
    "allreduce_dpml_pipelined",
]

#: Default target size of one pipelined sub-partition (bytes).
DEFAULT_PIPELINE_UNIT = 16384
#: Cap on the number of outstanding sub-allreduces.
MAX_K = 16


def _pipelined_allreduce(algorithm: Optional[str], pipeline_unit: int) -> Callable:
    """Phase 3 as k outstanding sub-allreduces and a waitall."""
    name = algorithm or "flat_auto"

    def inter(comm, payload: Payload, op: ReduceOp) -> Generator:
        k = segment_count(payload.nbytes, pipeline_unit, MAX_K)
        result = yield from run_segments(
            comm, payload.split(k),
            lambda sub: comm.iallreduce(sub, op, algorithm=name),
        )
        return result

    return inter


def allreduce_dpml_pipelined(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
    pipeline_unit: int = DEFAULT_PIPELINE_UNIT,
) -> Generator:
    """DPML with k-way pipelined non-blocking inter-node allreduces."""
    return run_dpml(
        comm, payload, op, tag_base, leaders, "dpml_pipelined",
        _pipelined_allreduce(inter_algorithm, pipeline_unit),
    )


def _charge_dpml_pipelined(
    model, *, p, h, n, leaders=4, pipeline_unit=DEFAULT_PIPELINE_UNIT, **_kw
):
    """Eq. 7 with the Eq. 5 exchange at the implementation's depth."""
    check_leader_count(leaders)
    if h >= p:
        k = segment_count(n, pipeline_unit, MAX_K)
        return (("exchange", model.t_comm_pipelined(p, 1, n, k)),)
    l = min(leaders, p // h)
    # One leader carries ceil(n / l) bytes into phase 3 (Payload.split
    # gives the first partitions the extra elements).
    k = segment_count(-(-n // l), pipeline_unit, MAX_K)
    return _phase_charges(model, p, h, l, n, model.t_comm_pipelined(h, l, n, k))


DPML_PIPELINED = AllreduceAlgorithm(
    "dpml_pipelined", allreduce_dpml_pipelined,
    phases=DPML_PHASES, charge=_charge_dpml_pipelined,
)
