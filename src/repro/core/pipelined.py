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
pipeline_unit)`` capped at ``max_k``.

Everything else is plain DPML: :func:`~repro.core.dpml.run_dpml` runs
the four phases and this module passes only the pipelined phase-3
allreduce.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.dpml import DPML_PHASES, _phase_charges, run_dpml
from repro.core.leaders import check_leader_count
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat

__all__ = [
    "DPML_PIPELINED",
    "allreduce_dpml_pipelined",
    "pipeline_depth",
]

#: Default target size of one pipelined sub-partition (bytes).
DEFAULT_PIPELINE_UNIT = 16384
#: Safety cap on the number of outstanding sub-allreduces.
DEFAULT_MAX_K = 16


def pipeline_depth(
    partition_bytes: int,
    pipeline_unit: int = DEFAULT_PIPELINE_UNIT,
    max_k: int = DEFAULT_MAX_K,
) -> int:
    """Number of sub-partitions ``k`` for one leader's partition."""
    if partition_bytes <= 0:
        return 1
    k = -(-partition_bytes // pipeline_unit)
    return max(1, min(k, max_k))


def _pipelined_allreduce(
    algorithm: Optional[str], pipeline_unit: int, max_k: int
) -> Callable:
    """Phase 3 as k outstanding sub-allreduces and a waitall."""
    name = algorithm or "flat_auto"

    def inter(comm, payload: Payload, op: ReduceOp) -> Generator:
        k = pipeline_depth(payload.nbytes, pipeline_unit, max_k)
        requests = [
            comm.iallreduce(sub, op, algorithm=name) for sub in payload.split(k)
        ]
        results = yield from comm.waitall(requests)
        return concat(results)

    return inter


def allreduce_dpml_pipelined(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
    pipeline_unit: int = DEFAULT_PIPELINE_UNIT,
    max_k: int = DEFAULT_MAX_K,
) -> Generator:
    """DPML with k-way pipelined non-blocking inter-node allreduces."""
    return run_dpml(
        comm, payload, op, tag_base, leaders, "dpml_pipelined",
        _pipelined_allreduce(inter_algorithm, pipeline_unit, max_k),
    )


def _charge_dpml_pipelined(
    model,
    *,
    p,
    h,
    n,
    leaders=4,
    pipeline_unit=DEFAULT_PIPELINE_UNIT,
    max_k=DEFAULT_MAX_K,
    **_kw,
):
    """Eq. 7 with the Eq. 5 exchange at the implementation's depth."""
    check_leader_count(leaders)
    if h >= p:
        k = pipeline_depth(n, pipeline_unit, max_k)
        return (("exchange", model.t_comm_pipelined(p, 1, n, k)),)
    l = min(leaders, p // h)
    # One leader carries ceil(n / l) bytes into phase 3 (Payload.split
    # gives the first partitions the extra elements).
    k = pipeline_depth(-(-n // l), pipeline_unit, max_k)
    return _phase_charges(model, p, h, l, n, model.t_comm_pipelined(h, l, n, k))


DPML_PIPELINED = AllreduceAlgorithm(
    "dpml_pipelined", allreduce_dpml_pipelined,
    phases=DPML_PHASES, charge=_charge_dpml_pipelined,
)
