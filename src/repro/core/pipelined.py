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

Phases 1, 2 and 4 are plain DPML — literally: the named phase
generators from :mod:`repro.core.dpml` run over the same
:class:`~repro.core.dpml.PhaseState`; only the exchange differs
(:func:`phase_exchange_pipelined`).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import (
    DPML_PHASES,
    PhaseState,
    _phase_charges,
    _record,
    phase_copy_in,
    phase_copy_out,
    phase_reduce,
)
from repro.core.leaders import check_leader_count, get_leader_plan
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat

__all__ = [
    "DPML_PIPELINED",
    "allreduce_dpml_pipelined",
    "phase_exchange_pipelined",
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


def phase_exchange_pipelined(
    st: PhaseState,
    reduced,
    inter: str,
    pipeline_unit: int,
    max_k: int,
) -> Generator:
    """Phase 3, pipelined: k outstanding sub-allreduces + waitall."""
    j = st.plan.leader_index
    k = pipeline_depth(reduced.nbytes, pipeline_unit, max_k)
    subs = reduced.split(k)
    requests = [
        st.plan.leader_comm.iallreduce(sub, st.op, algorithm=inter)
        for sub in subs
    ]
    results = yield from st.plan.leader_comm.waitall(requests)
    st.region.put(
        (st.ctx, st.tag_base, "out", j),
        concat(results),
        span=((st.ctx, st.tag_base, "out"), *st.bounds[j], st.total),
    )


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
    machine = comm.machine
    sim = comm.sim
    probe = comm.runtime.phase_probe
    plan = yield from get_leader_plan(comm, leaders)
    inter = inter_algorithm or "flat_auto"

    if plan.n_nodes == comm.size:
        # Purely inter-node: pipeline the whole vector directly.
        start = sim.now
        k = pipeline_depth(payload.nbytes, pipeline_unit, max_k)
        subs = payload.split(k)
        requests = [comm.iallreduce(sub, op, algorithm=inter) for sub in subs]
        results = yield from comm.waitall(requests)
        _record(probe, "dpml_pipelined", "exchange", start, sim.now)
        return concat(results)

    st = PhaseState(comm, payload, op, tag_base, plan)

    start = sim.now
    yield from phase_copy_in(st)
    _record(probe, "dpml_pipelined", "copy_in", start, sim.now)

    if plan.is_leader:
        start = sim.now
        reduced = yield from phase_reduce(st)
        _record(probe, "dpml_pipelined", "reduce", start, sim.now)

        start = sim.now
        yield from phase_exchange_pipelined(
            st, reduced, inter, pipeline_unit, max_k
        )
        _record(probe, "dpml_pipelined", "exchange", start, sim.now)

    yield from machine.flag_sync()
    start = sim.now
    result = yield from phase_copy_out(st)
    if plan.is_leader:
        _record(probe, "dpml_pipelined", "copy_out", start, sim.now)
    return result


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
