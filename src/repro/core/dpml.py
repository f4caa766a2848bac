"""Data Partitioning-based Multi-Leader allreduce (paper Section 4.1).

The four phases, exactly as in Figure 2:

1. **Local copy to shared memory** — every local rank splits its input
   into ``l`` partitions and copies partition ``j`` into leader ``j``'s
   shared-memory staging area (``l`` concurrent gathers).
2. **Intra-node reduction by leaders** — leader ``j`` combines the
   ``ppn`` deposited copies of partition ``j`` (``ppn - 1`` combines of
   ``n / l`` bytes, running in parallel across leaders).
3. **Inter-node allreduce by leaders** — leader ``j`` of every node
   runs a purely inter-node allreduce of its partially reduced
   partition with the leaders ``j`` of all other nodes (``l``
   concurrent inter-node collectives of ``n / l`` bytes).  The
   algorithm for this step is delegated to the registry (the paper
   uses whatever the library picks for the size).
4. **Local copy to individual processes** — every rank copies the ``l``
   fully reduced partitions back out of shared memory and reassembles
   the result.

Each phase is a named, independently-executable generator over a shared
:class:`PhaseState` — :mod:`repro.core.pipelined` reuses phases 1, 2
and 4 verbatim and swaps only the exchange — and the driver records
per-phase simulated-time windows into the runtime's
:class:`~repro.core.phases.PhaseProbe` (when one is attached) so the
hybrid-fidelity spot-check oracle can compare the exact phases against
their macro charges (Eqs. 2-6, priced by the :data:`DPML` record).
Phase windows are recorded on the ranks that *drive* the phase (all
ranks for the copy-in, leaders for the rest): non-leaders spend
phases 2-4 blocked on the leaders' publishes, so their wall-time
windows would say nothing about the phase itself.

Setting ``leaders=1`` recovers the classic MVAPICH2-style single-leader
hierarchical algorithm (registered as ``"hierarchical"``).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.leaders import check_leader_count, get_leader_plan
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, reduce_payloads, split_bounds

__all__ = [
    "DPML",
    "DPML_PHASES",
    "HIERARCHICAL",
    "PhaseState",
    "allreduce_dpml",
    "allreduce_hierarchical",
    "phase_copy_in",
    "phase_reduce",
    "phase_exchange",
    "phase_copy_out",
]

#: The four DPML phases of paper Figure 2, in execution order.
DPML_PHASES = ("copy_in", "reduce", "exchange", "copy_out")


class PhaseState:
    """Everything the DPML phase generators share for one collective."""

    __slots__ = (
        "comm",
        "machine",
        "plan",
        "region",
        "ctx",
        "tag_base",
        "op",
        "parts",
        "bounds",
        "total",
        "my_loc",
        "ppn",
        "ell",
        "me",
    )

    def __init__(self, comm, payload: Payload, op: ReduceOp, tag_base: int, plan):
        self.comm = comm
        self.machine = comm.machine
        self.plan = plan
        self.region = comm.runtime.shm_region(plan.node)
        self.ctx = comm.group.context
        self.tag_base = tag_base
        self.op = op
        self.parts = payload.split(plan.leaders)
        self.bounds = split_bounds(payload.count, plan.leaders)
        self.total = payload.count
        self.my_loc = self.machine.loc(comm.world_rank)
        self.ppn = plan.ppn
        self.ell = plan.leaders
        self.me = comm.world_rank


def phase_copy_in(st: PhaseState) -> Generator:
    """Phase 1: deposit each partition into its leader's staging area.

    Span annotations let the sanitizer check that the l partitions of
    one depositor tile the vector without gaps or overlap.
    """
    machine = st.machine
    for j in range(st.ell):
        leader_world = st.comm.translate(st.plan.node_ranks[j])
        cross = machine.loc(leader_world).socket != st.my_loc.socket
        yield machine.shm_copy(st.me, st.parts[j].nbytes, cross_socket=cross)
        st.region.put(
            (st.ctx, st.tag_base, "in", j, st.plan.local_index),
            st.parts[j],
            span=(
                (st.ctx, st.tag_base, "in", st.plan.local_index),
                *st.bounds[j],
                st.total,
            ),
        )


def phase_reduce(st: PhaseState) -> Generator:
    """Phase 2 (leaders only): gather the ppn deposits and combine them."""
    machine = st.machine
    j = st.plan.leader_index
    gathered = []
    for i in range(st.ppn):
        part = yield st.region.take((st.ctx, st.tag_base, "in", j, i))
        gathered.append(part)
    yield machine.gather_sync(st.me, st.ppn)
    part_bytes = gathered[0].nbytes
    if st.ppn > 1:
        yield machine.compute(st.me, part_bytes, combines=st.ppn - 1)
    return reduce_payloads(gathered, st.op)


def phase_exchange(st: PhaseState, reduced, inter: str) -> Generator:
    """Phase 3 (leaders only): inter-node allreduce among same-index
    leaders, then publish the fully reduced partition for the locals.

    The leaders' partitions share one frame: together they must tile
    the result vector, so a leader publishing the wrong slice (or a
    wrong-length sub-allreduce result) trips the sanitizer.
    """
    j = st.plan.leader_index
    result_j = yield from st.plan.leader_comm.allreduce(
        reduced, st.op, algorithm=inter
    )
    st.region.put(
        (st.ctx, st.tag_base, "out", j),
        result_j,
        span=((st.ctx, st.tag_base, "out"), *st.bounds[j], st.total),
    )


def phase_copy_out(st: PhaseState) -> Generator:
    """Phase 4: copy every partition back out and reassemble."""
    machine = st.machine
    outs = []
    for j in range(st.ell):
        leader_world = st.comm.translate(st.plan.node_ranks[j])
        cross = machine.loc(leader_world).socket != st.my_loc.socket
        result_j = yield st.region.read((st.ctx, st.tag_base, "out", j), readers=st.ppn)
        yield machine.shm_copy(st.me, result_j.nbytes, cross_socket=cross)
        outs.append(result_j)
    # Reassembly through the region memo: the ppn co-located readers
    # share one materialization of the result vector.
    return st.region.concat(outs)


def _record(probe, algorithm: str, phase: str, start: float, end: float) -> None:
    if probe is not None:
        probe.record(algorithm, phase, start, end)


def allreduce_dpml(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
    _probe_name: str = "dpml",
) -> Generator:
    """DPML allreduce with ``leaders`` leaders per node.

    ``inter_algorithm`` names the registry algorithm for phase 3
    (``None`` lets the library selector choose by message size).
    """
    machine = comm.machine
    sim = comm.sim
    probe = comm.runtime.phase_probe
    plan = yield from get_leader_plan(comm, leaders)

    if plan.n_nodes == comm.size:
        # One rank per node: no intra-node phases; this is a purely
        # inter-node allreduce (every rank is its own leader 0).  The
        # fallback must be a *flat* algorithm — the general selector
        # could pick a hierarchical scheme and recurse forever.
        start = sim.now
        result = yield from comm.allreduce(
            payload, op, algorithm=inter_algorithm or "flat_auto"
        )
        _record(probe, _probe_name, "exchange", start, sim.now)
        return result

    st = PhaseState(comm, payload, op, tag_base, plan)

    start = sim.now
    yield from phase_copy_in(st)
    _record(probe, _probe_name, "copy_in", start, sim.now)

    if plan.is_leader:
        start = sim.now
        reduced = yield from phase_reduce(st)
        _record(probe, _probe_name, "reduce", start, sim.now)

        start = sim.now
        yield from phase_exchange(st, reduced, inter_algorithm or "flat_auto")
        _record(probe, _probe_name, "exchange", start, sim.now)

    yield machine.flag_sync()
    start = sim.now
    result = yield from phase_copy_out(st)
    if plan.is_leader:
        _record(probe, _probe_name, "copy_out", start, sim.now)
    return result


def allreduce_hierarchical(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """The traditional single-leader hierarchical allreduce (DPML, l=1)."""
    result = yield from allreduce_dpml(
        comm, payload, op, tag_base=tag_base, leaders=1,
        inter_algorithm=inter_algorithm, _probe_name="hierarchical",
    )
    return result


def _phase_charges(model, p: int, h: int, l: int, n: int, exchange: float) -> tuple:
    """Eqs. 2, 3 and 6 around a phase-3 price for ``l`` leaders."""
    return (
        ("copy_in", model.t_copy(l, n)),
        ("reduce", model.t_comp(p, h, l, n)),
        ("exchange", exchange),
        ("copy_out", model.t_bcast(l, n)),
    )


def _charge_dpml(model, *, p, h, n, leaders=4, **_kw):
    check_leader_count(leaders)
    if h >= p:
        # One rank per node: the implementation falls back to a flat
        # inter-node allreduce; only the exchange phase exists.
        return (("exchange", model.t_recursive_doubling(p, n)),)
    l = min(leaders, p // h)
    return _phase_charges(model, p, h, l, n, model.t_comm(h, l, n))


def _charge_hierarchical(model, *, p, h, n, **_kw):
    return _charge_dpml(model, p=p, h=h, n=n, leaders=1)


DPML = AllreduceAlgorithm(
    "dpml", allreduce_dpml, phases=DPML_PHASES, charge=_charge_dpml
)
HIERARCHICAL = AllreduceAlgorithm(
    "hierarchical", allreduce_hierarchical,
    phases=DPML_PHASES, charge=_charge_hierarchical,
)
