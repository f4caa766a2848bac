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
   concurrent inter-node collectives of ``n / l`` bytes), then
   publishes the result in shared memory.
4. **Local copy to individual processes** — every rank copies the ``l``
   fully reduced partitions back out of shared memory and reassembles
   the result.

This module is the one home of these phases.  :func:`run_dpml` drives
them over one :class:`PhaseState` per call; the pipelined and
multilevel designs pass it only their phase 3 or phases 1-2, and the
rooted reduce and bcast call the phase generators around their own
phase 3.  The driver records per-phase simulated-time windows into the
runtime's
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

import functools
from typing import Callable, Generator, Optional

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
    "deposit",
    "flat_allreduce",
    "gather_combine",
    "phase_copy_in",
    "phase_copy_out",
    "phase_reduce",
    "publish",
    "run_dpml",
]

#: The four DPML phases of paper Figure 2, in execution order.
DPML_PHASES = ("copy_in", "reduce", "exchange", "copy_out")


class PhaseState:
    """Everything the phase generators share for one collective call.

    ``payload`` is ``None`` on broadcast non-roots; ranks with data also
    get the partition ``bounds`` and ``total`` count for span checks.
    ``cross[j]`` says whether leader ``j`` sits on another socket.
    """

    __slots__ = (
        "comm",
        "machine",
        "plan",
        "region",
        "ctx",
        "tag_base",
        "op",
        "payload",
        "bounds",
        "total",
        "cross",
        "me",
    )

    def __init__(self, comm, payload: Optional[Payload], op, tag_base: int, plan):
        self.comm = comm
        self.machine = machine = comm.machine
        self.plan = plan
        self.region = comm.runtime.shm_region(plan.node)
        self.ctx = comm.group.context
        self.tag_base = tag_base
        self.op = op
        self.payload = payload
        if payload is None:
            self.bounds = self.total = None
        else:
            self.bounds = split_bounds(payload.count, plan.leaders)
            self.total = payload.count
        self.me = comm.world_rank
        socket = machine.loc(self.me).socket
        self.cross = tuple([
            machine.loc(comm.translate(rank)).socket != socket
            for rank in plan.node_ranks[: plan.leaders]
        ])


def deposit(st: PhaseState, base: tuple, index, cross) -> Generator:
    """Copy partition ``j`` to key ``(*base, j, index)``, cross-socket
    if ``cross[j]``.

    Span annotations in the depositor's frame ``(*base, index)`` let the
    sanitizer check that its l partitions tile the vector without gaps
    or overlap.
    """
    shm_copy, put = st.machine.shm_copy, st.region.put
    me, bounds, total = st.me, st.bounds, st.total
    frame = (*base, index)
    for j, part in enumerate(st.payload.split(st.plan.leaders)):
        yield shm_copy(me, part.nbytes, cross_socket=cross[j])
        put((*base, j, index), part, span=(frame, *bounds[j], total))


def phase_copy_in(st: PhaseState) -> Generator:
    """Phase 1: deposit each partition into its leader's staging area."""
    return deposit(st, (st.ctx, st.tag_base, "in"), st.plan.local_index, st.cross)


def gather_combine(st: PhaseState, base: tuple, sources) -> Generator:
    """Take the deposit under ``(*base, s)`` of each ``s`` in
    ``sources`` and combine them into one."""
    machine, region = st.machine, st.region
    gathered = []
    for source in sources:
        part = yield region.take((*base, source))
        gathered.append(part)
    yield machine.gather_sync(st.me, len(gathered))
    if len(gathered) > 1:
        yield machine.compute(
            st.me, gathered[0].nbytes, combines=len(gathered) - 1
        )
    return reduce_payloads(gathered, st.op)


def phase_reduce(st: PhaseState) -> Generator:
    """Phase 2 (leaders only): gather the ppn deposits and combine them."""
    base = (st.ctx, st.tag_base, "in", st.plan.leader_index)
    return gather_combine(st, base, range(st.plan.ppn))


def publish(st: PhaseState, result_j) -> None:
    """End of phase 3: leader ``j`` publishes partition ``j``.

    The leaders' partitions share one frame: together they must tile
    the result vector, so a leader publishing the wrong slice (or a
    wrong-length sub-collective result) trips the sanitizer.
    """
    j = st.plan.leader_index
    span = None
    if st.bounds is not None:
        span = ((st.ctx, st.tag_base, "out"), *st.bounds[j], st.total)
    st.region.put((st.ctx, st.tag_base, "out", j), result_j, span=span)


def phase_copy_out(st: PhaseState, readers: Optional[int] = None) -> Generator:
    """Phase 4: copy every partition back out and reassemble (each is
    read by ``readers`` ranks, by default the whole node)."""
    shm_copy, region = st.machine.shm_copy, st.region
    readers = readers or st.plan.ppn
    me, cross, ctx, tag_base = st.me, st.cross, st.ctx, st.tag_base
    outs = []
    for j in range(st.plan.leaders):
        result_j = yield region.read((ctx, tag_base, "out", j), readers=readers)
        yield shm_copy(me, result_j.nbytes, cross_socket=cross[j])
        outs.append(result_j)
    # Reassembly through the region memo: the co-located readers share
    # one materialization of the result vector.
    return region.concat(outs)


def _record(probe, algorithm: str, phase: str, start: float, end: float) -> None:
    if probe is not None:
        probe.record(algorithm, phase, start, end)


@functools.lru_cache(maxsize=None)
def flat_allreduce(algorithm: Optional[str] = None) -> Callable:
    """Phase 3 as one blocking allreduce of the registry ``algorithm``
    (cached: one function per name, not one per rank and call).

    ``None`` picks the flat selector by message size; it must be *flat*,
    as the general selector could pick a hierarchical scheme and recurse
    forever.
    """
    name = algorithm or "flat_auto"
    return lambda comm, payload, op: comm.allreduce(payload, op, algorithm=name)


def run_dpml(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int,
    leaders: int,
    name: str,
    inter: Callable,
    copy_in: Callable = phase_copy_in,
    reduce: Callable = phase_reduce,
) -> Generator:
    """Run phases 1-4 with ``leaders`` leaders per node.

    ``inter(comm, payload, op)`` is phase 3's inter-node allreduce;
    ``copy_in`` and ``reduce`` replace phases 1 and 2.  Every phase
    window lands in the runtime's phase probe under ``name``.
    """
    sim = comm.sim
    probe = comm.runtime.phase_probe
    plan = yield from get_leader_plan(comm, leaders)

    if plan.n_nodes == comm.size:
        # One rank per node: no intra-node phases; phase 3 runs on the
        # communicator itself (every rank is its own leader 0).
        start = sim.now
        result = yield from inter(comm, payload, op)
        _record(probe, name, "exchange", start, sim.now)
        return result

    st = PhaseState(comm, payload, op, tag_base, plan)

    start = sim.now
    yield from copy_in(st)
    _record(probe, name, "copy_in", start, sim.now)

    if plan.is_leader:
        start = sim.now
        reduced = yield from reduce(st)
        _record(probe, name, "reduce", start, sim.now)

        start = sim.now
        result_j = yield from inter(plan.leader_comm, reduced, op)
        publish(st, result_j)
        _record(probe, name, "exchange", start, sim.now)

    yield comm.machine.flag_sync()
    start = sim.now
    result = yield from phase_copy_out(st)
    if plan.is_leader:
        _record(probe, name, "copy_out", start, sim.now)
    return result


def allreduce_dpml(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """DPML allreduce with ``leaders`` leaders per node.

    ``inter_algorithm`` names the registry algorithm for phase 3
    (``None`` lets the library selector choose by message size).
    """
    return run_dpml(
        comm, payload, op, tag_base, leaders, "dpml",
        flat_allreduce(inter_algorithm),
    )


def allreduce_hierarchical(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """The traditional single-leader hierarchical allreduce (DPML, l=1)."""
    return run_dpml(
        comm, payload, op, tag_base, 1, "hierarchical",
        flat_allreduce(inter_algorithm),
    )


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
