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

Phases 1, 2 and 4 and the publish are data: one rank's
:class:`NodeWork` is a few :class:`NodeStep` lists, built from its
:class:`~repro.core.leaders.LeaderPlan` (:func:`dpml_work` for the
figure; the multilevel variant, the rooted reduce and bcast and the
SHArP designs declare their own).  A step names its partition, shm
key, cross-socket flag, combine sources and read fan-out; its bytes are
the partition's ``split_bounds`` share.  :func:`run_dpml` is the one
runner: it executes every design's lists around that design's phase 3
(the switch operation, for SHArP).  It records
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

import functools
from typing import Callable, Generator, NamedTuple, Optional

from repro.core.leaders import LeaderPlan, check_leader_count, get_leader_plan
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, reduce_payloads, split_bounds

__all__ = [
    "DPML",
    "DPML_PHASES",
    "FLAG",
    "HIERARCHICAL",
    "NodeStep",
    "NodeWork",
    "allreduce_dpml",
    "allreduce_hierarchical",
    "dpml_work",
    "flat_allreduce",
    "run_dpml",
]

#: The four DPML phases of paper Figure 2, in execution order.
DPML_PHASES = ("copy_in", "reduce", "exchange", "copy_out")


class NodeStep(NamedTuple):
    """One shared-memory step of one rank, on partition ``part`` of the
    vector (``split_bounds(count, l)[part]``).

    With ``sources``, the rank first takes the deposit under each source
    key (``None``: its own partition, in place) and combines them into
    the partition.  With a ``key``, it then either writes the partition
    there (``readers == 0``) or reads it from there, a value ``readers``
    ranks read in all.  ``cross`` is the copy that goes with the write
    (before it) or the read (after it): over the socket link if true,
    none if ``None``.  Keys are ``(stage, part, *who)`` under the call's
    context and tag base; a write's span frame is its key without the
    partition.  A step with no partition (:data:`FLAG`) is one flag
    post/wait hop.
    """

    part: Optional[int]
    key: Optional[tuple] = None
    cross: Optional[bool] = None
    sources: tuple = ()
    readers: int = 0


FLAG = NodeStep(None)


class NodeWork(NamedTuple):
    """One rank's node work around phase 3: ``copy_in`` runs on every
    rank, ``reduce`` and ``publish`` on leaders before and after their
    phase 3, and ``copy_out`` after one flag hop (the leaders'
    publishes); a rank with no ``copy_out`` returns ``None``."""

    copy_in: tuple
    reduce: tuple
    publish: tuple
    copy_out: tuple


def dpml_work(plan) -> NodeWork:
    """Figure 2: every rank deposits partition ``j`` with leader ``j``
    under ``("in", j, local index)``; leader ``j`` combines the ``ppn``
    deposits and publishes its phase-3 result under ``("out", j)`` with
    no copy (it already sits in shared memory); every rank reads the
    ``l`` results back."""
    return _dpml_work(plan.local_index, plan.ppn, plan.cross)


@functools.lru_cache(maxsize=4096)
def _dpml_work(index: int, ppn: int, cross: tuple) -> NodeWork:
    # Shared by the ranks at the same place on every node of a layout,
    # and by every call: the lists are a function of these three alone.
    reduce = publish = ()
    if index < len(cross):  # leader ``index``
        sources = tuple([("in", index, s) for s in range(ppn)])
        reduce = (NodeStep(index, sources=sources),)
        publish = (NodeStep(index, ("out", index)),)
    return NodeWork(
        tuple([NodeStep(i, ("in", i, index), c) for i, c in enumerate(cross)]),
        reduce, publish,
        tuple([NodeStep(i, ("out", i), c, readers=ppn) for i, c in enumerate(cross)]),
    )


def run_dpml(
    comm, payload: Optional[Payload], op, tag_base: int, plan,
    name: Optional[str], inter: Callable, work: Callable = dpml_work,
    flat: Optional[Callable] = None,
) -> Generator:
    """Run one design's node work around its phase 3 and return the
    reassembled vector (``None`` on a rank without a copy-out).

    ``plan`` is a DPML design's leader count, whose plan
    :func:`~repro.core.leaders.get_leader_plan` builds, or a ready
    :class:`~repro.core.leaders.LeaderPlan` (the SHArP designs' node or
    socket groups).  ``work(plan)`` is the rank's node work.  Phase 3
    is ``inter(leader_comm, part, op)`` on the leader's partition.  A
    DPML design has no node work with one rank per node:
    ``flat(comm, payload, op)`` (by default ``inter``) runs on the
    communicator itself.  ``payload`` is ``None`` on a rank with no
    input (broadcast non-roots).  With a ``name``, every phase window
    lands in the runtime's phase probe under it.
    """
    sim, machine = comm.sim, comm.machine
    probe = comm.runtime.phase_probe if name else None
    if not isinstance(plan, LeaderPlan):
        plan = yield from get_leader_plan(comm, plan)
        if plan.n_nodes == comm.size:
            start = sim.now
            result = yield from (flat or inter)(comm, payload, op)
            _record(probe, name, "exchange", start, sim.now)
            return result

    work = work(plan)
    region = comm.runtime.shm_region(plan.node)
    me, head = comm.world_rank, (comm.group.context, tag_base)
    l = plan.leaders
    parts = [None] * l if payload is None else payload.split(l)
    # A write names its partition's span, checked on sanitized runs only.
    bounds = None
    if payload is not None and sim.sanitizer is not None:
        bounds = split_bounds(payload.count, l)

    # What every list of steps runs against: a tuple, not a closure,
    # whose cells would be allocated again on every rank and call.
    ctx = (machine, region, head, me, parts, op, bounds)
    start = sim.now
    yield from _run_steps(work.copy_in, *ctx)
    _record(probe, name, "copy_in", start, sim.now)

    if plan.is_leader:
        start = sim.now
        yield from _run_steps(work.reduce, *ctx)
        _record(probe, name, "reduce", start, sim.now)

        start = sim.now
        j = plan.leader_index
        parts[j] = yield from inter(plan.leader_comm, parts[j], op)
        yield from _run_steps(work.publish, *ctx)
        _record(probe, name, "exchange", start, sim.now)

    if not work.copy_out:
        return None
    yield machine.flag_sync()
    start = sim.now
    yield from _run_steps(work.copy_out, *ctx)
    if plan.is_leader:
        _record(probe, name, "copy_out", start, sim.now)
    # Reassembly through the region memo: the co-located readers share
    # one materialization of the result vector.
    return region.concat(parts)


def _run_steps(steps, machine, region, head, me, parts, op, bounds) -> Generator:
    """Run one list of node steps; each step's result lands in ``parts``."""
    for part, key, cross, sources, readers in steps:
        if part is None:
            yield machine.flag_sync()
            continue
        if sources:
            gathered = []
            for source in sources:
                if source is None:
                    gathered.append(parts[part])
                    continue
                value = yield region.take(head + source)
                gathered.append(value)
            yield machine.gather_sync(me, len(gathered))
            if len(gathered) > 1:
                yield machine.compute(
                    me, gathered[0].nbytes, combines=len(gathered) - 1
                )
            parts[part] = reduce_payloads(gathered, op)
        if key is None:
            continue
        full = head + key
        if readers:
            parts[part] = yield region.read(full, readers=readers)
        if cross is not None:
            yield machine.shm_copy(me, parts[part].nbytes, cross_socket=cross)
        if not readers:
            # The span frame is shared by the partitions one writer
            # (a publish: the node's leaders) writes; they must tile.
            span = None
            if bounds is not None:
                frame = head + key[:1] + key[2:]
                span = (frame, *bounds[part], bounds[-1][1])
            region.put(full, parts[part], span=span)


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
