"""SHArP-based allreduce designs (paper Section 4.3).

Both designs offload the *inter-node* reduction to the switch
aggregation tree; they differ in how many processes per node talk to
the fabric:

* **Node-level leader** — one leader per node gathers all local data
  through shared memory (paying the inter-socket hop for the remote
  socket's ranks), reduces it, and participates in a single SHArP
  operation with the other nodes' leaders.
* **Socket-level leader** — one leader per socket gathers only its own
  socket's ranks (no inter-socket traffic in the gather/broadcast
  phases) and all ``sockets × nodes`` leaders join the SHArP operation.

Both keep the number of switch-side participants small because SHArP
supports only a few outstanding operations
(:class:`~repro.machine.sharp.SharpTree` enforces this), which is the
paper's argument for not using all DPML leaders here.

The gather groups are not scanned here: a node group is
``comm.layout.node_ranks[node]`` and a socket group is
``comm.layout.socket_ranks[(node, socket)]``, read from the
communicator's :class:`~repro.mpi.layout.Layout`, which is built once
per group and shared by every rank's view.  Each rank caches only its
own plan (its group, leader and socket crossing) in ``comm.cache``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, reduce_payloads

__all__ = [
    "SHARP_NODE_LEADER",
    "SHARP_SOCKET_LEADER",
    "allreduce_sharp_node_leader",
    "allreduce_sharp_socket_leader",
]


@dataclass
class _SharpPlan:
    """Gather-group layout for one rank (cached per communicator)."""

    group_ranks: tuple[int, ...]  #: comm ranks whose data my leader gathers (incl. me)
    my_index: int  #: my position within group_ranks
    leader_rank: int  #: comm rank of my leader
    is_leader: bool
    n_leaders: int  #: total leaders across the communicator
    node: int
    cross: bool  #: whether my leader sits on another socket


def _build_plan(comm, per_socket: bool) -> _SharpPlan:
    """This rank's gather group, read from the communicator's layout."""
    layout = comm.layout
    machine = comm.machine
    node = layout.node[comm.rank]
    socket = machine.loc(comm.world_rank).socket
    if per_socket:
        groups = layout.socket_ranks
        group_ranks = groups[(node, socket)]
    else:
        groups = layout.node_ranks
        group_ranks = groups[node]
    leader_rank = group_ranks[0]
    return _SharpPlan(
        group_ranks=group_ranks,
        my_index=group_ranks.index(comm.rank),
        leader_rank=leader_rank,
        is_leader=comm.rank == leader_rank,
        n_leaders=len(groups),
        node=node,
        cross=machine.loc(comm.translate(leader_rank)).socket != socket,
    )


def _sharp_allreduce(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int,
    per_socket: bool,
) -> Generator:
    machine = comm.machine
    tree = machine.require_sharp()
    cache_key = ("sharp-plan", per_socket)
    plan = comm.cache.get(cache_key)
    if plan is None:
        plan = _build_plan(comm, per_socket)
        comm.cache[cache_key] = plan

    me = comm.world_rank
    region = comm.runtime.shm_region(plan.node)
    ctx = comm.group.context
    nbytes = payload.nbytes
    group_size = len(plan.group_ranks)

    # --- Gather: deposit the full vector at the leader.
    if not plan.is_leader:
        yield machine.shm_copy(me, nbytes, cross_socket=plan.cross)
        region.put((ctx, tag_base, "gather", plan.leader_rank, plan.my_index), payload)
    else:
        gathered = [payload]
        for i in range(1, group_size):
            part = yield region.take((ctx, tag_base, "gather", plan.leader_rank, i))
            gathered.append(part)
        if group_size > 1:
            yield machine.gather_sync(me, group_size)
            yield machine.compute(me, nbytes, combines=group_size - 1)
        partial = reduce_payloads(gathered, op)

        # --- Switch phase: inject, aggregate in-network, receive.  The
        # aggregation starts at the adjacent leaf switch, so the link to
        # it costs one tree hop, not a full end-to-end wire traversal.
        yield machine.engine[me].submit(machine.injection_service(nbytes))
        for chunk in machine.nic_chunks(nbytes):
            yield machine.nic_tx[plan.node].submit(machine.nic_service(chunk))
        yield comm.sim.timeout(tree.config.hop_latency)

        gate_key = (ctx, tag_base, "sharp-op")
        event, is_last, items = comm.runtime.gate_exchange(
            gate_key, plan.n_leaders, partial
        )
        if is_last:
            comm.sim.process(
                _coordinator(comm, tree, plan.n_leaders, nbytes, items, op, event),
                name="sharp-coordinator",
            )
        result = yield event

        # Result flows back down: leaf-switch link + RX + receive overhead.
        yield comm.sim.timeout(tree.config.hop_latency)
        for chunk in machine.nic_chunks(nbytes):
            yield machine.nic_rx[plan.node].submit(machine.nic_service(chunk))
        yield machine.engine[me].submit(machine.reception_service(nbytes))

        region.put((ctx, tag_base, "bcast", plan.leader_rank), result)

    # --- Broadcast: every group member copies the result out.
    yield machine.flag_sync()
    result = yield region.read(
        (ctx, tag_base, "bcast", plan.leader_rank), readers=group_size
    )
    if not plan.is_leader:
        yield machine.shm_copy(me, nbytes, cross_socket=plan.cross)
    return result


def _coordinator(comm, tree, leaves, nbytes, items, op, event) -> Generator:
    """Runs the in-network reduction once all leaders' data arrived.

    The combine itself happens in the switch ALUs — the host charges no
    compute time; the duration comes from the tree model.
    """
    yield from tree.operation(leaves, nbytes)
    event.succeed(reduce_payloads(items, op))


def allreduce_sharp_node_leader(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """SHArP allreduce with one leader per node."""
    result = yield from _sharp_allreduce(comm, payload, op, tag_base, per_socket=False)
    return result


def allreduce_sharp_socket_leader(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """SHArP allreduce with one leader per socket (HCA/NUMA aware)."""
    result = yield from _sharp_allreduce(comm, payload, op, tag_base, per_socket=True)
    return result


_SHARP_EXEMPT = "switch-offload timing is not host alpha-beta"

SHARP_NODE_LEADER = AllreduceAlgorithm(
    "sharp_node_leader", allreduce_sharp_node_leader, exempt=_SHARP_EXEMPT
)
SHARP_SOCKET_LEADER = AllreduceAlgorithm(
    "sharp_socket_leader", allreduce_sharp_socket_leader, exempt=_SHARP_EXEMPT
)
