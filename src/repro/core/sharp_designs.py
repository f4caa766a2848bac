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

The gather, combine and read-back are DPML's phases 1, 2 and 4 at
``l = 1`` over the gather group: :func:`sharp_work` declares them and
:func:`~repro.core.dpml.run_dpml` runs them, with the switch operation
as phase 3.  The group is read from the communicator's
:class:`~repro.mpi.layout.Layout` by
:func:`~repro.core.leaders.leader_plan`, grouped by node or by socket,
without a ``comm.split``; each rank caches its plan in ``comm.cache``.
"""

from __future__ import annotations

import functools
from typing import Generator

from repro.core.dpml import NodeStep, NodeWork, run_dpml
from repro.core.leaders import leader_plan
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, reduce_payloads

__all__ = [
    "SHARP_NODE_LEADER",
    "SHARP_SOCKET_LEADER",
    "allreduce_sharp_node_leader",
    "allreduce_sharp_socket_leader",
    "sharp_work",
]


def sharp_work(plan) -> NodeWork:
    """A non-leader deposits its vector with its group's leader and,
    after the flag hop, reads the result back, each with one copy (over
    the socket link if the leader sits on the other socket).  The
    leader combines its own vector in place with the ``g - 1`` deposits
    in group order, and publishes and reads the switch's result with no
    copy.  Keys name the group by its leader's socket, so the socket
    groups of one node never collide."""
    group = plan.layout.socket[plan.node_ranks[0]]
    return _sharp_work(group, plan.ppn, plan.local_index, plan.cross[0])


@functools.lru_cache(maxsize=4096)
def _sharp_work(group: int, g: int, index: int, cross: bool) -> NodeWork:
    # Shared by the ranks at the same place in every group of a layout,
    # and by every call: the lists are a function of these four alone.
    out = ("out", 0, group)
    if index:
        return NodeWork(
            (NodeStep(0, ("in", 0, group, index), cross),),
            (), (), (NodeStep(0, out, cross, readers=g),),
        )
    reduce = ()
    if g > 1:
        sources = (None, *[("in", 0, group, i) for i in range(1, g)])
        reduce = (NodeStep(0, sources=sources),)
    return NodeWork((), reduce, (NodeStep(0, out),), (NodeStep(0, out, readers=g),))


def _switch(comm, tree, plan, tag_base, _leader_comm, partial, op) -> Generator:
    """Phase 3 on a leader, with no leader communicator: inject,
    aggregate in-network, receive.  The aggregation starts at the
    adjacent leaf switch, so the link to it costs one tree hop, not a
    full end-to-end wire traversal."""
    machine, me = comm.machine, comm.world_rank
    nbytes = partial.nbytes
    yield machine.engine[me].submit(machine.injection_service(nbytes))
    for chunk in machine.nic_chunks(nbytes):
        yield machine.nic_tx[plan.node].submit(machine.nic_service(chunk))
    yield comm.sim.timeout(tree.config.hop_latency)

    gate_key = (comm.group.context, tag_base, "sharp-op")
    event, is_last, items = comm.runtime.gate_exchange(
        gate_key, plan.n_nodes, partial
    )
    if is_last:
        comm.sim.process(
            _coordinator(tree, plan.n_nodes, nbytes, items, op, event),
            name="sharp-coordinator",
        )
    result = yield event

    # Result flows back down: leaf-switch link + RX + receive overhead.
    yield comm.sim.timeout(tree.config.hop_latency)
    for chunk in machine.nic_chunks(nbytes):
        yield machine.nic_rx[plan.node].submit(machine.nic_service(chunk))
    yield machine.engine[me].submit(machine.reception_service(nbytes))
    return result


def _coordinator(tree, leaves, nbytes, items, op, event) -> Generator:
    """Runs the in-network reduction once all leaders' data arrived.

    The combine itself happens in the switch ALUs — the host charges no
    compute time; the duration comes from the tree model.
    """
    yield from tree.operation(leaves, nbytes)
    event.succeed(reduce_payloads(items, op))


def _sharp_allreduce(comm, payload, op, tag_base, per_socket) -> Generator:
    tree = comm.machine.require_sharp()
    key = ("sharp-plan", per_socket)
    plan = comm.cache.get(key)
    if plan is None:
        plan = comm.cache[key] = leader_plan(comm.layout, comm.rank, 1, per_socket)
    return run_dpml(
        comm, payload, op, tag_base, plan, None,
        functools.partial(_switch, comm, tree, plan, tag_base),
        sharp_work,
    )


def allreduce_sharp_node_leader(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """SHArP allreduce with one leader per node."""
    return _sharp_allreduce(comm, payload, op, tag_base, per_socket=False)


def allreduce_sharp_socket_leader(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """SHArP allreduce with one leader per socket (HCA/NUMA aware)."""
    return _sharp_allreduce(comm, payload, op, tag_base, per_socket=True)


_SHARP_EXEMPT = "switch-offload timing is not host alpha-beta"

SHARP_NODE_LEADER = AllreduceAlgorithm(
    "sharp_node_leader", allreduce_sharp_node_leader, exempt=_SHARP_EXEMPT
)
SHARP_SOCKET_LEADER = AllreduceAlgorithm(
    "sharp_socket_leader", allreduce_sharp_socket_leader, exempt=_SHARP_EXEMPT
)
