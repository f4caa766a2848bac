"""Leader layout planning shared by the DPML and SHArP designs.

A :class:`LeaderPlan` describes, for one communicator on one machine,
which local ranks act as leaders on each node and provides the
inter-node leader communicators (leader ``j`` of every node forms one
communicator).  Plans are built collectively (they call ``comm.split``)
and cached on the communicator, so repeated collectives pay nothing.

Leader choice is socket-aware: local ranks are already laid out
round-robin across sockets by the default ``"scatter"`` placement, so
taking the first ``l`` local ranks spreads leaders over sockets, which
balances both the reduction compute and the memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ConfigError

__all__ = ["LeaderPlan", "check_leader_count", "get_leader_plan"]


@dataclass
class LeaderPlan:
    """Leader layout of one rank's view of a communicator."""

    leaders: int  #: effective leader count l (clamped to min ppn)
    node: int  #: this rank's node id
    node_ranks: list[int]  #: comm ranks on this node, local order
    local_index: int  #: this rank's index within node_ranks
    leader_index: Optional[int]  #: j if this rank is leader j, else None
    leader_comm: Optional[object]  #: comm of leader j across nodes (leaders only)
    n_nodes: int  #: number of nodes under the communicator

    @property
    def is_leader(self) -> bool:
        """Whether this rank leads a partition."""
        return self.leader_index is not None

    @property
    def ppn(self) -> int:
        """Local ranks on this node."""
        return len(self.node_ranks)


def _nodes_of(comm) -> dict[int, list[int]]:
    """Node id → comm ranks, in placement order."""
    machine = comm.machine
    by_node: dict[int, list[int]] = {}
    for local in range(comm.size):
        node = machine.node_of(comm.translate(local))
        by_node.setdefault(node, []).append(local)
    return by_node


def check_leader_count(leaders: int) -> None:
    """Reject a leader count below one with :class:`ConfigError`."""
    if leaders < 1:
        raise ConfigError(f"leader count must be >= 1, got {leaders}")


def get_leader_plan(comm, leaders: int) -> Generator:
    """Build (or fetch from cache) the leader plan for ``leaders``.

    Collective over ``comm`` — every rank must call it with the same
    ``leaders`` value, in the same collective order.
    """
    check_leader_count(leaders)
    cached = comm.cache.get(("leader-plan", leaders))
    if cached is not None:
        return cached

    by_node = _nodes_of(comm)
    min_ppn = min(len(ranks) for ranks in by_node.values())
    # Every node must field a leader for every partition, otherwise the
    # inter-node allreduce for that partition would miss contributions.
    eff_leaders = min(leaders, min_ppn)

    machine = comm.machine
    my_node = machine.node_of(comm.world_rank)
    node_ranks = by_node[my_node]
    local_index = node_ranks.index(comm.rank)
    leader_index = local_index if local_index < eff_leaders else None

    # One split creates all l leader communicators at once: leader j on
    # every node passes color j; everyone else passes MPI_UNDEFINED.
    color = leader_index if leader_index is not None else -1
    leader_comm = yield from comm.split(color, key=my_node)

    plan = LeaderPlan(
        leaders=eff_leaders,
        node=my_node,
        node_ranks=node_ranks,
        local_index=local_index,
        leader_index=leader_index,
        leader_comm=leader_comm,
        n_nodes=len(by_node),
    )
    comm.cache[("leader-plan", leaders)] = plan
    return plan
