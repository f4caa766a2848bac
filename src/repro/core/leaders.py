"""Leader layout planning shared by the DPML and SHArP designs.

A :class:`LeaderPlan` describes, for one communicator on one machine,
which local ranks act as leaders on each node and provides the
inter-node leader communicators (leader ``j`` of every node forms one
communicator).  Plans are built collectively (they call ``comm.split``)
and cached on the communicator, so repeated collectives pay nothing.

Node membership is not scanned here: it comes from the communicator's
:class:`~repro.mpi.layout.Layout` (``comm.layout``), which is built
once per group and shared by every rank's view.  A plan holds only the
per-rank part — this rank's leader index and leader communicator — and
``node_ranks`` is the layout's own tuple.

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
    node_ranks: tuple[int, ...]  #: comm ranks on this node, local order (shared)
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

    layout = comm.layout
    # Every node must field a leader for every partition, otherwise the
    # inter-node allreduce for that partition would miss contributions.
    eff_leaders = min(leaders, layout.min_ppn)

    my_node = layout.node[comm.rank]
    node_ranks = layout.node_ranks[my_node]
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
        n_nodes=len(layout.nodes),
    )
    comm.cache[("leader-plan", leaders)] = plan
    return plan
