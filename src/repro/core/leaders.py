"""Leader layout planning shared by the DPML and SHArP designs.

A :class:`LeaderPlan` describes, for one communicator on one machine,
which local ranks act as leaders on each node and provides the
inter-node leader communicators (leader ``j`` of every node forms one
communicator).  Plans are built collectively (they call ``comm.split``)
and cached on the communicator, so repeated collectives pay nothing.
The SHArP designs read a plan of one leader per node, or per socket,
straight from :func:`leader_plan`: their phase 3 runs through the
switch, so they need no leader communicator and no split.

Node membership is not scanned here: it comes from the communicator's
:class:`~repro.mpi.layout.Layout` (``comm.layout``), which is built
once per group and shared by every rank's view.  A plan holds only the
per-rank part — this rank's leader index, whether each leader sits on
another socket and its leader communicator — and ``node_ranks`` is the
layout's own tuple.  :func:`leader_plan` reads all but the communicator
from the layout alone, so the node work a plan declares can be read
without a simulation.

Leader choice is socket-aware: local ranks are already laid out
round-robin across sockets by the default ``"scatter"`` placement, so
taking the first ``l`` local ranks spreads leaders over sockets, which
balances both the reduction compute and the memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.mpi.layout import Layout

__all__ = ["LeaderPlan", "check_leader_count", "get_leader_plan", "leader_plan"]


@dataclass
class LeaderPlan:
    """Leader layout of one rank's view of a communicator.

    A plan grouped by socket (``leader_plan(..., per_socket=True)``)
    reads "node" as "socket" in ``node_ranks``, ``local_index``,
    ``ppn`` and ``n_nodes``; ``node`` stays the rank's node.
    """

    leaders: int  #: effective leader count l (clamped to min ppn)
    node: int  #: this rank's node id
    node_ranks: tuple[int, ...]  #: comm ranks on this node, local order (shared)
    local_index: int  #: this rank's index within node_ranks
    leader_index: Optional[int]  #: j if this rank is leader j, else None
    n_nodes: int  #: number of nodes (groups) under the communicator
    cross: tuple[bool, ...]  #: whether leader j sits on another socket
    layout: Layout = field(repr=False)  #: the communicator's layout
    leader_comm: Optional[object] = None  #: leader j's comm across nodes (leaders)

    @property
    def is_leader(self) -> bool:
        """Whether this rank leads a partition."""
        return self.leader_index is not None

    @property
    def ppn(self) -> int:
        """Local ranks on this node."""
        return len(self.node_ranks)

    @property
    def rank(self) -> int:
        """This rank (a comm rank)."""
        return self.node_ranks[self.local_index]


def check_leader_count(leaders: int) -> None:
    """Reject a leader count below one with :class:`ConfigError`."""
    if leaders < 1:
        raise ConfigError(f"leader count must be >= 1, got {leaders}")


def leader_plan(
    layout: Layout, rank: int, leaders: int, per_socket: bool = False
) -> LeaderPlan:
    """Comm rank ``rank``'s plan for ``leaders`` leaders over ``layout``,
    without its leader communicator (no simulation needed).  The ranks
    are grouped by node, or by socket if ``per_socket``."""
    check_leader_count(leaders)
    node = layout.node[rank]
    socket = layout.socket
    if per_socket:
        groups = layout.socket_ranks
        node_ranks = groups[(node, socket[rank])]
        min_ppn = min(map(len, groups.values()))
    else:
        groups = layout.node_ranks
        node_ranks = groups[node]
        min_ppn = layout.min_ppn
    # Every group must field a leader for every partition, otherwise the
    # inter-node allreduce for that partition would miss contributions.
    eff_leaders = min(leaders, min_ppn)
    local_index = node_ranks.index(rank)
    return LeaderPlan(
        leaders=eff_leaders,
        node=node,
        node_ranks=node_ranks,
        local_index=local_index,
        leader_index=local_index if local_index < eff_leaders else None,
        n_nodes=len(groups),
        cross=tuple([
            socket[leader] != socket[rank] for leader in node_ranks[:eff_leaders]
        ]),
        layout=layout,
    )


def get_leader_plan(comm, leaders: int) -> Generator:
    """Build (or fetch from cache) the leader plan for ``leaders``.

    Collective over ``comm`` — every rank must call it with the same
    ``leaders`` value, in the same collective order.
    """
    cached = comm.cache.get(("leader-plan", leaders))
    if cached is not None:
        return cached

    plan = leader_plan(comm.layout, comm.rank, leaders)
    # One split creates all l leader communicators at once: leader j on
    # every node passes color j; everyone else passes MPI_UNDEFINED.
    color = plan.leader_index if plan.is_leader else -1
    plan.leader_comm = yield from comm.split(color, key=plan.node)
    comm.cache[("leader-plan", leaders)] = plan
    return plan
