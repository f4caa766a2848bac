"""Rank placement: mapping global MPI ranks onto nodes/sockets/cores.

Ranks are placed *block-wise across nodes* (ranks ``[i*ppn, (i+1)*ppn)``
live on node ``i``), matching the paper's full-subscription runs and the
usual ``mpirun -ppn`` behaviour.  Within a node, ``"scatter"`` placement
round-robins local ranks over sockets while ``"bunch"`` fills socket 0
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.machine.config import MachineConfig

__all__ = ["Loc", "Placement"]


@dataclass(frozen=True)
class Loc:
    """Physical location of one rank."""

    rank: int
    node: int
    local_rank: int  # index within the node, 0..ppn-1
    socket: int
    core: int  # core index within the socket


class Placement:
    """Deterministic rank → :class:`Loc` mapping for a job.

    Parameters
    ----------
    config:
        The machine the job runs on.
    nranks:
        Total MPI ranks in the job.
    ppn:
        Processes per node.  Defaults to filling each node's cores
        (full subscription); the last node may be partially filled when
        ``nranks`` is not a multiple of ``ppn``.
    """

    def __init__(self, config: MachineConfig, nranks: int, ppn: int | None = None):
        if nranks < 1:
            raise ConfigError("job needs at least one rank")
        cores = config.node.cores
        if ppn is None:
            ppn = min(nranks, cores)
        if ppn < 1:
            raise ConfigError("ppn must be positive")
        if ppn > cores:
            raise ConfigError(
                f"ppn={ppn} oversubscribes the node ({cores} cores); the "
                "paper caps ppn at the physical core count"
            )
        nodes_needed = -(-nranks // ppn)
        if nodes_needed > config.nodes:
            raise ConfigError(
                f"{nranks} ranks at ppn={ppn} need {nodes_needed} nodes but "
                f"the cluster has {config.nodes}"
            )
        self.config = config
        self.nranks = nranks
        self.ppn = ppn
        self.nodes_used = nodes_needed
        self._sockets = config.node.sockets
        self._cps = config.node.cores_per_socket
        self._scatter = config.placement == "scatter"
        # Locs are frozen, so one per rank is shared by every caller.
        # Only valid ranks are stored: a bad rank raises on every call.
        self._locs: dict[int, Loc] = {}

    def loc(self, rank: int) -> Loc:
        """Physical location of ``rank`` (memoised per rank)."""
        try:
            return self._locs[rank]
        except KeyError:
            pass
        if not (0 <= rank < self.nranks):
            raise ConfigError(f"rank {rank} out of range [0, {self.nranks})")
        node, local = divmod(rank, self.ppn)
        if self._scatter:
            socket = local % self._sockets
            core = local // self._sockets
        else:
            socket = local // self._cps
            core = local % self._cps
        if core >= self._cps:
            raise ConfigError(
                f"placement overflow: local rank {local} maps to core {core} "
                f"of socket {socket} (only {self._cps} cores per socket)"
            )
        loc = self._locs[rank] = Loc(
            rank=rank, node=node, local_rank=local, socket=socket, core=core
        )
        return loc

    def node_of(self, rank: int) -> int:
        """Node index of ``rank`` (cheap path, no Loc allocation)."""
        return rank // self.ppn

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node."""
        return self.node_of(a) == self.node_of(b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Placement {self.nranks} ranks, ppn={self.ppn}, "
            f"{self.nodes_used} nodes, {self.config.placement}>"
        )
