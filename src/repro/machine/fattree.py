"""Two-level fat-tree topology with link-level contention.

The paper's Cluster D interconnect is "a fat tree topology of eight
core switches and 320 leaf switches with 5/4 oversubscription".  The
default machine model contends only at the NIC endpoints (adequate for
the paper's per-node arguments); enabling a
:class:`FatTreeConfig` on a :class:`~repro.machine.config.MachineConfig`
adds the switch fabric: every inter-leaf message crosses an uplink
(leaf → spine) and a downlink (spine → leaf), each a FCFS pipeline, so
oversubscribed traffic patterns slow down realistically.

Routing is deterministic destination-mod-k ECMP (``spine = dst_node %
spines``), the classic static fat-tree routing, which keeps
simulations reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["FatTreeConfig", "FatTree"]


@dataclass(frozen=True)
class FatTreeConfig:
    """Static description of the two-level switch fabric.

    Parameters
    ----------
    nodes_per_leaf:
        Downlinks per leaf switch (how many nodes attach to one leaf).
    spines:
        Core switches; each leaf has one up/down link pair per spine.
    link_byte_time:
        Per-byte time of one switch-to-switch link (``1 / bandwidth``).
        Oversubscription is ``nodes_per_leaf * nic_bandwidth /
        (spines * link_bandwidth)``.
    link_msg_time:
        Per-chunk pipeline floor of a link.
    hop_latency:
        Propagation + switching latency per fabric hop.
    """

    nodes_per_leaf: int = 16
    spines: int = 8
    link_byte_time: float = 8.0e-11
    link_msg_time: float = 6.0e-9
    hop_latency: float = 1.5e-7

    def __post_init__(self):
        if self.nodes_per_leaf < 1:
            raise ConfigError("nodes_per_leaf must be >= 1")
        if self.spines < 1:
            raise ConfigError("fat tree needs at least one spine switch")
        for name in ("link_byte_time", "link_msg_time", "hop_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    def oversubscription(self, nic_byte_time: float) -> float:
        """Worst-case leaf oversubscription ratio (>1 = oversubscribed)."""
        leaf_demand = self.nodes_per_leaf / nic_byte_time
        leaf_supply = self.spines / self.link_byte_time
        return leaf_demand / leaf_supply


@dataclass(frozen=True)
class _Stage:
    """One pipeline stage of a network path."""

    queue: object  #: FCFSQueue
    latency: float  #: delay before the stage's service begins
    msg_time: float
    byte_time: float

    def service(self, chunk_bytes: int) -> float:
        """Pipeline service time for one chunk."""
        return max(self.msg_time, chunk_bytes * self.byte_time)


class FatTree:
    """Instantiated fabric: link queues plus routing."""

    def __init__(self, sim, config: FatTreeConfig, nodes: int):
        from repro.sim import FCFSQueue

        self.config = config
        self.nodes = nodes
        self.leaves = -(-nodes // config.nodes_per_leaf)
        self.up = [
            [
                FCFSQueue(sim, f"up[l{leaf}->s{spine}]")
                for spine in range(config.spines)
            ]
            for leaf in range(self.leaves)
        ]
        self.down = [
            [
                FCFSQueue(sim, f"down[s{spine}->l{leaf}]")
                for spine in range(config.spines)
            ]
            for leaf in range(self.leaves)
        ]

    def leaf_of(self, node: int) -> int:
        """Leaf switch a node attaches to."""
        if not (0 <= node < self.nodes):
            raise ConfigError(f"node {node} out of range [0, {self.nodes})")
        return node // self.config.nodes_per_leaf

    def spine_for(self, dst_node: int) -> int:
        """Destination-mod-k spine selection."""
        return dst_node % self.config.spines

    def fabric_stages(self, src_node: int, dst_node: int) -> list[_Stage]:
        """Link stages between the source and destination NICs.

        Same-leaf traffic turns around inside the leaf switch (one hop
        of latency, no contended inter-switch link); inter-leaf traffic
        crosses one uplink and one downlink.
        """
        cfg = self.config
        src_leaf = self.leaf_of(src_node)
        dst_leaf = self.leaf_of(dst_node)
        if src_leaf == dst_leaf:
            return []
        spine = self.spine_for(dst_node)
        return [
            _Stage(self.up[src_leaf][spine], cfg.hop_latency,
                   cfg.link_msg_time, cfg.link_byte_time),
            _Stage(self.down[dst_leaf][spine], cfg.hop_latency,
                   cfg.link_msg_time, cfg.link_byte_time),
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FatTree {self.leaves} leaves x {self.config.spines} spines, "
            f"{self.nodes} nodes>"
        )
