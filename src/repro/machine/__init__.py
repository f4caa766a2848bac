"""Hardware models: nodes, fabrics, SHArP switches, cluster presets.

The machine layer binds static configuration
(:class:`~repro.machine.config.MachineConfig`) to a live simulation:
a :class:`~repro.machine.machine.Fabric` (per-node memory engines and
NIC pipelines, optionally a SHArP aggregation tree and a fat tree) and
one :class:`~repro.machine.machine.Machine` per job on it (per-rank
injection engines).  The four cluster presets from the paper's
Section 6.1 live in :mod:`repro.machine.clusters`.
"""

from repro.machine.config import (
    FabricConfig,
    MachineConfig,
    NodeConfig,
    SharpConfig,
)
from repro.machine.fattree import FatTree, FatTreeConfig
from repro.machine.machine import Fabric, Machine
from repro.machine.noise import NoiseModel
from repro.machine.topology import Loc, Placement

__all__ = [
    "Fabric",
    "FabricConfig",
    "FatTree",
    "FatTreeConfig",
    "Loc",
    "Machine",
    "MachineConfig",
    "NodeConfig",
    "NoiseModel",
    "Placement",
    "SharpConfig",
]
