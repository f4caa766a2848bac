"""The shared substrate: one fabric, many tenant machine views.

A classic :class:`~repro.machine.machine.Machine` owns *everything* a
job touches — simulator, per-rank engines, per-node NIC/memory queues,
SHArP tree, fat tree.  Under multi-tenancy the split is different:

* the :class:`SharedFabric` owns what tenants *contend on* — the one
  simulator, one NIC TX/RX and one memory queue per physical node, the
  fat-tree link queues, and the SHArP tree's context pool;
* each :class:`TenantMachine` owns what is *private to a job* — its
  per-rank injection engines, tracer, placement, and fault injector —
  while delegating every shared queue to the fabric.

The trick that makes the existing transport and collective layers work
unchanged: a tenant's ranks are numbered locally (``0..nranks-1``, so
``Runtime``/``Comm``/collectives see an ordinary dense job), but
:meth:`TenantMachine.node_of` and :meth:`TenantMachine.loc` translate
to *global* fabric node ids.  Every shared structure the lower layers
index by node — ``nic_tx``/``nic_rx``/``mem`` lists,
``fabric_stages``, shm-region keys — is indexed with ``node_of()``
results, so two tenants mapped onto disjoint node sets automatically
contend exactly where real jobs would: on the wires, never on each
other's engines.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TrafficError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.sharp import SharpTree
from repro.machine.topology import Loc, Placement
from repro.sim import FCFSQueue, Simulator, Tracer

__all__ = ["SharedFabric", "TenantMachine"]


class SharedFabric:
    """One cluster's worth of contended resources, hosting many tenants.

    Builds the full ``config.nodes``-wide queue set (unlike
    :class:`~repro.machine.machine.Machine`, which sizes itself to one
    job's footprint).  :meth:`reset` rewinds everything to the
    constructed state, giving the same session-reuse determinism
    guarantee as :class:`~repro.mpi.runtime.SimSession`: a traffic run
    on a reset fabric is bit-identical to one on a fresh build.
    """

    def __init__(
        self,
        config: MachineConfig,
        *,
        sim: Optional[Simulator] = None,
        sanitize=None,
    ):
        if config.nodes < 1:
            raise TrafficError(
                f"shared fabric needs >= 1 node, got {config.nodes}"
            )
        self.config = config
        self.sim = sim or Simulator(sanitize=sanitize)
        self.nodes = config.nodes
        self.nic_tx = [
            FCFSQueue(self.sim, f"nic_tx[n{n}]") for n in range(self.nodes)
        ]
        self.nic_rx = [
            FCFSQueue(self.sim, f"nic_rx[n{n}]") for n in range(self.nodes)
        ]
        self.mem = [
            FCFSQueue(self.sim, f"mem[n{n}]") for n in range(self.nodes)
        ]
        self.sharp: Optional[SharpTree] = (
            SharpTree(self.sim, config.sharp, self.nodes)
            if config.sharp
            else None
        )
        if config.topology is not None:
            from repro.machine.fattree import FatTree

            self.fabric_tree = FatTree(self.sim, config.topology, self.nodes)
        else:
            self.fabric_tree = None

    @property
    def leaves(self) -> int:
        """Leaf-switch count (1 for a flat, endpoint-only fabric)."""
        if self.fabric_tree is None:
            return 1
        return self.fabric_tree.leaves

    def leaf_of(self, node: int) -> int:
        """Leaf switch of ``node`` (0 on a flat fabric)."""
        if self.fabric_tree is None:
            return 0
        return self.fabric_tree.leaf_of(node)

    def reset(self) -> "SharedFabric":
        """Rewind clock, queues, SHArP, and fat tree for fabric reuse."""
        self.sim.reset()
        for queue in (*self.nic_tx, *self.nic_rx, *self.mem):
            queue.reset()
        if self.sharp is not None:
            self.sharp.reset()
        if self.fabric_tree is not None:
            self.fabric_tree.reset()
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SharedFabric {self.config.name!r} {self.nodes} nodes, "
            f"{self.leaves} leaves>"
        )


class TenantMachine(Machine):
    """One job's private machine view onto a :class:`SharedFabric`.

    Subclasses :class:`~repro.machine.machine.Machine` for its charged
    primitives (``compute``/``shm_copy``/``engine_submit``/fabric cost
    helpers) but deliberately skips ``Machine.__init__``: the per-node
    queues, SHArP tree, and fat tree are *references into the fabric*,
    shared with every other tenant, while the per-rank engines, tracer,
    and placement are private.  ``node_of``/``loc`` translate the
    tenant's dense local node indices to the global fabric nodes it was
    placed on.

    A tenant machine is single-job by construction — :meth:`reset`
    refuses, because rewinding shared queues mid-run would corrupt the
    other tenants.  Recovery/failover layers (which reset the machine)
    are therefore unsupported for tenant jobs.
    """

    def __init__(
        self,
        fabric: SharedFabric,
        nodes: tuple[int, ...],
        nranks: int,
        ppn: Optional[int] = None,
        *,
        tracer: Optional[Tracer] = None,
        noise=None,
        faults=None,
        namespace: str = "",
    ):
        # No super().__init__: shared structures come from the fabric.
        self.config = fabric.config
        self.sim = fabric.sim
        self.tracer = tracer or Tracer(enabled=False)
        self.placement = Placement(fabric.config, nranks, ppn)
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise TrafficError(f"tenant node set has duplicates: {nodes}")
        for node in nodes:
            if not (0 <= node < fabric.nodes):
                raise TrafficError(
                    f"tenant node {node} outside fabric 0..{fabric.nodes - 1}"
                )
        if self.placement.nodes_used != len(nodes):
            raise TrafficError(
                f"job of {nranks} ranks at ppn={self.placement.ppn} needs "
                f"{self.placement.nodes_used} node(s), got {len(nodes)}"
            )
        self.nranks = nranks
        self.ppn = self.placement.ppn
        self.timeline = None
        self.noise = noise
        self.faults = faults
        self.tenant_nodes = nodes
        # Private per-rank injection engines; shared per-node queues.
        self.engine = [
            FCFSQueue(self.sim, f"{namespace}engine[r{r}]")
            for r in range(nranks)
        ]
        self.nic_tx = fabric.nic_tx
        self.nic_rx = fabric.nic_rx
        self.mem = fabric.mem
        self.sharp = fabric.sharp
        self.fabric_tree = fabric.fabric_tree
        self._locs: dict[int, Loc] = {}

    # -- local -> global node translation ------------------------------------

    def node_of(self, rank: int) -> int:
        """Global fabric node hosting ``rank``."""
        return self.tenant_nodes[self.placement.node_of(rank)]

    def loc(self, rank: int) -> Loc:
        """Physical location of ``rank``, with the global node id
        (memoised per rank, like :meth:`Placement.loc`)."""
        try:
            return self._locs[rank]
        except KeyError:
            pass
        local = self.placement.loc(rank)
        loc = self._locs[rank] = Loc(
            rank=local.rank,
            node=self.tenant_nodes[local.node],
            local_rank=local.local_rank,
            socket=local.socket,
            core=local.core,
        )
        return loc

    def reset(self, **kwargs) -> "Machine":
        raise TrafficError(
            "tenant machines are single-job: resetting would rewind queues "
            "shared with concurrent tenants (build a fresh TenantMachine, "
            "or reset the SharedFabric between traffic runs)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TenantMachine {self.config.name!r} {self.nranks} ranks on "
            f"fabric nodes {self.tenant_nodes}>"
        )
