r"""The live machine: binds a :class:`MachineConfig` to a simulation.

A :class:`Fabric` is the per-node hardware jobs contend on:

* one **TX** and one **RX NIC pipeline** per node — the fabric
  endpoints where concurrent flows contend;
* one **memory engine** per node — caps aggregate intra-node copy
  bandwidth;
* optionally a :class:`~repro.machine.sharp.SharpTree` and a
  :class:`~repro.machine.fattree.FatTree`.

A :class:`Machine` is one job on a fabric.  It owns one **injection
engine** (:class:`~repro.sim.resources.FCFSQueue`) per rank, which
serializes that process's communication work (message setup and byte
injection) and so limits per-process message rate and bandwidth.  A
machine builds a fabric as wide as its job, or is placed on a shared
one with other jobs (the multi-tenant runs of :mod:`repro.traffic`).

The per-rank and per-node queues live in
:class:`~repro.sim.table.LazyTable`\ s, so a queue exists only once a
job has indexed it: a macro-charged fleet job at 10k ranks builds none.

The charged primitives (``compute``, ``shm_copy``, ``flag_sync``,
``gather_sync``) charge the tracer and return the event a rank
coroutine ``yield``\ s.  A copy or a combine returns its core's leg with
the memory engine's job as a follow-on stage (see
:meth:`repro.sim.engine.Event.then`): the loop runs both legs on that
one event and resumes the waiter once, at the memory job's end.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.machine.config import MachineConfig
from repro.machine.noise import NoiseModel
from repro.machine.sharp import SharpTree
from repro.machine.topology import Placement
from repro.sim import Event, FCFSQueue, LazyTable, Simulator, Tracer
from repro.sim.timeline import Timeline

__all__ = ["Fabric", "Machine"]

# Memory-traffic multiplier for one reduction combine: stream two source
# vectors in and one result out.
_REDUCE_MEM_STREAMS = 3.0


class Fabric:
    """The per-node hardware of ``nodes`` nodes, shared by the jobs on it.

    Holds the simulator, the NIC TX/RX and memory queues of every node
    (built on first use), and the SHArP and fat trees when the config
    has them.  :meth:`reset` rewinds the simulator, which zeroes exactly
    the queues the last run touched, and SHArP: a run on a reset fabric
    is bit-identical to one on a fresh build.
    """

    def __init__(
        self,
        config: MachineConfig,
        nodes: Optional[int] = None,
        *,
        sim: Optional[Simulator] = None,
        sanitize=None,
    ):
        self.config = config
        self.sim = sim = sim or Simulator(sanitize=sanitize)
        self.nodes = nodes = config.nodes if nodes is None else nodes
        self.nic_tx = LazyTable(nodes, lambda n: FCFSQueue(sim, f"nic_tx[n{n}]"))
        self.nic_rx = LazyTable(nodes, lambda n: FCFSQueue(sim, f"nic_rx[n{n}]"))
        self.mem = LazyTable(nodes, lambda n: FCFSQueue(sim, f"mem[n{n}]"))
        self.sharp: Optional[SharpTree] = (
            SharpTree(sim, config.sharp, nodes) if config.sharp else None
        )
        if config.topology is not None:
            from repro.machine.fattree import FatTree

            self.fabric_tree = FatTree(sim, config.topology, nodes)
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

    def reset(self) -> "Fabric":
        """Rewind the simulator and SHArP for reuse."""
        self.sim.reset()
        if self.sharp is not None:
            self.sharp.reset()
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Fabric {self.config.name!r} {self.nodes} nodes, "
            f"{self.leaves} leaves>"
        )


class Machine:
    """One MPI job on a simulated cluster.

    Parameters
    ----------
    config:
        Hardware description.
    nranks:
        MPI ranks in the job.
    ppn:
        Processes per node (default: full subscription).
    sim:
        Optionally share a simulator; a fresh one is created otherwise.
    fabric:
        Optionally place the job on a shared :class:`Fabric` (and its
        simulator) instead of building one just wide enough for its
        nodes.  Such a machine cannot be :meth:`reset`.
    nodes:
        The fabric nodes hosting the job's rank blocks, in order
        (default ``0..h-1``); see :class:`~repro.machine.topology.Placement`.
    namespace:
        Prefix for the names of the job's engines, processes and
        shared-memory regions, so jobs sharing a simulator stay apart
        in sanitizer ledgers and wait graphs.
    trace:
        Enable time-category accounting (off for big benchmark runs).
    timeline:
        Optional :class:`~repro.sim.timeline.Timeline` recording
        per-rank spans (compute/copy/injection) for Chrome-trace export.
    noise:
        Optional :class:`~repro.machine.noise.NoiseModel` applying
        seeded multiplicative jitter to every charged service time.
    faults:
        Optional realised :class:`~repro.faults.inject.FaultInjector`
        scaling compute/copy service inside scheduled fault windows
        (link faults are consulted by the transport layer).
    """

    def __init__(
        self,
        config: MachineConfig,
        nranks: int,
        ppn: Optional[int] = None,
        *,
        sim: Optional[Simulator] = None,
        fabric: Optional[Fabric] = None,
        nodes: Optional[Sequence[int]] = None,
        namespace: str = "",
        trace: bool = False,
        timeline: Optional[Timeline] = None,
        noise: Optional[NoiseModel] = None,
        faults=None,
    ):
        self.config = config
        self.placement = placement = Placement(config, nranks, ppn, nodes)
        # The placement's own bound methods: no forwarding call per use.
        self.loc = placement.loc
        self.node_of = placement.node_of
        self.same_node = placement.same_node
        self._owns_fabric = fabric is None
        if fabric is None:
            fabric = Fabric(config, max(self.placement.nodes) + 1, sim=sim)
        elif sim is not None:
            raise ConfigError(
                "a machine on a shared fabric runs on the fabric's "
                "simulator; pass sim= or fabric=, not both"
            )
        self.fabric = fabric
        self.sim = sim = fabric.sim
        self.tracer = Tracer(enabled=trace)
        self.nranks = nranks
        self.ppn = placement.ppn
        self._nodes = placement.nodes
        self.namespace = namespace
        self.timeline = timeline
        self.noise = noise
        self.faults = faults
        self.engine = LazyTable(
            nranks, lambda r: FCFSQueue(sim, f"{namespace}engine[r{r}]")
        )
        self.nic_tx = fabric.nic_tx
        self.nic_rx = fabric.nic_rx
        self.mem = fabric.mem
        self.sharp = fabric.sharp
        self.fabric_tree = fabric.fabric_tree

    def reset(
        self,
        *,
        noise: Optional[NoiseModel] = None,
        timeline: Optional[Timeline] = None,
        faults=None,
    ) -> "Machine":
        """Rewind to a pristine pre-job state, reusing the layout.

        Keeps the validated config, the placement map, and every queue
        built so far while rewinding the fabric (see
        :meth:`Fabric.reset`) and the tracer, and installing fresh
        per-run ``noise``/``timeline``/``faults``.  The cost follows
        what the last job touched, not the machine's rank and node
        count.  A passed-in noise model is rewound to its seed, and a
        passed-in fault injector is re-realised from its seed with
        zeroed counters, so a run on a reset machine is bit-identical to
        the same run on a freshly built one — the determinism guarantee
        :class:`~repro.mpi.runtime.SimSession` relies on.  A machine on
        a shared fabric refuses: it would rewind other jobs' queues.
        """
        if not self._owns_fabric:
            raise ConfigError(
                "a machine on a shared fabric is single-job: resetting "
                "would rewind queues shared with other jobs (build a "
                "fresh Machine, or reset the Fabric between runs)"
            )
        self.fabric.reset()
        self.tracer.reset()
        if noise is not None:
            noise.reset()
        self.noise = noise
        if faults is not None:
            faults.reset()
        self.faults = faults
        self.timeline = timeline
        return self

    # -- placement shortcuts -------------------------------------------------

    def same_socket(self, a: int, b: int) -> bool:
        """Whether two ranks share a socket (implies same node)."""
        if not self.placement.same_node(a, b):
            return False
        return self.loc(a).socket == self.loc(b).socket

    def require_sharp(self) -> SharpTree:
        """The SHArP tree, or a clear error if the cluster lacks one."""
        if self.sharp is None:
            raise ConfigError(
                f"cluster {self.config.name!r} has no SHArP support; "
                "SHArP-based designs run on Cluster A only (see Section 6.1)"
            )
        return self.sharp

    # -- charged primitives ----------------------------------------------------

    def engine_submit(self, rank: int, service: float, label: str = "net"):
        """Submit (noised) work to a rank's engine, recording a span."""
        if self.noise is not None:
            service = self.noise.perturb(service)
        ev = self.engine[rank].submit(service)
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            # FCFS queues decide completion eagerly.
            done_at = self.sim.origin + ev.value
            timeline.record(label, label, rank, done_at - service, done_at)
        return ev

    def compute(
        self, rank: int, nbytes: int, combines: int = 1
    ) -> Optional[Event]:
        """Reduction compute: ``combines`` combines over ``nbytes`` each.

        The core is busy for ``combines * nbytes * c``; the node memory
        engine is charged the streamed traffic so many concurrent
        leaders eventually hit the memory-bandwidth wall.  Returns the
        event to ``yield``: the core's leg, followed by the memory
        engine's (None when there is nothing to charge, which a process
        yields to go on at once).  The tracer is charged the time the
        core's engine serves.
        """
        node_cfg = self.config.node
        busy = combines * nbytes * node_cfg.reduce_byte_time
        faults = self.faults
        if faults is not None and faults.has_compute_faults:
            busy *= faults.compute_factor(rank, self.sim.clock)
        if self.noise is not None:
            busy = self.noise.perturb(busy)
        if self.tracer.enabled:
            self.tracer.charge("compute", busy, combines)
        mem_service = (
            combines * nbytes * _REDUCE_MEM_STREAMS * node_cfg.mem_byte_time
        )
        if busy > 0:
            # Serialize on the rank's engine: one core cannot combine
            # two overlapped collectives' data at the same time.
            done = self.engine[rank].submit(busy)
            timeline = self.timeline
            if timeline is not None and timeline.enabled:
                done_at = self.sim.origin + done.value
                timeline.record("compute", "compute", rank, done_at - busy, done_at)
            if mem_service > 0:
                done.then(self.mem[self._nodes[rank // self.ppn]], mem_service)
            return done
        if mem_service > 0:
            return self.mem[self._nodes[rank // self.ppn]].submit(mem_service)
        return None

    def shm_copy(
        self, rank: int, nbytes: int, cross_socket: bool = False
    ) -> Event:
        """Blocking shared-memory copy of ``nbytes`` performed by ``rank``.

        Models the paper's ``a' + n * b'`` with an inter-socket premium,
        plus contention on the node memory engine: the returned event is
        the core's leg, followed by the memory engine's.
        """
        node_cfg = self.config.node
        startup = node_cfg.copy_latency
        byte_time = node_cfg.copy_byte_time
        if cross_socket:
            startup += node_cfg.intersocket_latency
            byte_time *= node_cfg.intersocket_byte_factor
        busy = startup + nbytes * byte_time
        if self.noise is not None:
            busy = self.noise.perturb(busy)
        faults = self.faults
        sim = self.sim
        if faults is not None and faults.has_copy_faults:
            busy *= faults.copy_factor(rank, sim.clock)
        if self.tracer.enabled:
            self.tracer.charge("copy", busy)
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            start = sim.clock
            timeline.record("copy", "shm_copy", rank, start, start + busy)
        done = sim.timeout(busy)
        mem_service = nbytes * node_cfg.mem_byte_time
        if mem_service > 0:
            done.then(self.mem[self._nodes[rank // self.ppn]], mem_service)
        return done

    def flag_sync(self) -> Event:
        """One shared-memory flag post/wait hop."""
        latency = self.config.node.flag_latency
        if self.tracer.enabled:
            self.tracer.charge("sync", latency)
        return self.sim.timeout(latency)

    def gather_sync(self, rank: int, parties: int) -> Event:
        """A leader confirming arrival flags from ``parties`` local ranks."""
        node_cfg = self.config.node
        latency = node_cfg.flag_latency + parties * node_cfg.poll_latency
        if self.tracer.enabled:
            self.tracer.charge("sync", latency)
        return self.sim.timeout(latency)

    # -- fabric cost helpers (used by the transport layer) ---------------------

    def injection_service(self, nbytes: int) -> float:
        """Sender-engine service time for one message of ``nbytes``."""
        fabric = self.config.fabric
        return fabric.send_overhead + nbytes * self._proc_byte_time(nbytes)

    def reception_service(self, nbytes: int) -> float:
        """Receiver-engine service time for one message of ``nbytes``."""
        return self.config.fabric.recv_overhead

    def _proc_byte_time(self, nbytes: int) -> float:
        """Per-byte injection cost; PIO/DMA split when configured."""
        fabric = self.config.fabric
        if fabric.pio_byte_time is not None and nbytes <= fabric.dma_threshold:
            return fabric.pio_byte_time
        return fabric.proc_byte_time

    def nic_chunks(self, nbytes: int) -> list[int]:
        """Split a message into NIC pipeline chunks."""
        chunk = self.config.fabric.chunk_bytes
        if nbytes <= 0:
            return [0]
        full, rest = divmod(nbytes, chunk)
        sizes = [chunk] * full
        if rest:
            sizes.append(rest)
        return sizes

    def nic_service(self, chunk_bytes: int) -> float:
        """NIC pipeline service time for one chunk."""
        fabric = self.config.fabric
        return max(fabric.nic_msg_time, chunk_bytes * fabric.nic_byte_time)

    def fabric_stages(self, src_node: int, dst_node: int):
        """Switch-fabric pipeline stages between two nodes' NICs.

        Empty unless the config enables a link-level topology.
        """
        if self.fabric_tree is None:
            return ()
        return self.fabric_tree.fabric_stages(src_node, dst_node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine {self.config.name!r} {self.nranks} ranks on "
            f"{self.placement.nodes_used} nodes (ppn={self.ppn})>"
        )
