"""Arrival-driven admission of tenant jobs onto the shared fabric.

The scheduler is itself a simulated process: a dispatcher coroutine
walks the trace, sleeps until each job's arrival instant, and either
launches it (when the placement policy finds enough free nodes) or
parks it in a strict-FIFO backlog.  Every launched job gets a private
:class:`~repro.machine.machine.Machine` placed on its nodes of the
fabric and a :class:`~repro.mpi.runtime.Runtime`, whose rank processes are
spawned into the *one shared simulator* via :meth:`Runtime.spawn` — the
runner owns the single ``sim.run()`` call, so all tenants' events
interleave on one deterministic ``(time, seq)`` axis and contend on the
shared NIC/link/SHArP queues exactly where concurrent jobs would.

Per-job counter isolation: shared queues accumulate across tenants, so
each job's :attr:`JobRecord.counters` is built from *snapshot deltas*
of the per-node queues it exclusively held (disjoint node sets make
every submission on those nodes attributable to this job) plus its
private per-rank engines.  Submission counts and service-time sums are
congestion-invariant — contention delays *when* work completes, never
how much work a tenant submits — which is what the isolation tests pin
down: a job's counters on a busy fabric match the same job alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.errors import TrafficError
from repro.faults.inject import FaultInjector
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime
from repro.traffic.fabric import SharedFabric
from repro.traffic.metering import JobMeter, percentile
from repro.traffic.placement import PLACEMENT_POLICIES, place_job
from repro.traffic.workload import JobSpec, TrafficTrace, job_rank_fn

__all__ = ["JobRecord", "TrafficScheduler"]


@dataclass
class JobRecord:
    """Lifecycle and outcome of one trace job on the shared fabric."""

    index: int
    spec: JobSpec
    label: str
    nodes: tuple[int, ...]
    arrival: float
    started: float
    finished: Optional[float] = None
    counters: dict = field(default_factory=dict)
    machine: Optional[Machine] = field(default=None, repr=False)
    runtime: Optional[Runtime] = field(default=None, repr=False)
    meter: Optional[JobMeter] = field(default=None, repr=False)

    @property
    def elapsed(self) -> Optional[float]:
        """Simulated seconds from launch to the last rank finishing."""
        if self.finished is None:
            return None
        return self.finished - self.started

    @property
    def queue_wait(self) -> float:
        """Simulated seconds the job sat in the backlog before launch."""
        return self.started - self.arrival

    def latency_summary(self) -> dict:
        """Deterministic stats over the job's collective latencies."""
        samples = self.meter.all_latencies() if self.meter is not None else []
        total = sum(samples)
        return {
            "n": len(samples),
            "p50": percentile(samples, 50),
            "p99": percentile(samples, 99),
            "mean": total / len(samples) if samples else None,
        }

    def to_dict(self) -> dict:
        """Canonical JSON-ready record (no live object references)."""
        spec = self.spec
        return {
            "index": self.index,
            "label": self.label,
            "app": spec.app,
            "algorithm": spec.algorithm,
            "nbytes": spec.nbytes,
            "iterations": spec.iterations,
            "leaders": spec.leaders,
            "nranks": spec.nranks,
            "ppn": spec.ppn,
            "nodes": list(self.nodes),
            "arrival": self.arrival,
            "started": self.started,
            "finished": self.finished,
            "elapsed": self.elapsed,
            "queue_wait": self.queue_wait,
            "latency": self.latency_summary(),
            "counters": self.counters,
        }

    def describe(self) -> str:
        stats = self.latency_summary()
        p99 = f"{stats['p99']:.3e}s" if stats["p99"] is not None else "-"
        return (
            f"[{self.label}] nodes {list(self.nodes)}: "
            f"wait {self.queue_wait:.3e}s, ran {self.elapsed:.3e}s, "
            f"{stats['n']} collectives, p99 {p99}"
        )


class TrafficScheduler:
    """Admission, placement, and per-job bookkeeping for one trace run.

    Construct, call :meth:`start` (registers the dispatcher process),
    then drive the shared simulator; :attr:`done_event` fires when the
    last job completes.  ``faults`` optionally applies one declarative
    :class:`~repro.faults.plan.FaultPlan` fabric-wide: the plan is
    realised per tenant (rank-level faults act on tenant-local ranks,
    node/edge windows live in global fabric-node space) with seed
    ``fault_seed + job index``, so every job draws distinct — but
    replayable — stochastic realisations.
    """

    def __init__(
        self,
        fabric: SharedFabric,
        trace: TrafficTrace,
        *,
        placement: str = "packed",
        seed: int = 0,
        faults=None,
        fault_seed: int = 0,
        fidelity: Optional[str] = "exact",
    ):
        if placement not in PLACEMENT_POLICIES:
            raise TrafficError(
                f"unknown placement policy {placement!r}; choose from "
                f"{PLACEMENT_POLICIES}"
            )
        widest = trace.max_nodes()
        if widest > fabric.nodes:
            raise TrafficError(
                f"trace has a {widest}-node job but the fabric has only "
                f"{fabric.nodes} node(s)"
            )
        self.fabric = fabric
        self.trace = trace
        self.placement = placement
        self.seed = seed
        self.fault_plan = faults
        self.fault_seed = fault_seed
        self.fidelity = fidelity
        self.free: set[int] = set(range(fabric.nodes))
        self.backlog: deque[tuple[int, JobSpec]] = deque()
        self.records: list[Optional[JobRecord]] = [None] * len(trace)
        self.done_event = fabric.sim.event()
        self._rng = np.random.default_rng(seed)
        self._running: dict[int, JobRecord] = {}
        self._finished = 0
        self._drained = len(trace) == 0

    # -- introspection (consumed by the scraper) -----------------------------

    def occupancy(self) -> dict:
        """Instantaneous job-state counts for one metering sample."""
        return {
            "running": len(self._running),
            "queued": len(self.backlog),
            "finished": self._finished,
        }

    def running_records(self) -> list[JobRecord]:
        """Currently-running job records in trace order (deterministic)."""
        return [self._running[i] for i in sorted(self._running)]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Register the dispatcher process with the shared simulator."""
        self.fabric.sim.process(self._dispatch(), name="traffic-dispatcher")
        if self._drained:
            self._check_done()

    def _dispatch(self) -> Generator:
        sim = self.fabric.sim
        for index, spec in enumerate(self.trace.jobs):
            if spec.arrival > sim.now:
                yield sim.timeout(spec.arrival - sim.now)
            # Strict FIFO: an arrival never jumps an already-queued job,
            # even if its (smaller) footprint would fit right now.
            if self.backlog or not self._try_launch(index, spec):
                self.backlog.append((index, spec))
        self._drained = True
        self._check_done()

    def _try_launch(self, index: int, spec: JobSpec) -> bool:
        nodes = place_job(
            self.placement,
            self.free,
            spec.nodes,
            leaf_of=self.fabric.leaf_of,
            leaves=self.fabric.leaves,
            rng=self._rng,
        )
        if nodes is None:
            return False
        self.free.difference_update(nodes)
        self._launch(index, spec, nodes)
        return True

    def _launch(self, index: int, spec: JobSpec, nodes: tuple[int, ...]) -> None:
        sim = self.fabric.sim
        namespace = f"j{index}."
        machine = Machine(
            self.fabric.config,
            spec.nranks,
            spec.ppn,
            fabric=self.fabric,
            nodes=nodes,
            namespace=namespace,
        )
        if self.fault_plan is not None:
            machine.faults = FaultInjector.for_machine(
                self.fault_plan, machine, seed=self.fault_seed + index
            )
        runtime = Runtime(machine, fidelity=self.fidelity)
        meter = JobMeter()
        record = JobRecord(
            index=index,
            spec=spec,
            label=spec.label(index),
            nodes=nodes,
            arrival=spec.arrival,
            started=sim.now,
            machine=machine,
            runtime=runtime,
            meter=meter,
        )
        snapshot = self._shared_snapshot(nodes)
        procs = runtime.spawn(job_rank_fn(spec), args=(meter, spec))
        self.records[index] = record
        self._running[index] = record
        sim.process(
            self._watch(record, procs, snapshot), name=f"{namespace}watch"
        )

    def _watch(self, record: JobRecord, procs: dict, snapshot: dict) -> Generator:
        sim = self.fabric.sim
        yield sim.all_of(list(procs.values()))
        record.finished = sim.now
        record.counters = self._tenant_counters(record, snapshot)
        self._running.pop(record.index)
        self._finished += 1
        self.free.update(record.nodes)
        self._drain_backlog()
        self._check_done()

    def _drain_backlog(self) -> None:
        while self.backlog:
            index, spec = self.backlog[0]
            if not self._try_launch(index, spec):
                return
            self.backlog.popleft()

    def _check_done(self) -> None:
        if (
            self._drained
            and not self.backlog
            and not self._running
            and not self.done_event.triggered
        ):
            self.done_event.succeed()

    # -- per-job counters ----------------------------------------------------

    def _shared_snapshot(self, nodes: tuple[int, ...]) -> dict:
        """Launch-time ``(job_count, served_time)`` of the job's node queues.

        The node set is exclusively held between launch and finish, so
        the finish-time delta is exactly this job's traffic even though
        the queue objects outlive (and predate) the tenancy.
        """
        fabric = self.fabric
        return {
            n: tuple(
                (q.job_count, q.served_time)
                for q in (fabric.nic_tx[n], fabric.nic_rx[n], fabric.mem[n])
            )
            for n in nodes
        }

    def _tenant_counters(self, record: JobRecord, snapshot: dict) -> dict:
        machine = record.machine
        fabric = self.fabric
        counters = {
            "engine": {
                "jobs": sum(q.job_count for q in machine.engine),
                "busy_seconds": round(
                    sum(q.served_time for q in machine.engine), 12
                ),
            }
        }
        for slot, key in enumerate(("nic_tx", "nic_rx", "mem")):
            queues = getattr(fabric, key)
            jobs = busy = 0.0
            for n in record.nodes:
                before_jobs, before_busy = snapshot[n][slot]
                jobs += queues[n].job_count - before_jobs
                busy += queues[n].served_time - before_busy
            counters[key] = {
                "jobs": int(jobs),
                "busy_seconds": round(busy, 12),
            }
        if machine.faults is not None:
            counters["faults"] = machine.faults.counters()
        return counters
