"""Job launch: turn a per-rank function into a finished simulation.

>>> from repro.machine.clusters import cluster_b
>>> from repro.mpi.runtime import run_job
>>> from repro.payload import SUM, make_payload
>>>
>>> def main(comm):
...     data = make_payload(4, data=[comm.rank] * 4)
...     result = yield from comm.allreduce(data, SUM)
...     return float(result.array[0])
>>>
>>> result = run_job(cluster_b(nodes=2), nranks=4, fn=main, ppn=2)
>>> result.values
[6.0, 6.0, 6.0, 6.0]
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence, Union

from repro.errors import ConfigError, DeadlockError, MPIError, TransportError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mpi.comm import Comm, Group
from repro.mpi.shm import ShmRegion
from repro.mpi.transport import Transport
from repro.sim import Simulator, Tracer

__all__ = ["Runtime", "JobResult", "SimSession", "run_job"]

RankFn = Callable[..., Generator]

#: Recognised fidelity modes: ``exact`` runs every collective through
#: its coroutine implementation; ``hybrid`` charges validated phases as
#: macro-events priced by the cost model (see ``docs/performance.md``).
FIDELITIES = ("exact", "hybrid")


def resolve_fidelity(fidelity: Optional[str]) -> str:
    """Normalise a ``fidelity=`` argument.

    ``None`` consults the ``REPRO_FIDELITY`` environment variable and
    defaults to ``"exact"``; anything outside :data:`FIDELITIES` is a
    :class:`~repro.errors.ConfigError`.
    """
    if fidelity is None:
        fidelity = os.environ.get("REPRO_FIDELITY") or "exact"
    if fidelity not in FIDELITIES:
        raise ConfigError(
            f"unknown fidelity {fidelity!r}; expected one of "
            f"{', '.join(FIDELITIES)}"
        )
    return fidelity


def _skewed_start(sim: Simulator, delay: float, gen: Generator) -> Generator:
    """Delay a rank generator's start (ArrivalSkew realisation).

    The wrapper is applied only to ranks with a positive delay, so
    fault-free jobs (and on-time ranks inside faulted ones) schedule
    exactly the same events as before — the deterministic kernel
    counters pinned by the golden counter tests stay untouched.
    """
    yield sim.timeout(delay)
    value = yield from gen
    return value


def _as_injector(faults, machine: Machine, seed: int = 0):
    """Normalise a ``faults=`` argument to a realised injector.

    Accepts ``None``, a declarative
    :class:`~repro.faults.plan.FaultPlan` (realised against the
    machine's placement with ``seed``), or an already-realised
    :class:`~repro.faults.inject.FaultInjector` (passed through, e.g. to
    keep a handle on its counters).  Imported lazily so the runtime has
    no hard dependency on :mod:`repro.faults`.
    """
    if faults is None:
        return None
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan

    if isinstance(faults, FaultPlan):
        return FaultInjector.for_machine(faults, machine, seed=seed)
    return faults


def _as_manager(recovery):
    """Normalise a ``recovery=`` argument to a manager (or ``None``).

    Imported lazily so the runtime has no hard dependency on
    :mod:`repro.resilience`; see
    :func:`repro.resilience.manager.as_manager` for the accepted forms.
    """
    if recovery is None:
        return None
    from repro.resilience.manager import as_manager

    return as_manager(recovery)


class Runtime:
    """MPI runtime for one job on one machine.

    ``recovery`` attaches a resilience layer (``True``, a
    :class:`~repro.resilience.policy.RecoveryPolicy`, or a pre-built
    :class:`~repro.resilience.manager.RecoveryManager`): jobs launched
    through this runtime then survive up to the policy's failover
    budget of node failures instead of aborting on the first exhausted
    transport retry.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        fidelity: Optional[str] = None,
        recovery=None,
    ):
        self.machine = machine
        self.sim = machine.sim
        #: Optional :class:`~repro.resilience.manager.RecoveryManager`
        #: (``None`` when the job runs without a recovery layer).
        self.recovery = _as_manager(recovery)
        #: Execution fidelity of collectives launched through this
        #: runtime (``"exact"`` or ``"hybrid"``); consulted by the
        #: collective registry at dispatch time.
        self.fidelity = resolve_fidelity(fidelity)
        #: Optional :class:`~repro.core.phases.PhaseProbe` recording
        #: exact-execution phase windows for the spot-check oracle.
        self.phase_probe = None
        #: algorithm name -> times a hybrid-mode dispatch hit an
        #: allreduce exempt from the cost model and ran exact instead;
        #: surfaced in ``JobResult.counters["hybrid_plan_fallbacks"]`` so
        #: exempt algorithms cannot silently defeat macro-charging.
        self.hybrid_plan_fallbacks: dict[str, int] = {}
        #: ``"<algorithm>:<reason>"`` -> times a hybrid-mode dispatch of
        #: a priced collective ran exact (noise, faults, recovery, a
        #: ragged layout, a sub-communicator, or an unpriceable
        #: charge); surfaced in
        #: ``JobResult.counters["hybrid_exact_fallbacks"]``.
        self.hybrid_exact_fallbacks: dict[str, int] = {}
        #: reason -> jobs whose rank function has a fleet form (see
        #: :class:`~repro.mpi.collectives.hybrid.Fleet`) but which were
        #: launched per rank; surfaced in
        #: ``JobResult.counters["hybrid_fleet_fallbacks"]``.
        self.hybrid_fleet_fallbacks: dict[str, int] = {}
        #: Per-job hybrid macro plans, filled by the first rank that
        #: dispatches each collective or by a fleet launch's preflight
        #: (see :mod:`repro.mpi.collectives.hybrid`): ``(algorithm, comm
        #: size, nbytes, sorted kwargs items)`` -> ``(plan, fallback)``.
        #: Cleared by :meth:`reset`, which every change of eligibility
        #: (new noise, faults, or a failover shrink) goes through.
        self.macro_plans: dict = {}
        self.transport = Transport(machine)
        #: Prefix for shared-memory region (and spawned process) names.
        #: Empty for classic one-job-per-simulator runs; the traffic
        #: scheduler sets a per-tenant prefix so concurrent jobs sharing
        #: a simulator keep distinct names in sanitizer ledgers and
        #: wait graphs.
        self.namespace = ""
        self._context_counter = itertools.count(1)
        self._world_group = Group(range(machine.nranks), context=0)
        self._shm_regions: dict[int, ShmRegion] = {}
        # Rendezvous gates for operations coordinated outside the p2p
        # matching path (e.g. one SHArP tree operation shared by all
        # leaders); see gate().  Completed keys are tombstoned so a
        # straggler arriving after the last party raises instead of
        # silently opening a fresh gate and deadlocking.
        self._gates: dict = {}
        self._done_gates: set = set()

    def reset(self) -> "Runtime":
        """Forget all per-job coordination state, keeping the machine.

        Gives the next job fresh matching engines, shared-memory
        regions, gates (including tombstones), and a restarted
        communicator-context counter.  The machine itself must be reset
        separately (or use :class:`SimSession`, which does both).
        """
        self.transport = Transport(self.machine)
        self._context_counter = itertools.count(1)
        self._world_group = Group(range(self.machine.nranks), context=0)
        self._shm_regions.clear()
        self._gates.clear()
        self._done_gates.clear()
        self.hybrid_plan_fallbacks.clear()
        self.hybrid_exact_fallbacks.clear()
        self.hybrid_fleet_fallbacks.clear()
        self.macro_plans.clear()
        return self

    def shm_region(self, node: int) -> ShmRegion:
        """The shared-memory rendezvous region of ``node``."""
        region = self._shm_regions.get(node)
        if region is None:
            region = self._shm_regions[node] = ShmRegion(
                self.sim, name=f"{self.namespace}node{node}"
            )
        return region

    def gate(self, key, parties: int):
        """Arrive at a ``parties``-way rendezvous identified by ``key``.

        Returns ``(event, is_last)``: ``is_last`` is True for the final
        arriver (who typically performs the shared work and then
        triggers the event for everyone).
        """
        state = self._gates.get(key)
        if state is None:
            self._check_not_completed(key)
            state = self._gates[key] = {
                "event": self.sim.event(),
                "arrived": 0,
                "parties": parties,
            }
        else:
            self._check_parties(key, state, parties)
        state["arrived"] += 1
        if state["arrived"] > parties:
            self._record_gate(
                "overfill",
                key,
                f"gate {key!r} overfilled ({state['arrived']}/{parties})",
                arrived=state["arrived"],
                parties=parties,
            )
            raise MPIError(f"gate {key!r} overfilled ({state['arrived']}/{parties})")
        is_last = state["arrived"] == parties
        if is_last:
            del self._gates[key]
            self._done_gates.add(key)
        return state["event"], is_last

    def gate_exchange(self, key, parties: int, item):
        """Like :meth:`gate`, but collects one ``item`` per arriver.

        Returns ``(event, is_last, items)``; ``items`` is the full list
        for the last arriver and ``None`` for everyone else.
        """
        state = self._gates.get(key)
        if state is None:
            self._check_not_completed(key)
            state = self._gates[key] = {
                "event": self.sim.event(),
                "items": [],
                "parties": parties,
            }
        else:
            self._check_parties(key, state, parties)
        state["items"].append(item)
        if len(state["items"]) > parties:
            self._record_gate(
                "overfill",
                key,
                f"gate {key!r} overfilled ({len(state['items'])}/{parties})",
                arrived=len(state["items"]),
                parties=parties,
            )
            raise MPIError(f"gate {key!r} overfilled ({len(state['items'])}/{parties})")
        if len(state["items"]) == parties:
            del self._gates[key]
            self._done_gates.add(key)
            return state["event"], True, state["items"]
        return state["event"], False, None

    def _check_not_completed(self, key) -> None:
        """Reject a straggler arriving at an already-completed gate.

        Without the tombstone the late arriver would open a *fresh* gate
        under the same key and block forever waiting for parties that
        already left — a silent deadlock instead of a diagnosable error.
        """
        if key in self._done_gates:
            self._record_gate(
                "reopen",
                key,
                f"late arrival at gate {key!r}: the rendezvous already "
                "completed",
            )
            raise MPIError(
                f"late arrival at gate {key!r}: the rendezvous already "
                "completed (party-count mismatch between arrivers?)"
            )

    def _check_parties(self, key, state: dict, parties: int) -> None:
        """Flag arrivers that disagree about the gate's party count.

        Disagreement is a protocol bug (the gate either overfills or
        hangs, depending on which arriver is wrong) but its *symptom*
        appears far from the cause — so on sanitized runs it is caught
        and raised at the first disagreeing arrival instead.
        """
        if state["parties"] == parties:
            return
        report = self._record_gate(
            "party-mismatch",
            key,
            f"gate {key!r} opened for {state['parties']} parties, but an "
            f"arriver expects {parties}",
            opened_for=state["parties"],
            expects=parties,
        )
        if report is not None:
            raise MPIError(str(report))

    def _record_gate(self, what: str, key, message: str, **details):
        """Record a gate lifecycle violation when the run is sanitized."""
        sanitizer = getattr(self.sim, "sanitizer", None)
        if sanitizer is None:
            return None
        from repro.check import reports as R

        kind = {
            "reopen": R.GATE_REOPEN,
            "overfill": R.GATE_OVERFILL,
            "party-mismatch": R.GATE_PARTY_MISMATCH,
        }[what]
        return sanitizer.record(
            kind, message, time=self.sim.now, key=repr(key), **details
        )

    def next_context(self) -> int:
        """Fresh communicator context id (deterministic)."""
        return next(self._context_counter)

    def world_comm(self, rank: int) -> Comm:
        """COMM_WORLD view for ``rank``."""
        return Comm(self, self._world_group, rank)

    def launch(
        self,
        fn: RankFn,
        *,
        args: Sequence = (),
        kwargs: Optional[dict] = None,
    ) -> "JobResult":
        """Run ``fn(comm, *args, **kwargs)`` on every rank to completion.

        With a recovery layer attached, a permanent transport failure
        does not abort the job: the failure detector confirms a victim
        node, the machine is reset, and the surviving ranks restart on
        the same absolute clock (delayed past the failure time by the
        policy's ``restart_latency``), replaying the collectives every
        survivor had already completed.  See
        :mod:`repro.resilience.manager` for the model.
        """
        kwargs = kwargs or {}
        if self.recovery is None:
            return self._launch_attempt(fn, args, kwargs)
        return self._launch_recoverable(fn, args, kwargs)

    def _launch_recoverable(self, fn: RankFn, args, kwargs) -> "JobResult":
        """The failover loop around :meth:`_launch_attempt`."""
        manager = self.recovery
        manager.begin_job(self.machine)
        if manager.degraded:
            # Pinned dead nodes (survivor-only reference runs): start
            # directly on the shrunk world.
            self._world_group = Group(
                manager.surviving_ranks(self.machine), context=0
            )
        while True:
            try:
                result = self._launch_attempt(
                    fn, args, kwargs, start_delay=manager.restart_at
                )
            except TransportError as err:
                manager.on_transport_error(err)
                self._failover(manager)
                continue
            except DeadlockError:
                if not manager.on_deadlock(self.machine, self.sim.now):
                    raise
                self._failover(manager)
                continue
            result.counters["resilience"] = manager.counters()
            return result

    def _failover(self, manager) -> None:
        """Confirm a victim, reset the job, and shrink the world.

        Raises :class:`~repro.errors.RecoveryError` (leaving the failed
        simulation state inspectable) when the failure is
        unrecoverable; otherwise the caller's loop relaunches on the
        surviving ranks with the clock carried forward.
        """
        machine = self.machine
        sanitizer = getattr(self.sim, "sanitizer", None)
        manager.note_aborted_attempt(machine.faults)
        manager.plan_failover(machine, self.sim.now, sanitizer)
        # Full reset: the aborted attempt's in-flight events, matcher
        # state, gates, and shm regions are debris of ranks that no
        # longer exist.  Time is carried forward via start_delay, so
        # fault windows stay on the same absolute axis.
        machine.reset(
            noise=machine.noise, timeline=machine.timeline,
            faults=machine.faults,
        )
        self.reset()
        self._world_group = Group(manager.surviving_ranks(machine), context=0)

    def spawn(
        self,
        fn: RankFn,
        *,
        args: Sequence = (),
        kwargs: Optional[dict] = None,
        start_delay: float = 0.0,
    ) -> dict:
        """Create one process per world rank *without* running the simulator.

        Returns ``{world rank: Process}``.  This is the launch path with
        the event loop factored out: :meth:`launch` spawns and then
        drives ``sim.run()`` itself, while the multi-tenant traffic
        scheduler (:mod:`repro.traffic`) spawns several jobs' ranks into
        one shared simulator and owns the single ``run()`` call.  Fault
        arrival skew is applied here, on top of ``start_delay``, so both
        paths realise process-arrival patterns identically.
        """
        kwargs = kwargs or {}
        machine = self.machine
        faults = machine.faults
        skewed = faults is not None and faults.has_arrival_skew
        procs = {}
        for rank in self._world_group.ranks:
            comm = Comm(self, self._world_group, rank)
            gen = fn(comm, *args, **kwargs)
            if not hasattr(gen, "send"):
                raise MPIError(
                    f"rank function {getattr(fn, '__name__', fn)!r} must be a "
                    "generator (use 'yield from comm....' inside it)"
                )
            delay = start_delay
            if skewed:
                delay += faults.arrival_delay(rank)
            if delay > 0.0:
                gen = _skewed_start(self.sim, delay, gen)
            procs[rank] = self.sim.process(
                gen, name=f"{self.namespace}rank{rank}"
            )
        return procs

    def _spawn_fleet(self, fn: RankFn, args, kwargs):
        """One process standing for every rank of ``fn``, or ``None``
        to launch per rank.

        Only a hybrid job whose rank function has a ``fleet`` form
        (:class:`~repro.mpi.collectives.hybrid.Fleet`) qualifies, and
        only when every collective the fleet issues is macro-chargeable
        on the world communicator
        (:func:`~repro.mpi.collectives.hybrid.plan_fleet`); any other
        job keeps the per-rank launch, the reference.  Eligibility
        excludes a recovery layer, so the fleet always runs the full
        world with no start delay.  A fleet-capable job launched per
        rank is counted in :attr:`hybrid_fleet_fallbacks`.
        """
        form = getattr(fn, "fleet", None)
        if form is None or self.fidelity != "hybrid":
            return None
        from repro.mpi.collectives.hybrid import plan_fleet

        comm = self.world_comm(self._world_group.ranks[0])
        plans, reason = plan_fleet(comm, form.collectives)
        if plans is None:
            counts = self.hybrid_fleet_fallbacks
            counts[reason] = counts.get(reason, 0) + 1
            return None
        return self.sim.process(
            form.run(comm, plans, *args, **kwargs),
            name=f"{self.namespace}fleet",
        )

    def _launch_attempt(
        self,
        fn: RankFn,
        args,
        kwargs,
        start_delay: float = 0.0,
    ) -> "JobResult":
        """One simulation of ``fn`` on the current world group.

        A hybrid job whose rank function carries a fleet form runs as
        one process when :meth:`_spawn_fleet` can price it, and per rank
        otherwise.
        """
        machine = self.machine
        faults = machine.faults
        fleet = self._spawn_fleet(fn, args, kwargs)
        if fleet is None:
            procs = self.spawn(
                fn, args=args, kwargs=kwargs, start_delay=start_delay
            )
        sanitizer = getattr(self.sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.begin_run()
        try:
            self.sim.run()
        except DeadlockError as err:
            if sanitizer is not None:
                sanitizer.enrich_deadlock(self, err)
            raise
        reports: list = []
        if sanitizer is not None:
            if self.recovery is not None and self.recovery.degraded:
                self.recovery.post_shrink_check(self, sanitizer)
            sanitizer.finalize(self)  # strict mode raises on any report
            reports = list(sanitizer.reports)
        counters = self.sim.counters()
        if faults is not None:
            counters["faults"] = faults.counters()
        if self.fidelity == "hybrid":
            counters["hybrid_plan_fallbacks"] = dict(self.hybrid_plan_fallbacks)
            counters["hybrid_exact_fallbacks"] = dict(self.hybrid_exact_fallbacks)
            counters["hybrid_fleet_fallbacks"] = dict(self.hybrid_fleet_fallbacks)
        if fleet is None:
            values = [
                procs[r].value if r in procs else None
                for r in range(machine.nranks)
            ]
        else:
            values = list(fleet.value)
        return JobResult(
            values=values,
            elapsed=self.sim.now,
            machine=machine,
            tracer=machine.tracer,
            reports=reports,
            counters=counters,
        )


@dataclass
class JobResult:
    """Outcome of one simulated MPI job."""

    values: list  #: per-rank return values of the rank function
    elapsed: float  #: simulated seconds until the last rank finished
    machine: Machine = field(repr=False)
    tracer: Tracer = field(repr=False)
    #: sanitizer reports collected during the run (empty when the job
    #: was not sanitized, or was sanitized and came back clean)
    reports: list = field(default_factory=list, repr=False)
    #: deterministic kernel counters snapshotted at job completion (see
    #: :meth:`repro.sim.engine.Simulator.counters`); note that
    #: ``events_allocated`` depends on event-pool warmth, so only
    #: fresh-session runs are comparable across processes
    counters: dict = field(default_factory=dict, repr=False)

    def value(self, rank: int = 0) -> Any:
        """Return value of one rank."""
        return self.values[rank]


class SimSession:
    """A reusable Machine + Runtime pair for repeated simulations.

    Constructing a :class:`~repro.machine.machine.Machine` validates the
    config, computes the rank placement, and allocates every per-rank
    and per-node queue (plus SHArP / fat-tree structures when
    configured).  For sweeps — repeats, message sizes, and algorithms on
    the *same* layout — that construction cost is pure per-sample
    overhead.  A session pays it once; :meth:`reset` rewinds the
    simulator clock, queue horizons, tracer, matching engines, gates,
    and shared-memory regions while reusing the topology, cluster
    config, and placement.

    Determinism guarantee: a run on a reset session is bit-identical to
    the same run on a freshly built machine (covered by the session
    determinism tests), because every piece of mutable simulation state
    is rewound to its constructed value.

    >>> from repro.machine.clusters import cluster_b
    >>> session = SimSession(cluster_b(2), nranks=4, ppn=2)
    >>> def fn(comm):
    ...     yield comm.sim.timeout(1e-6)
    ...     return comm.rank
    >>> session.run(fn).values == session.run(fn).values
    True
    """

    def __init__(
        self,
        config: MachineConfig,
        nranks: int,
        ppn: Optional[int] = None,
        *,
        trace: bool = False,
        sanitize: Union[bool, Any, None] = None,
        fidelity: Optional[str] = None,
        recovery=None,
    ):
        self.config = config
        self.nranks = nranks
        self.machine = Machine(
            config, nranks, ppn, sim=Simulator(sanitize=sanitize), trace=trace
        )
        self.ppn = self.machine.ppn
        self.runtime = Runtime(self.machine, fidelity=fidelity, recovery=recovery)
        self.fidelity = self.runtime.fidelity
        self.recovery = self.runtime.recovery
        self.runs = 0  #: completed jobs (overhead accounting / debugging)

    @property
    def key(self) -> tuple:
        """Layout identity: sessions with equal keys are interchangeable.

        Fidelity joins the key only when non-default, mirroring how
        :mod:`repro.bench.spec` serialises it — existing exact-mode
        callers see the unchanged 3-tuple.
        """
        base = (self.config, self.nranks, self.ppn)
        if self.fidelity != "exact":
            return base + (self.fidelity,)
        return base

    def matches(
        self, config: MachineConfig, nranks: int, ppn: Optional[int] = None
    ) -> bool:
        """Whether this session can serve a job with the given layout."""
        return (
            config == self.config
            and nranks == self.nranks
            and ppn in (None, self.ppn)
        )

    def reset(
        self, *, noise=None, timeline=None, faults=None, fault_seed: int = 0
    ) -> Runtime:
        """Fresh per-run state on the reused layout; returns the runtime.

        ``faults`` accepts a declarative
        :class:`~repro.faults.plan.FaultPlan` (realised against this
        layout with ``fault_seed``) or an already-realised
        :class:`~repro.faults.inject.FaultInjector`; either way the
        injector is re-realised from its seed with zeroed counters, so
        the reused session replays the faulted run bit-identically.
        """
        injector = _as_injector(faults, self.machine, fault_seed)
        self.machine.reset(noise=noise, timeline=timeline, faults=injector)
        return self.runtime.reset()

    def run(
        self,
        fn: RankFn,
        *,
        noise=None,
        timeline=None,
        faults=None,
        fault_seed: int = 0,
        args: Sequence = (),
        kwargs: Optional[dict] = None,
    ) -> JobResult:
        """Reset and launch ``fn`` — the session equivalent of :func:`run_job`."""
        runtime = self.reset(
            noise=noise, timeline=timeline, faults=faults, fault_seed=fault_seed
        )
        result = runtime.launch(fn, args=args, kwargs=kwargs)
        self.runs += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimSession {self.config.name!r} {self.nranks} ranks "
            f"(ppn={self.ppn}), {self.runs} runs>"
        )


def run_job(
    config_or_machine: Union[MachineConfig, Machine],
    nranks: int,
    fn: RankFn,
    *,
    ppn: Optional[int] = None,
    trace: bool = False,
    sim: Optional[Simulator] = None,
    sanitize: Union[bool, Any, None] = None,
    faults=None,
    fault_seed: int = 0,
    fidelity: Optional[str] = None,
    recovery=None,
    args: Sequence = (),
    kwargs: Optional[dict] = None,
) -> JobResult:
    """Build a machine (if needed), launch ``fn`` on ``nranks``, run to end.

    ``fidelity`` selects the collective execution mode (``"exact"`` |
    ``"hybrid"``; ``None`` consults ``REPRO_FIDELITY``) — see
    :data:`FIDELITIES`.

    ``recovery`` attaches a resilience layer (``True``, a
    :class:`~repro.resilience.policy.RecoveryPolicy`, or a
    :class:`~repro.resilience.manager.RecoveryManager`): permanent
    transport failures then trigger failure detection and leader
    failover instead of aborting, and the recovery record lands in
    ``JobResult.counters["resilience"]``.

    ``sanitize`` enables the invariant sanitizer for this job: ``True``
    for a fresh strict :class:`~repro.check.sanitizer.Sanitizer`, a
    :class:`~repro.check.sanitizer.Sanitizer` instance to keep a handle
    on the reports, ``False`` to force it off, and ``None`` (default) to
    consult the ``REPRO_SANITIZE`` environment variable.

    ``faults`` injects scheduled faults for this job: a declarative
    :class:`~repro.faults.plan.FaultPlan` (realised against the job
    layout with ``fault_seed``) or a realised
    :class:`~repro.faults.inject.FaultInjector`.  The injector's
    counters land in ``JobResult.counters["faults"]``.
    """
    if isinstance(config_or_machine, Machine):
        machine = config_or_machine
        if machine.nranks != nranks:
            raise MPIError(
                f"machine was built for {machine.nranks} ranks, job wants {nranks}"
            )
        if sanitize is not None:
            from repro.check.sanitizer import as_sanitizer

            machine.sim.sanitizer = as_sanitizer(sanitize)
    else:
        if sim is None:
            sim = Simulator(sanitize=sanitize)
        elif sanitize is not None:
            from repro.check.sanitizer import as_sanitizer

            sim.sanitizer = as_sanitizer(sanitize)
        machine = Machine(config_or_machine, nranks, ppn, sim=sim, trace=trace)
    if faults is not None:
        machine.faults = _as_injector(faults, machine, fault_seed)
    runtime = Runtime(machine, fidelity=fidelity, recovery=recovery)
    return runtime.launch(fn, args=args, kwargs=kwargs)
