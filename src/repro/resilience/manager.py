"""Per-job recovery state machine.

A :class:`RecoveryManager` is attached to a
:class:`~repro.mpi.runtime.Runtime` (``recovery=`` on
``run_job``/``Runtime``) and owns everything a job needs
to survive node failures:

* the :class:`~repro.resilience.detector.FailureDetector` fed by typed
  :class:`~repro.errors.TransportError` signals and heartbeat
  timeouts;
* the confirmed-dead node/rank sets that define the surviving layout;
* the **completed-collective log**: the result of every outermost
  world-communicator allreduce is recorded per rank as the job runs,
  so after a failover the restarted attempt can *replay* the prefix
  every survivor had already completed (the last completed phase-plan
  boundary) instead of re-running it — completed full-world results
  stand, exactly as in ULFM checkpoint-at-collective-boundary schemes;
* the failover log and degraded-mode decisions surfaced as
  ``JobResult.counters["resilience"]``.

Failover model
--------------
Rather than surgically unwinding a half-finished collective inside the
event heap (zombie wakeups, leaked matcher state), a failover restarts
the *simulation* while carrying the clock forward: the runtime resets
machine + transport (the bit-identical session-reuse machinery) and
relaunches only the surviving ranks, each delayed by
``restart_at = t_fail + policy.restart_latency`` on the same absolute
time axis — so fault windows stay aligned and the recovered timeline is
deterministic.  The interrupted collective re-runs from its start on
the shrunk world; :func:`~repro.core.leaders.get_leader_plan` re-derives
the DPML leader partitions for the surviving layout automatically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import RecoveryError
from repro.resilience.detector import FailureDetector
from repro.resilience.policy import RecoveryPolicy

__all__ = ["RecoveryManager", "as_manager"]


def as_manager(recovery) -> Optional["RecoveryManager"]:
    """Normalise a ``recovery=`` argument.

    Accepts ``None``, ``True`` (a default-constructed policy), a
    :class:`RecoveryPolicy`, or a pre-built :class:`RecoveryManager`
    (kept, e.g. to pin failed nodes or retain a counter handle).
    Disabled policies normalise to ``None`` — the job behaves exactly
    as if no recovery layer existed.
    """
    if recovery is None:
        return None
    if recovery is True:
        recovery = RecoveryPolicy()
    if isinstance(recovery, RecoveryPolicy):
        return RecoveryManager(recovery) if recovery.enabled else None
    if isinstance(recovery, RecoveryManager):
        return recovery if recovery.policy.enabled else None
    from repro.errors import ConfigError

    raise ConfigError(
        f"recovery must be None, True, a RecoveryPolicy, or a "
        f"RecoveryManager, got {type(recovery).__name__}"
    )


class RecoveryManager:
    """Owns one job's failure evidence, dead sets, and replay log.

    ``pin_failed_nodes`` pre-confirms nodes as dead from t=0 — the
    survivor-only *reference* configuration the chaos harness compares
    recovered runs against (and a convenient way to study degraded
    layouts without injecting the failure itself).
    """

    def __init__(
        self,
        policy: Optional[RecoveryPolicy] = None,
        *,
        pin_failed_nodes: Sequence[int] = (),
    ):
        self.policy = policy or RecoveryPolicy()
        self._pinned = tuple(sorted(set(int(n) for n in pin_failed_nodes)))
        self._node_of: list[int] = []
        self._nnodes = 0
        self.begin_job(None)

    # -- job lifecycle -------------------------------------------------------

    def begin_job(self, machine) -> None:
        """Reset to a fresh job on ``machine`` (pinned nodes persist)."""
        if machine is not None:
            self._node_of = [machine.node_of(r) for r in range(machine.nranks)]
            self._nnodes = (max(self._node_of) + 1) if self._node_of else 0
        self.detector = FailureDetector(self.policy)
        self.dead_nodes: list[int] = list(self._pinned)
        for node in self._pinned:
            self.detector.confirm(node)
        self.failovers: list[dict] = []
        self.fallbacks: list[dict] = []
        self.aborted_attempts: list[dict] = []
        self.restart_at = 0.0
        self._completed: dict[int, list] = {}
        self._replay: dict[int, list] = {}
        self._cursor: dict[int, int] = {}
        self._depth: dict[int, int] = {}

    @property
    def degraded(self) -> bool:
        """Whether the job runs on less than its original layout."""
        return bool(self.dead_nodes)

    @property
    def dead_ranks(self) -> frozenset:
        """World ranks living on confirmed-dead nodes."""
        dead = set(self.dead_nodes)
        return frozenset(
            r for r, node in enumerate(self._node_of) if node in dead
        )

    def surviving_ranks(self, machine) -> tuple:
        """World ranks of ``machine`` not on a confirmed-dead node."""
        dead = set(self.dead_nodes)
        return tuple(
            r for r in range(machine.nranks)
            if machine.node_of(r) not in dead
        )

    # -- failure signals -----------------------------------------------------

    def on_transport_error(self, err) -> None:
        """Feed one escaped :class:`~repro.errors.TransportError`."""
        self.detector.observe_exhaustion(
            err.rank, err.edge[0], err.edge[1], err.sim_time, err.attempts
        )

    def on_deadlock(self, machine, now: float) -> bool:
        """Try to attribute a drained-heap hang to missed heartbeats.

        A rank waiting on a peer behind a *transient* outage spins in
        backoff and the heap never drains; a genuine deadlock under an
        active outage means some rank stopped participating entirely.
        Nodes named by outage windows older than the policy's
        ``heartbeat_timeout`` are charged missed heartbeats; returns
        whether the detector now has a suspect (if not, the deadlock is
        re-raised untouched).
        """
        faults = machine.faults
        if faults is None or not faults.has_link_outage:
            return False
        endpoints = faults.outage_endpoints(now, self.policy.heartbeat_timeout)
        if not endpoints:
            return False
        for node in endpoints:
            if node not in self.detector.confirmed:
                self.detector.observe_heartbeat_timeout(node, now)
        self.detector.probe(faults, self._nnodes, now)
        return self.detector.suspect() is not None

    def note_aborted_attempt(self, faults) -> None:
        """Snapshot the aborted attempt's fault telemetry.

        The machine reset that precedes the restart re-realises the
        injector with zeroed counters, so the aborted attempt's
        retries/exhaustions would otherwise vanish from the job record.
        """
        if faults is not None:
            self.aborted_attempts.append(faults.counters())

    # -- the failover decision -----------------------------------------------

    def plan_failover(self, machine, now: float, sanitizer=None) -> int:
        """Confirm a victim and prepare the restart, or raise.

        Runs the detector's probe round, names the strongest suspect,
        checks the failover budget and the surviving partition, then
        computes the replay boundary (the minimum completed-collective
        count over the survivors) and the restart time.  Raises a typed
        :class:`~repro.errors.RecoveryError` on any unrecoverable
        condition, recording the matching sanitizer report first when
        the run is sanitized.
        """
        self.detector.probe(machine.faults, self._nnodes, now)
        victim = self.detector.suspect()
        if victim is None:
            raise RecoveryError(
                "no-suspect",
                "failure signal could not be attributed to any node",
                details={"detector": self.detector.counters()},
            )
        if len(self.failovers) >= self.policy.max_failovers:
            message = (
                f"node {victim} failed but the failover budget "
                f"(max_failovers={self.policy.max_failovers}) is spent"
            )
            if sanitizer is not None:
                from repro.check import reports as R

                sanitizer.record(
                    R.RESILIENCE_DOUBLE_FAILOVER, message, time=now,
                    victim=victim, max_failovers=self.policy.max_failovers,
                    prior=[f["node"] for f in self.failovers],
                )
            raise RecoveryError(
                "double-failover", message,
                details={
                    "victim": victim,
                    "max_failovers": self.policy.max_failovers,
                    "prior": [f["node"] for f in self.failovers],
                },
            )
        self.detector.confirm(victim)
        self.dead_nodes.append(victim)
        survivors = self.surviving_ranks(machine)
        if not survivors:
            message = (
                f"confirming node {victim} leaves no surviving rank to "
                f"re-run the job on"
            )
            if sanitizer is not None:
                from repro.check import reports as R

                sanitizer.record(
                    R.RESILIENCE_LOST_PARTITION, message, time=now,
                    dead_nodes=list(self.dead_nodes),
                )
            raise RecoveryError(
                "lost-partition", message,
                details={"dead_nodes": list(self.dead_nodes)},
            )
        boundary = min(len(self._completed.get(r, ())) for r in survivors)
        self._replay = {
            r: list(self._completed.get(r, ()))[:boundary] for r in survivors
        }
        self._cursor = {r: 0 for r in survivors}
        self._completed = {}
        self._depth = {}
        self.restart_at = now + self.policy.restart_latency
        self.failovers.append({
            "node": victim,
            "at": float(now),
            "restart_at": float(self.restart_at),
            "boundary": boundary,
            "lost_ranks": sorted(self.dead_ranks),
        })
        return victim

    # -- completed-collective log (called from Comm.allreduce) ---------------

    def enter_collective(self, world_rank: int) -> bool:
        """Track nesting; returns True for an outermost world call.

        Only depth-0 world-communicator allreduces are logged/replayed:
        nested same-context calls (DPML's flat fallback, the adaptive
        selector's cost-agreement allreduce) are interior steps of the
        outer collective and must always re-execute with it.
        """
        depth = self._depth.get(world_rank, 0)
        self._depth[world_rank] = depth + 1
        return depth == 0

    def exit_collective(self, world_rank: int) -> None:
        # Tolerate decrements from an aborted attempt's abandoned
        # generators: their finally blocks run on GC after a failover
        # already cleared the depth table.
        depth = self._depth.get(world_rank, 0)
        if depth > 0:
            self._depth[world_rank] = depth - 1

    def replay(self, world_rank: int):
        """``(hit, value)`` — the next logged result, if any remain.

        Replayed results re-enter the completed log so a later second
        failover still sees the full prefix.
        """
        pending = self._replay.get(world_rank)
        if pending is None:
            return False, None
        cursor = self._cursor[world_rank]
        if cursor >= len(pending):
            return False, None
        self._cursor[world_rank] = cursor + 1
        value = pending[cursor]
        self._completed.setdefault(world_rank, []).append(value)
        return True, value

    def record(self, world_rank: int, result) -> None:
        """Log one completed outermost world-collective result."""
        self._completed.setdefault(world_rank, []).append(result)

    # -- degraded-mode selection ---------------------------------------------

    def record_fallback(self, site: str, algorithm: str, context: int) -> None:
        """Log one degraded-mode algorithm decision (deduplicated)."""
        entry = {"site": site, "algorithm": algorithm, "context": context}
        if entry not in self.fallbacks:
            self.fallbacks.append(entry)

    # -- post-shrink invariants ----------------------------------------------

    def post_shrink_check(self, runtime, sanitizer) -> None:
        """Record leaks of traffic/state toward dead ranks or nodes.

        After a successful post-failover attempt no survivor may have
        sent to a rank on a dead node (the message can never be
        consumed) and no shared-memory region may exist on a dead node
        (nobody is there to have created one legitimately).
        """
        from repro.check import reports as R

        for rank in sorted(self.dead_ranks):
            leak = runtime.transport.matchers[rank].leak_summary()
            if leak:
                sanitizer.record(
                    R.RESILIENCE_POST_SHRINK_LEAK,
                    f"rank {rank} on a failed node still received traffic "
                    f"after the shrink",
                    time=runtime.sim.clock, rank=rank, **leak,
                )
        for node in self.dead_nodes:
            if runtime._shm_regions.get(node) is not None:
                sanitizer.record(
                    R.RESILIENCE_POST_SHRINK_LEAK,
                    f"shared-memory region of failed node {node} was "
                    f"touched after the shrink",
                    time=runtime.sim.clock, node=node,
                )

    # -- telemetry -----------------------------------------------------------

    def counters(self) -> dict:
        """Deterministic, JSON-ready snapshot for
        ``JobResult.counters["resilience"]``."""
        return {
            "policy": self.policy.policy_hash(),
            "failovers": [dict(f) for f in self.failovers],
            "dead_nodes": list(self.dead_nodes),
            "dead_ranks": sorted(self.dead_ranks),
            "pinned_nodes": list(self._pinned),
            "fallbacks": [dict(f) for f in self.fallbacks],
            "detector": self.detector.counters(),
            "aborted_attempts": [dict(a) for a in self.aborted_attempts],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RecoveryManager policy={self.policy.policy_hash()} "
            f"dead_nodes={self.dead_nodes} "
            f"failovers={len(self.failovers)}>"
        )
