"""The sanitizer: always-on structural invariant checking for simulations.

A :class:`Sanitizer` instance hangs off a
:class:`~repro.sim.engine.Simulator` (``sim.sanitizer``) and is fed by
hooks at the runtime's choke points:

* the **event heap** reports time regressions and, when it drains with
  live processes, the blocked-process *wait graph* (quiescence /
  deadlock detection);
* the **gate** rendezvous layer reports lifecycle violations (reopen of
  a completed gate, overfill, party-count disagreement, gates left open
  at finalize);
* the **shared-memory store** reports double writes, stale reads,
  reader-count disagreements, and — for writes annotated with partition
  spans — overlapping or out-of-bounds partitions;
* the **matcher** reports sequence violations, misrouted envelopes, and
  receives/sends left unmatched when the job finishes.

Detections that would corrupt the protocol mid-run are recorded *and*
raised immediately (as :class:`~repro.errors.MPIError` /
:class:`~repro.errors.SimulationError` at the call site); leak-style
checks run in :meth:`Sanitizer.finalize`, which raises
:class:`~repro.errors.SanitizerError` in strict mode when any report
was collected.

Enable it with ``run_job(..., sanitize=True)``,
``SimSession(..., sanitize=True)``, ``Simulator(sanitize=True)`` or the
``REPRO_SANITIZE=1`` environment variable (picked up by every newly
constructed simulator, including sweep executor workers).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import SanitizerError
from repro.check import reports as R
from repro.check.reports import SanitizerReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Event, Simulator

__all__ = ["Sanitizer", "env_sanitize", "as_sanitizer"]


def env_sanitize() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized simulations."""
    return os.environ.get("REPRO_SANITIZE", "").lower() in ("1", "true", "yes")


def as_sanitizer(value) -> Optional["Sanitizer"]:
    """Normalise a ``sanitize=`` argument to a sanitizer instance.

    ``None`` consults :func:`env_sanitize`; ``True`` builds a fresh
    strict sanitizer; ``False`` disables; a :class:`Sanitizer` instance
    passes through (letting tests and the CLI keep a handle on the
    collected reports).
    """
    if value is None:
        value = env_sanitize()
    if value is False:
        return None
    if value is True:
        return Sanitizer()
    return value


class Sanitizer:
    """Collects invariant-violation reports for one simulation.

    Parameters
    ----------
    strict:
        When True (default), :meth:`finalize` raises
        :class:`~repro.errors.SanitizerError` if any report was
        recorded.  The CLI uses ``strict=False`` to collect every
        finding across a sweep.
    max_reports:
        Hard cap on stored reports (a pathological run should not OOM
        the sanitizer); further findings only bump ``truncated``.
    """

    def __init__(self, *, strict: bool = True, max_reports: int = 1000):
        self.strict = strict
        self.max_reports = max_reports
        self.reports: list[SanitizerReport] = []
        self.truncated = 0
        # Partition-span ledger: (region, frame) -> {"total": int,
        # "intervals": [(start, stop, key)]}.
        self._frames: dict[tuple, dict] = {}
        self._finalized = False

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        """Forget all reports and transient ledgers (for session reuse)."""
        self.reports.clear()
        self.truncated = 0
        self._frames.clear()
        self._finalized = False

    def begin_run(self) -> None:
        """Start a fresh job on this sanitizer, keeping collected reports.

        Clears the per-run state (partition-span ledger, finalize
        latch) so one ``strict=False`` instance can collect findings
        across many jobs without cross-job false positives — shm frame
        keys repeat between jobs because communicator contexts restart.
        """
        self._frames.clear()
        self._finalized = False

    def record(
        self, kind: str, message: str, *, time: float = 0.0, **details
    ) -> Optional[SanitizerReport]:
        """Record one violation; returns the report (None past the cap)."""
        if len(self.reports) >= self.max_reports:
            self.truncated += 1
            return None
        report = SanitizerReport(
            kind=kind, message=message, time=time, details=details
        )
        self.reports.append(report)
        return report

    @property
    def ok(self) -> bool:
        """True while no violation has been recorded."""
        return not self.reports

    def kinds(self) -> set[str]:
        """The distinct violation kinds recorded so far."""
        return {r.kind for r in self.reports}

    def by_kind(self, kind: str) -> list[SanitizerReport]:
        """All reports of one kind."""
        return [r for r in self.reports if r.kind == kind]

    def summary(self) -> str:
        """One-line human summary."""
        if self.ok:
            return "sanitizer: 0 reports"
        counts: dict[str, int] = {}
        for r in self.reports:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        parts = ", ".join(f"{k}={n}" for k, n in sorted(counts.items()))
        extra = f" (+{self.truncated} truncated)" if self.truncated else ""
        return f"sanitizer: {len(self.reports)} report(s): {parts}{extra}"

    # -- event heap ----------------------------------------------------------

    def heap_regression(
        self, now: float, when: float, event: "Event"
    ) -> SanitizerReport:
        """An event is about to fire before the current simulated time."""
        report = self.record(
            R.HEAP_REGRESSION,
            f"event scheduled at t={when} fired after the clock reached "
            f"t={now}",
            time=now,
            scheduled_for=when,
            event=repr(event),
        )
        return report

    # -- quiescence / deadlock ----------------------------------------------

    def on_deadlock(self, sim: "Simulator") -> dict[str, str]:
        """Heap drained with live processes: build and record the wait graph.

        Returns ``{process name: description of its wait target}``; a
        blocked process waiting on another *process* points at it by
        name, which is what makes rank-level wait cycles readable.
        """
        graph = {
            proc.name: _describe_wait(proc._waiting_on)
            for proc in sorted(sim._live_processes, key=lambda p: p.name)
        }
        self.record(
            R.DEADLOCK,
            f"event heap drained at t={sim.clock} with {len(graph)} blocked "
            "process(es)",
            time=sim.clock,
            wait_graph=graph,
        )
        return graph

    def enrich_deadlock(self, runtime, err) -> None:
        """Attach runtime-level context to the last deadlock report.

        Adds the per-rank matcher state (pending receives, buffered
        unexpected messages) and the still-open gates — the facts that
        localise *why* the wait graph is stuck.
        """
        deadlocks = self.by_kind(R.DEADLOCK)
        if not deadlocks:
            return
        report = deadlocks[-1]
        matchers = {}
        for matcher in runtime.transport.matchers:
            leak = matcher.leak_summary()
            if leak:
                matchers[f"rank{matcher.rank}"] = leak
        report.details["matchers"] = matchers
        report.details["open_gates"] = {
            repr(key): {
                "arrived": state["arrived"],
                "parties": state["parties"],
            }
            for key, state in runtime._gates.items()
        }

    # -- fault injection ------------------------------------------------------

    def fault_retries_exhausted(
        self,
        rank: int,
        src_node: int,
        dst_node: int,
        attempts: int,
        now: float,
        *,
        blocked_until: float = 0.0,
    ) -> Optional[SanitizerReport]:
        """A sender gave up on an outaged link after ``attempts`` retries.

        Recorded at raise time (the accompanying
        :class:`~repro.errors.MPIError` propagates out of the simulation
        before :meth:`finalize` runs), so tests and the CLI can inspect
        the report on a passed-in sanitizer instance even when the job
        aborts.
        """
        return self.record(
            R.FAULT_RETRIES_EXHAUSTED,
            f"rank {rank} exhausted {attempts} retry(ies) sending over "
            f"outaged link {src_node}->{dst_node}",
            time=now,
            rank=rank,
            src_node=src_node,
            dst_node=dst_node,
            attempts=attempts,
            blocked_until=blocked_until,
        )

    # -- shared-memory spans --------------------------------------------------

    def shm_write(
        self,
        region: str,
        key,
        span: tuple,
        nitems: Optional[int],
        now: float,
    ) -> Optional[SanitizerReport]:
        """Check one annotated shm write against its frame's ledger.

        ``span`` is ``(frame, start, stop, total)``: the write claims
        elements ``[start, stop)`` of the logical vector ``frame``
        whose full extent is ``total`` elements.  Returns the first
        violation report (already recorded) or None when clean.
        """
        frame_id, start, stop, total = span
        ledger_key = (region, frame_id)
        if not (0 <= start <= stop <= total):
            return self.record(
                R.SHM_OUT_OF_BOUNDS,
                f"shm write {key!r} on {region} claims [{start}:{stop}) "
                f"outside frame extent {total}",
                time=now,
                region=region,
                key=key,
                span=[start, stop],
                total=total,
            )
        ledger = self._frames.get(ledger_key)
        if ledger is None:
            ledger = self._frames[ledger_key] = {"total": total, "intervals": []}
        elif ledger["total"] != total:
            return self.record(
                R.SHM_OUT_OF_BOUNDS,
                f"shm write {key!r} on {region} declares frame extent "
                f"{total}, but the frame was opened with {ledger['total']}",
                time=now,
                region=region,
                key=key,
                total=total,
                declared_total=ledger["total"],
            )
        if nitems is not None and nitems != stop - start:
            return self.record(
                R.SHM_SPAN_MISMATCH,
                f"shm write {key!r} on {region} carries {nitems} element(s) "
                f"but claims span [{start}:{stop})",
                time=now,
                region=region,
                key=key,
                span=[start, stop],
                nitems=nitems,
            )
        for a, b, other_key in ledger["intervals"]:
            if start < b and a < stop:
                return self.record(
                    R.SHM_OVERLAP,
                    f"shm write {key!r} on {region} span [{start}:{stop}) "
                    f"overlaps [{a}:{b}) written by {other_key!r}",
                    time=now,
                    region=region,
                    key=key,
                    span=[start, stop],
                    other_key=other_key,
                    other_span=[a, b],
                )
        ledger["intervals"].append((start, stop, key))
        return None

    # -- finalize -------------------------------------------------------------

    def finalize(self, runtime=None) -> list[SanitizerReport]:
        """End-of-job leak checks; raises in strict mode on any report.

        Walks the runtime's matchers (unmatched sends/recvs), gates
        (opened but never completed), and shared-memory regions (values
        deposited but never consumed, blocked readers).  Idempotent per
        run: calling twice without a :meth:`reset` is a no-op.
        """
        if self._finalized:
            if self.strict and self.reports:
                self._raise()
            return self.reports
        self._finalized = True
        if runtime is not None:
            self._check_matchers(runtime)
            self._check_gates(runtime)
            self._check_shm(runtime)
        if self.strict and self.reports:
            self._raise()
        return self.reports

    def check_runtime(self, runtime) -> None:
        """Leak-check one runtime without latching the finalize state.

        Multi-tenant traffic runs share one simulator across several
        runtimes; the scheduler calls this per tenant and then
        :meth:`finalize` once (with no runtime) to apply strict mode.
        """
        self._check_matchers(runtime)
        self._check_gates(runtime)
        self._check_shm(runtime)

    def check(self) -> None:
        """Raise :class:`SanitizerError` if any report was recorded."""
        if self.reports:
            self._raise()

    def _raise(self) -> None:
        raise SanitizerError(self.summary(), reports=self.reports)

    def _check_matchers(self, runtime) -> None:
        for matcher in runtime.transport.matchers:
            leak = matcher.leak_summary()
            if leak:
                self.record(
                    R.MATCHER_LEAK,
                    f"rank {matcher.rank} finished with "
                    f"{leak.get('n_posted', 0)} unmatched receive(s) and "
                    f"{leak.get('n_unexpected', 0)} unconsumed message(s)",
                    time=runtime.sim.clock,
                    rank=matcher.rank,
                    **leak,
                )

    def _check_gates(self, runtime) -> None:
        for key, state in runtime._gates.items():
            arrived, parties = state["arrived"], state["parties"]
            self.record(
                R.GATE_LEAK,
                f"gate {key!r} opened but never completed "
                f"({arrived}/{parties} arrivals)",
                time=runtime.sim.clock,
                key=repr(key),
                arrived=arrived,
                parties=parties,
            )

    def _check_shm(self, runtime) -> None:
        for node, region in runtime._shm_regions.items():
            leftovers = region.unconsumed()
            if leftovers:
                self.record(
                    R.SHM_LEAK,
                    f"shm region of node {node} finished with "
                    f"{len(leftovers)} unconsumed value(s)",
                    time=runtime.sim.clock,
                    node=node,
                    keys=[repr(k) for k in leftovers[:16]],
                )
            blocked = region.blocked_keys()
            if blocked:
                self.record(
                    R.SHM_LEAK,
                    f"shm region of node {node} finished with readers still "
                    f"blocked on {len(blocked)} key(s)",
                    time=runtime.sim.clock,
                    node=node,
                    keys=[repr(k) for k in blocked[:16]],
                    blocked_readers=True,
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "strict" if self.strict else "collect"
        return f"<Sanitizer {mode} reports={len(self.reports)}>"


def _describe_wait(target) -> str:
    """Human-readable description of a process's wait target."""
    from repro.sim.engine import AllOf, AnyOf, Process, Timeout

    if target is None:
        return "nothing (about to resume)"
    if isinstance(target, Process):
        return f"process:{target.name}"
    if isinstance(target, Timeout):
        return "timeout"
    if isinstance(target, AllOf):
        children = getattr(target, "_children", ())
        pending = sum(1 for c in children if not c.triggered)
        return f"all_of({pending}/{len(children)} pending)"
    if isinstance(target, AnyOf):
        return f"any_of({len(getattr(target, '_children', ()))} children)"
    from repro.mpi.request import Request

    if isinstance(target, Request):
        return f"request:{target.kind}(src={target.source}, tag={target.tag})"
    return f"event:{type(target).__name__}"
