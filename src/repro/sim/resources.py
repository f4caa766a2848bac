"""Queued resources for the simulation kernel.

Two primitives cover every piece of contended hardware in the machine
models:

:class:`FCFSQueue`
    A work-conserving single-server queue with O(1) state (a
    "busy-until" horizon).  Jobs submitted with a *service time* complete
    at ``max(now, busy_until) + service``.  NIC pipelines and per-node
    memory engines are FCFS queues; chunked submission by the transport
    layer provides interleaving between concurrent flows.

:class:`Resource`
    A counting semaphore with FIFO waiters, used for scarce hardware
    contexts (e.g. the small number of concurrent SHArP operations a
    switch supports).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.engine import _SCHEDULED, Event, Simulator

__all__ = ["FCFSQueue", "Resource"]


class FCFSQueue:
    """Work-conserving first-come-first-served server.

    The queue keeps only a scalar ``busy_until`` horizon, so submitting a
    job is one calendar append (plus a heap push of its time when no
    other entry is pending then) regardless of backlog.  Total served
    work is tracked for utilisation accounting.  The first submit after
    a rewind registers the queue with its simulator, whose
    :meth:`~repro.sim.engine.Simulator.reset` rewinds it.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Label used in traces and error messages.
    """

    __slots__ = ("sim", "name", "busy_until", "served_time", "job_count")

    def __init__(self, sim: Simulator, name: str = "fcfs"):
        self.sim = sim
        self.name = name
        self.busy_until: float = 0.0
        self.served_time: float = 0.0
        self.job_count: int = 0

    def book(self, service: float) -> float:
        """Book a job needing ``service`` seconds; returns the time
        (on :attr:`~repro.sim.engine.Simulator.now`) it completes.

        The queue arithmetic every job goes through: :meth:`submit`
        schedules a completion event at the returned time, and the loop
        reschedules an event with a follow-on stage there (see
        :meth:`~repro.sim.engine.Event.then`).
        """
        sim = self.sim
        if not service >= 0:
            _report_misuse(
                sim, f"invalid service time {service} on {self.name}",
                resource=self.name, service=service,
            )
            raise SimulationError(f"invalid service time {service} on {self.name}")
        if not self.job_count:
            # First job since the last rewind: register, so that
            # Simulator.reset rewinds this queue.
            sim._queues.append(self)
        now = sim.now
        start = self.busy_until if self.busy_until > now else now
        done_at = start + service
        self.busy_until = done_at
        self.served_time += service
        self.job_count += 1
        return done_at

    def submit(self, service: float) -> Event:
        """Enqueue a job needing ``service`` seconds; returns its completion event."""
        done_at = self.book(service)
        sim = self.sim
        # The completion event, scheduled inline (the hot path of
        # Simulator.event() followed by Event.succeed()).
        pool = sim._pool_event
        if pool:
            sim._n_pool_hit += 1
            ev = pool.pop()
        else:
            ev = Event(sim)
        ev._value = done_at
        ev._state = _SCHEDULED
        # Scheduled after ``done_at - now``, so keyed on ``now + (done_at
        # - now)``: with a busy horizon that can differ from ``done_at``
        # in the last bit.
        sim._schedule(ev, done_at - sim.now)
        return ev

    def reset(self) -> None:
        """Clear the horizon and accounting.

        :meth:`Simulator.reset` calls this for every queue submitted to
        since its last rewind; untouched queues are already pristine.
        """
        self.busy_until = 0.0
        self.served_time = 0.0
        self.job_count = 0

    def delay_until_free(self) -> float:
        """Seconds until the server would start a job submitted now."""
        return max(0.0, self.busy_until - self.sim.now)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time spent serving jobs."""
        elapsed = self.sim.clock
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.served_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FCFSQueue {self.name!r} busy_until={self.busy_until:.3e}>"


class Resource:
    """Counting semaphore with FIFO waiters.

    Usage inside a process::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters", "name")

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()
        self.name = name

    def acquire(self) -> Event:
        """Event that fires once a unit of the resource is held."""
        ev = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            _report_misuse(
                self.sim, f"release() without acquire() on {self.name}",
                resource=self.name,
            )
            raise SimulationError(f"release() without acquire() on {self.name}")
        if self._waiters:
            # Ownership passes directly; in_use stays constant.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def reset(self) -> None:
        """Release all units and forget waiters (for simulator reuse)."""
        self.in_use = 0
        self._waiters.clear()

    @property
    def n_waiting(self) -> int:
        """Number of queued acquire requests."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self.in_use}/{self.capacity}"
            f" (+{len(self._waiters)} waiting)>"
        )


def _report_misuse(sim: Simulator, message: str, **details) -> None:
    """Record a resource-misuse report when the simulation is sanitized."""
    sanitizer = getattr(sim, "sanitizer", None)
    if sanitizer is not None:
        from repro.check.reports import RESOURCE_MISUSE

        sanitizer.record(RESOURCE_MISUSE, message, time=sim.clock, **details)
