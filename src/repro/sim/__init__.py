"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event kernel in the style of
simpy, specialised for the needs of the cluster models in
:mod:`repro.machine`:

* :class:`~repro.sim.engine.Simulator` — the event loop (an event
  calendar: the FIFO of entries due now, each later pending time's
  entries in creation order and a heap of those times, so same-time
  events fire in creation order, making every run bit-reproducible;
  zero-delay wakeups are tuple entries in the due FIFO — see
  ``docs/performance.md``).
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout`
  / :class:`~repro.sim.engine.Process` — the waitables a coroutine can
  ``yield``; a callable waiting on an event is a continuation step,
  ``Simulator.hop`` schedules one, and ``Event.then`` chains an FCFS
  stage behind an event.
* :class:`~repro.sim.engine.AllOf` / :class:`~repro.sim.engine.AnyOf` —
  composite waits (used by ``MPI_Waitall`` / ``MPI_Waitany``).
* :class:`~repro.sim.resources.FCFSQueue` — a work-conserving
  first-come-first-served server used to model NIC pipelines and node
  memory engines.
* :class:`~repro.sim.resources.Resource` — counting semaphore with FIFO
  waiters (used for SHArP operation contexts).
* :class:`~repro.sim.table.LazyTable` — a dense index -> item table
  whose items (per-rank engines, per-node queues, matchers) are built
  on first access.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import FCFSQueue, Resource
from repro.sim.table import LazyTable
from repro.sim.timeline import Span, Timeline
from repro.sim.trace import Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FCFSQueue",
    "LazyTable",
    "Process",
    "Resource",
    "Simulator",
    "Span",
    "Timeline",
    "Timeout",
    "Tracer",
]
