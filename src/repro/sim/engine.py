r"""The discrete-event loop: events, processes, and the simulator.

The kernel is deliberately tiny.  A *process* is a Python generator that
``yield``\ s *waitables* (events).  The simulator owns an *event
calendar*: a FIFO ``deque`` of the entries due at the current time,
and a dict from each later pending time to its entry (or to a list of
its entries, once a second one shares the time), plus a heap of those
times as plain floats.  When an event fires, every process waiting on
it is resumed with the event's value (or has the event's exception
thrown into it), and every other waiter is called with the event.

Continuations
-------------
Not everything that waits is a process.  A callable waiter is a
*continuation* step: it runs inside the dispatch that fires its event,
and :meth:`Simulator.hop` calls one from a zero-delay entry, the slot a
process start takes.  :mod:`repro.mpi.transport` moves every message
this way.  An event may also carry one follow-on FCFS stage
(:meth:`Event.then`): when it fires, the loop submits the stage's job in
the same dispatch and moves the event's waiters, unresumed, to the
job's completion event.  That is how a copy or a combine hands its
waiter to the node memory engine.  A process that yields None goes on
at once, without a calendar entry (a charged primitive with nothing to
charge returns None).

Determinism
-----------
Two events scheduled for the same timestamp fire in the order they were
scheduled, so a simulation is a pure function of its inputs — crucial
for reproducing the paper's figures and for debugging collective
algorithms.

The calendar gives this order by construction: an entry is appended
to its time's entries when it is scheduled, the loop drains the due
FIFO before it moves on, and the next time's entries then join the
due FIFO in that order.  Entries
for the current time, zero-delay ones included, join the due FIFO
behind those already there, so they run before time advances.  The
dispatch order is that of a heap of ``(time, seq, event)`` triples with
a monotone tie-breaking ``seq``, without the ``seq``.

Fast paths
----------
The hot paths avoid Python calls and allocation wherever the slow
kernel paid for them:

* :meth:`Simulator.run` is the only dispatcher: each entry is popped,
  fired, handed to its waiting processes and recycled in one frame —
  a process waiting on an event is resumed inline, not through a call;
* a waiting :class:`Process` or :class:`AllOf` is stored as itself in
  the event's waiter slots, so waiting allocates no bound method;
* zero-delay wakeups, the most common schedule, are tuple entries
  appended to the due FIFO: no event is allocated, and neither the
  dict nor the time heap is touched;
* many delayed entries share a pending time and are appended to its
  list, and a time nothing else shares holds its one entry bare, with
  no list;
* process start and :meth:`Process.interrupt` enqueue a direct resume
  (no starter/proxy ``Event``), and so does waiting on an
  already-processed event;
* the first waiter of an event is stored in a slot (``_cb1``); the
  callback list is only allocated for the second waiter;
* processed one-shot events (``Event``/``Timeout``/``AllOf``) that no
  one else references are recycled through per-class free pools.

Idle fences
-----------
:meth:`Simulator.idle` returns an event that fires once the calendar
holds nothing else: the due FIFO is empty and no time is pending.
Every fence pending at that instant fires then, in ascending
``order`` whatever order they were requested in, so processes that
fence before a step all start it from one common release on an idle
machine.  The loop looks for fences only where the calendar has
drained, so the per-event path does not pay for them.

Deadlock detection
------------------
:meth:`Simulator.run` raises :class:`~repro.errors.DeadlockError` when
the event calendar drains while processes are still alive and
blocked (after any pending fences have fired and their waiters have
run).  This is the simulated analogue of an MPI job hanging on an
unmatched receive, and it turns subtle collective-algorithm bugs into
crisp test failures.  A continuation that waits on a peer joins the
same live set while it waits, with a ``name`` and a ``_waiting_on``
like a process, so the report names it too.

Sanitizing
----------
``Simulator(sanitize=True)`` (or the ``REPRO_SANITIZE=1`` environment
variable, consulted by every constructor) installs a
:class:`~repro.check.sanitizer.Sanitizer` on ``self.sanitizer``.  The
kernel then checks event-time monotonicity each time the loop advances
to a new pending time and hands the sanitizer the blocked-process wait
graph when a deadlock is detected; the MPI layers above feed the same
sanitizer their own invariants (see :mod:`repro.check`).
:meth:`Simulator.run` reads the sanitizer once per call, so the loop
pays one local truth test per time advance for this when the sanitizer
is off.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.errors import DeadlockError, InterruptError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
]

# Event lifecycle states.
_PENDING = 0  # not yet triggered
_SCHEDULED = 1  # value decided, sitting in the event calendar
_PROCESSED = 2  # waiters have run; .value is final

# Calendar entries come in two kinds, told apart by their class:
#
# * a bare event is a *delayed* entry: it fires the event (counted by
#   ``heap_pushes`` when scheduled and ``heap_pops`` when dispatched);
# * an ``(event, waiter, value, ok)`` tuple is a *zero-delay* entry
#   (counted by ``nowq_entries`` when dispatched).  With ``waiter``
#   None it fires ``event`` like a delayed entry; otherwise it hands
#   one outcome to one waiter: a process is resumed with ``(value,
#   ok)``, any other waiter is called with ``event``, the
#   already-processed event it attached to.  A process start and a
#   continuation's hop name no event (``(None, process, None, True)``,
#   ``(None, callback, None, True)``) and an interrupt names its own
#   error (``(error, process, error, False)``).
#
# Simulator._schedule places delayed entries; zero-delay entries are
# appended to Simulator._due, in this module only (other modules call
# _schedule).

# Free-pool tuning.  ``_POOLED_REFS`` is the refcount of a fired event
# whose only remaining references are :meth:`Simulator.run`'s loop
# local and ``getrefcount``'s own argument — i.e. nobody retained it.
# If a future interpreter counts differently the comparison simply
# never matches and recycling is skipped (safe);
# tests/sim/test_engine.py asserts reuse actually happens on CPython.
_POOLED_REFS = 2
_POOL_CAP = 4096
_getrefcount = getattr(sys, "getrefcount", None)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    schedules it on the simulator's calendar (optionally after a delay),
    and once the loop reaches it, its waiters run and it becomes
    *processed*.  Waiting on an already-processed event resumes the
    waiter immediately (at the current simulation time).

    A waiter is a :class:`Process` (resumed by the loop), an
    :class:`AllOf` (called with the event) or any other callable taking
    the event.  The first waiter lives in the ``_cb1`` slot;
    ``callbacks`` stays ``None`` until a second waiter arrives, so the
    common single-waiter case allocates no list.
    """

    __slots__ = (
        "sim", "_cb1", "callbacks", "_value", "_ok", "_state", "_then",
        "__weakref__",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb1: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok: bool = True
        self._state: int = _PENDING
        # The follow-on FCFS stage, ``(queue, service)``, or None.
        self._then: Optional[tuple] = None
        sim._n_events += 1

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value/exception has been decided."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once waiters have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful with ``value`` after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self._state = _SCHEDULED
        if delay == 0.0:
            self.sim._due.append((self, None, None, None))
        else:
            self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed with ``exception`` after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = _SCHEDULED
        self.sim._schedule(self, delay)
        return self

    def then(self, queue, service: float) -> "Event":
        """Follow this event with one job of ``service`` seconds on the
        FCFS ``queue``; returns the event.

        When the event fires, :meth:`Simulator.run` submits the job in
        the same dispatch and moves the event's waiters, unresumed, to
        the job's completion event, so a waiter resumes only once both
        legs are done.
        """
        self._then = (queue, service)
        return self

    # -- internal ----------------------------------------------------------

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Attach waiter ``cb``; it runs immediately (at the current
        time, in schedule order) if the event has already been
        processed."""
        if self._state == _PROCESSED:
            self.sim._due.append((self, cb, self._value, self._ok))
        elif self._cb1 is None and self.callbacks is None:
            self._cb1 = cb
        elif self.callbacks is None:
            self.callbacks = [cb]
        else:
            self.callbacks.append(cb)

    def _remove_callback(self, cb: Callable[["Event"], None]) -> None:
        """Detach waiter ``cb`` (no-op if absent)."""
        if self._cb1 is cb:
            lst = self.callbacks
            if lst:
                self._cb1 = lst.pop(0)
                if not lst:
                    self.callbacks = None
            else:
                self._cb1 = None
            return
        lst = self.callbacks
        if lst is not None:
            try:
                lst.remove(cb)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _SCHEDULED: "scheduled", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay: {delay}")
        super().__init__(sim)
        self._value = value
        self._ok = True
        self._state = _SCHEDULED
        sim._schedule(self, delay)


class Process(Event):
    """A running generator coroutine.

    A process is itself an event: it triggers with the generator's
    return value when the generator finishes (or with the exception if
    it raises), so processes can be ``yield``-ed to join them.  While it
    waits, the process itself sits in the awaited event's waiter slots;
    :meth:`Simulator.run` resumes it there.
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function or to use "
                "'yield from' inside it?"
            )
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        sim._live_processes.add(self)
        # Kick off at the current time.
        sim._due.append((None, self, None, True))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process.

        The process is resumed at the current simulation time regardless
        of what it was waiting for (the original wait target stays
        triggered-able; this process is detached from its waiters).
        The interrupt is delivered in schedule order: if the process
        waits on something else by then (it had not started yet), it is
        detached from that too, and if it has finished by then, the
        interrupt is dropped.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        self._detach()
        error = InterruptError(cause)
        self.sim._due.append((error, self, error, False))

    def _detach(self) -> None:
        """Stop waiting: leave the waiter slots of the awaited event."""
        target = self._waiting_on
        if target is not None:
            target._remove_callback(self)
            self._waiting_on = None

    def _accepts(self, source: Any, value: Any) -> bool:
        """Whether a hand-off from ``source``, which this process does
        not wait on, resumes it (the loop's cold path).

        Two hand-offs get here.  An interrupt (an entry naming its own
        error as the source) is dropped if the process has finished,
        and otherwise detaches it from whatever it waits on now.  A
        wake-up for an event the process no longer waits on is dropped.
        """
        if source is not value or self._state != _PENDING:
            return False
        self._detach()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {status}>"


class AllOf(Event):
    """Fires once every child event has fired.

    Succeeds with the list of child values (in the order the children
    were given).  Fails fast with the first child failure.  The
    composite is its own waiter on every child (see :meth:`__call__`).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._arm(events)

    def _arm(self, events: Iterable[Event]) -> None:
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child._add_callback(self)

    def __call__(self, child: Event) -> None:
        """Count one fired child."""
        if self._state != _PENDING:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires as soon as any child event fires.

    Succeeds with ``(index, value)`` of the first child to complete;
    fails if that child failed.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for idx, child in enumerate(self._children):
            child._add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self._state != _PENDING:
                return
            if child._ok:
                self.succeed((idx, child._value))
            else:
                self.fail(child._value)

        return on_child


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    3.0
    """

    def __init__(self, sanitize: Union[bool, Any, None] = None) -> None:
        self.now: float = 0.0
        # The event calendar: the FIFO of the entries due now, and for
        # each later pending time its entry, or the list of its entries
        # once a second one shares the time (see _schedule), with a
        # heap of those times (each time once).
        self._due: deque = deque()
        self._cal: dict[float, Any] = {}
        self._times: list[float] = []
        # Live processes, and continuations blocked on a peer.
        self._live_processes: set = set()
        # Pending idle fences, ``(order, event)`` in request order.
        self._fences: list[tuple] = []
        # Free pools of processed, unreferenced one-shot events.
        self._pool_event: list[Event] = []
        self._pool_timeout: list[Timeout] = []
        self._pool_allof: list[AllOf] = []
        # FCFS queues submitted to since the last reset(); each queue
        # appends itself on its first submit (see FCFSQueue.submit).
        self._queues: list = []
        # Deterministic perf counters (see ``counters()``).
        self._n_events: int = 0
        self._n_heap_push: int = 0
        self._n_heap_pop: int = 0
        self._n_nowq: int = 0
        self._n_pool_hit: int = 0
        self._n_pool_evict: int = 0
        self._n_macro: int = 0
        #: per-run log of macro charges: ``(label, start_time, duration,
        #: ((phase, seconds), ...))`` tuples in charge order.  Consumed
        #: by the hybrid-fidelity spot-check oracle; cleared on reset().
        self.macro_log: list[tuple] = []
        # ``sanitize`` is tri-state: None consults REPRO_SANITIZE, a
        # bool forces it, and a Sanitizer instance is installed as-is
        # (lazy import: repro.check sits above the kernel in the
        # layering and must not be a hard dependency of it).
        if sanitize is None or sanitize is True or sanitize is False:
            from repro.check.sanitizer import as_sanitizer

            self._sanitizer = as_sanitizer(sanitize)
        else:
            self._sanitizer = sanitize

    @property
    def sanitizer(self):
        """The installed :class:`~repro.check.sanitizer.Sanitizer` (or None)."""
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, value) -> None:
        self._sanitizer = value

    def reset(self) -> None:
        """Rewind to the pristine ``t=0`` state of a fresh simulator.

        Drops every scheduled event, pending fence and registered
        process and zeroes the perf counters, so the next run is again
        a pure function of its inputs: a run on a reset simulator
        produces results bit-identical to the same run on a newly
        constructed one.  The event free pools are deliberately *kept*
        — reuse never changes results, but it does mean
        ``events_allocated`` on a reused session reads lower than on a
        cold one (the golden counter tests use fresh sessions for
        exactly this reason).

        Every :class:`~repro.sim.resources.FCFSQueue` submitted to since
        the last reset is rewound here, and no other: a queue registers
        itself on its first submit, so the cost is that of the queues
        the last run touched, not of every queue built against this
        simulator.  Resources and stores must still be reset by their
        owners — see :meth:`repro.machine.machine.Machine.reset`.
        """
        self.now = 0.0
        self._due.clear()
        self._cal.clear()
        self._times.clear()
        self._live_processes.clear()
        self._fences.clear()
        self._n_events = 0
        self._n_heap_push = 0
        self._n_heap_pop = 0
        self._n_nowq = 0
        self._n_pool_hit = 0
        self._n_pool_evict = 0
        self._n_macro = 0
        self.macro_log.clear()
        for queue in self._queues:
            queue.reset()
        self._queues.clear()
        if self._sanitizer is not None:
            self._sanitizer.reset()

    def counters(self) -> dict[str, int]:
        """Deterministic kernel counters since construction/:meth:`reset`.

        ``events_allocated`` counts ``Event.__init__`` calls (pool
        reuses skip it); ``pool_reuses`` counts factory hits on the
        free pools; ``heap_pushes`` counts delayed calendar entries
        scheduled, and ``heap_pops`` and ``nowq_entries`` count the
        delayed and zero-delay entries :meth:`run` dispatched (they
        are written back when ``run`` returns or raises; the names
        predate the calendar);
        ``pool_evictions`` counts recyclable events dropped because
        their pool was at :data:`_POOL_CAP` (bounded pool memory at
        10k+ ranks); ``macro_events`` counts :meth:`macro_charge`
        dispatches (hybrid-fidelity phase charges).
        """
        return {
            "events_allocated": self._n_events,
            "heap_pushes": self._n_heap_push,
            "heap_pops": self._n_heap_pop,
            "nowq_entries": self._n_nowq,
            "pool_reuses": self._n_pool_hit,
            "pool_evictions": self._n_pool_evict,
            "macro_events": self._n_macro,
        }

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event (recycled when possible)."""
        pool = self._pool_event
        if pool:
            self._n_pool_hit += 1
            return pool.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay``."""
        pool = self._pool_timeout
        if not pool:
            return Timeout(self, delay, value)
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay: {delay}")
        self._n_pool_hit += 1
        t = pool.pop()
        t._value = value
        t._state = _SCHEDULED
        self._schedule(t, delay)
        return t

    def process(
        self, gen: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Register ``gen`` as a new process starting now."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        pool = self._pool_allof
        if pool:
            self._n_pool_hit += 1
            ev = pool.pop()
            ev._arm(events)
            return ev
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def idle(self, order: float) -> Event:
        """Event that fires once the calendar holds nothing else.

        The fence fires at the first instant the due FIFO is empty and
        no time is pending.  Every fence pending then fires at that
        instant, in ascending ``order`` (ties in request order), before
        anything their waiters schedule.  A harness fences each rank
        with its rank as ``order`` to release them all at once, in rank
        order, on an idle machine.

        >>> sim = Simulator()
        >>> def rank(r, delay, log):
        ...     yield sim.timeout(delay)
        ...     yield sim.idle(r)
        ...     log.append((r, sim.now))
        >>> log = []
        >>> for r, delay in ((0, 2.0), (1, 1.0)):
        ...     _ = sim.process(rank(r, delay, log))
        >>> sim.run()
        >>> log
        [(0, 2.0), (1, 2.0)]
        """
        event = self.event()
        self._fences.append((order, event))
        return event

    # -- scheduling ----------------------------------------------------------

    def hop(self, callback: Callable[[Any], None]) -> None:
        """Call ``callback`` from an entry due now, behind every entry
        already due: a continuation's step takes the calendar slot a
        process start or completion would.  The entry is a zero-delay
        tuple; ``callback`` gets None.
        """
        self._due.append((None, callback, None, True))

    def _schedule(self, event: Event, delay: float) -> None:
        """Schedule ``event`` to fire after ``delay``, behind every entry
        already pending for that time.

        A zero delay makes a zero-delay entry in the due FIFO
        (:meth:`Event.succeed` and process completion append that
        themselves); anything else is a delayed entry, the bare event.
        A time's first delayed entry is stored bare, and only a second
        one opens a list for the time, so a time nobody shares costs a
        dict key and a float in the time heap.  A delay too small to
        move the clock makes a delayed entry for :attr:`now`, which
        joins the due FIFO.
        """
        if delay == 0.0:
            self._due.append((event, None, None, None))
            return
        if not delay >= 0:
            raise SimulationError(f"cannot schedule with delay {delay}")
        self._n_heap_push += 1
        at = self.now + delay
        if at == self.now:
            self._due.append(event)
            return
        slot = self._cal.setdefault(at, event)
        if slot is event:
            heappush(self._times, at)
        elif slot.__class__ is list:
            slot.append(event)
        else:
            self._cal[at] = [slot, event]

    def macro_charge(
        self,
        event: Event,
        value: Any = None,
        delay: float = 0.0,
        *,
        label: str = "",
        phases: tuple = (),
    ) -> None:
        """Charge a whole validated phase group as one macro-event.

        Hybrid-fidelity mode replaces the per-message coroutine dance of
        a collective phase with a single scheduled completion: ``event``
        fires with ``value`` after ``delay`` simulated seconds, exactly
        as if the exact path had run — but in one calendar entry
        instead of thousands.  ``label`` and ``phases`` (``(name,
        seconds)`` pairs that sum to ``delay``) are appended to :attr:`macro_log` so the
        spot-check oracle can compare each charge against an exact
        re-execution.
        """
        self._n_macro += 1
        self.macro_log.append((label, self.now, delay, tuple(phases)))
        event.succeed(value, delay=delay)

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event calendar drains or ``until`` is reached.

        Each iteration dispatches the head of the due FIFO; once it
        drains, the loop advances the clock to the earliest pending
        time, whose entries join the due FIFO.  Firing an event
        resumes its waiting processes, calls its other waiters, and
        recycles the event into its free pool when nobody else holds
        it, all in this one frame.

        When the calendar drains with fences pending (:meth:`idle`),
        they fire and the loop goes on.

        Raises :class:`SimulationError` if ``until`` is not a time at
        or after :attr:`now`, and :class:`DeadlockError` if the calendar
        drains, with no fence pending, while processes are still alive
        (blocked on events nobody will trigger).
        """
        now = self.now
        if until is not None and not until >= now:
            raise SimulationError(
                f"cannot run until t={until}: the clock already reached t={now}"
            )
        due = self._due
        cal = self._cal
        times = self._times
        live = self._live_processes
        sanitizer = self._sanitizer
        pooling = _getrefcount is not None
        getrefcount = _getrefcount
        pool_event = self._pool_event
        pool_timeout = self._pool_timeout
        pool_allof = self._pool_allof
        n_pops = n_nowq = n_evict = 0
        try:
            while True:
                if due:
                    event = due.popleft()
                else:
                    # Everything due now has run: advance the clock to
                    # the next pending time.
                    if not times:
                        if not self._fences:
                            break
                        self._release_fences()
                        continue
                    at = times[0]
                    if until is not None and at > until:
                        self.now = until
                        return
                    if sanitizer is not None and at < now:
                        event = cal[at]
                        if event.__class__ is list:
                            event = event[0]
                        sanitizer.heap_regression(now, at, event)
                        raise SimulationError(
                            f"event-time regression: next event at t={at} "
                            f"but the clock already reached t={now}"
                        )
                    heappop(times)
                    self.now = now = at
                    event = cal.pop(at)
                    if event.__class__ is list:
                        # The time's entries join the due FIFO.
                        due.extend(event)
                        event = due.popleft()
                if event.__class__ is tuple:
                    event, waiter, value, ok = event
                    n_nowq += 1
                else:
                    n_pops += 1
                    waiter = None
                if waiter is None:
                    # Fire the event: its waiters get its outcome.
                    event._state = _PROCESSED
                    waiter = event._cb1
                    rest = event.callbacks
                    if waiter is not None:
                        event._cb1 = None
                    if rest is not None:
                        event.callbacks = None
                    then = event._then
                    if then is not None:
                        # Submit the follow-on stage and hand it the
                        # waiters, unresumed.
                        event._then = None
                        nxt = then[0].submit(then[1])
                        nxt._cb1 = waiter
                        nxt.callbacks = rest
                        if waiter.__class__ is Process:
                            waiter._waiting_on = nxt
                        if rest is not None:
                            for other in rest:
                                if other.__class__ is Process:
                                    other._waiting_on = nxt
                        nxt = waiter = rest = None
                    elif rest is not None:
                        rest = iter(rest)
                        if waiter is None:
                            waiter = next(rest, None)
                    value = event._value
                    ok = event._ok
                    fired = pooling
                else:
                    rest = None
                    fired = False
                while waiter is not None:
                    if waiter.__class__ is not Process:
                        waiter(event)
                    elif waiter._waiting_on is event or waiter._accepts(
                        event, value
                    ):
                        # Resume the waiting process in this frame.
                        waiter._waiting_on = None
                        try:
                            if ok:
                                target = waiter._gen.send(value)
                            else:
                                target = waiter._gen.throw(value)
                            while target is None:
                                # Nothing to wait for: go on at once.
                                target = waiter._gen.send(None)
                        except StopIteration as stop:
                            live.discard(waiter)
                            waiter._value = stop.value
                            waiter._ok = True
                            waiter._state = _SCHEDULED
                            # Its completion is due now.
                            due.append((waiter, None, None, None))
                        except BaseException as exc:
                            live.discard(waiter)
                            if waiter._cb1 is None and not waiter.callbacks:
                                # Nobody is joining this process:
                                # surface the failure.
                                raise
                            waiter._value = exc
                            waiter._ok = False
                            waiter._state = _SCHEDULED
                            self._schedule(waiter, 0.0)
                        else:
                            if not isinstance(target, Event):
                                raise SimulationError(
                                    f"process {waiter.name!r} yielded "
                                    f"{target!r}; processes may only yield "
                                    "Event instances (Timeout, Process, "
                                    "AllOf, ...)"
                                )
                            if target.sim is not self:
                                raise SimulationError(
                                    "yielded an event belonging to another "
                                    "Simulator"
                                )
                            waiter._waiting_on = target
                            if (
                                target._cb1 is None
                                and target._state != _PROCESSED
                                and target.callbacks is None
                            ):
                                target._cb1 = waiter
                            else:
                                target._add_callback(waiter)
                            target = None
                    waiter = next(rest, None) if rest is not None else None
                if fired:
                    # Recycle the event if nobody else references it.
                    cls = event.__class__
                    if cls is Event:
                        pool = pool_event
                    elif cls is Timeout:
                        pool = pool_timeout
                    elif cls is AllOf:
                        pool = pool_allof
                    else:
                        continue
                    if getrefcount(event) != _POOLED_REFS:
                        continue
                    if len(pool) >= _POOL_CAP:
                        # Recyclable but the pool is full: drop it so
                        # pool memory stays bounded instead of growing
                        # to the high-water mark.
                        n_evict += 1
                        continue
                    event._value = None
                    event._ok = True
                    event._state = _PENDING
                    if cls is AllOf:
                        event._children = []
                    pool.append(event)
        finally:
            self._n_heap_pop += n_pops
            self._n_nowq += n_nowq
            self._n_pool_evict += n_evict
        if live:
            blocked = sorted(p.name for p in live)
            wait_graph = (
                sanitizer.on_deadlock(self) if sanitizer is not None else None
            )
            preview = ", ".join(blocked[:8])
            more = "" if len(blocked) <= 8 else f" (+{len(blocked) - 8} more)"
            raise DeadlockError(
                f"simulation deadlocked at t={self.now}: "
                f"{len(blocked)} process(es) still blocked: {preview}{more}",
                blocked=blocked,
                wait_graph=wait_graph,
            )

    def _release_fences(self) -> None:
        """Fire every pending fence now, in ascending ``order``."""
        fences = self._fences
        fences.sort(key=itemgetter(0))
        for _, event in fences:
            event.succeed()
        fences.clear()

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none).  A pending
        fence counts as due now once nothing else is pending."""
        if self._due or (self._fences and not self._times):
            return self.now
        return self._times[0] if self._times else float("inf")
