"""The kernel's dispatch order against an explicit ``(time, seq)`` heap.

Hypothesis draws a random schedule — processes made of sleeps with
forced ties, zero-delay and delayed ``succeed`` calls, waits on manual
events (late ones included), plain callbacks, ``AllOf`` waits, FCFS
submits that build a busy horizon, joins, spawns and idle fences —
and runs it on
:class:`~repro.sim.engine.Simulator`, split into ``run(until=...)``
calls.  The same schedule also runs on
:class:`RefSim` below: a reference kernel with no fast paths that
orders every entry by an explicit ``(time, seq)`` heap, a monotone
counter breaking ties, and releases its fences, sorted by order, once
that heap is empty.  The two event logs must be identical.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FCFSQueue, Simulator


class RefEvent:
    """A one-shot event of the reference kernel."""

    def __init__(self, ref):
        self.ref = ref
        self.waiters = []
        self.value = None
        self.triggered = False
        self.processed = False

    def succeed(self, value=None, delay=0.0):
        assert not self.triggered
        self.triggered = True
        self.value = value
        self.ref.push(self.ref.now + delay, ("fire", self))
        return self

    def _add_callback(self, waiter):
        if self.processed:
            self.ref.push(self.ref.now, ("hand", self, waiter))
        else:
            self.waiters.append(waiter)


class RefAllOf(RefEvent):
    def __init__(self, ref, children):
        super().__init__(ref)
        self.children = list(children)
        self.remaining = len(self.children)
        if not self.children:
            self.succeed([])
        for child in self.children:
            child._add_callback(self)

    def __call__(self, child):
        if self.triggered:
            return
        self.remaining -= 1
        if self.remaining == 0:
            self.succeed([c.value for c in self.children])


class RefProcess(RefEvent):
    def __init__(self, ref, gen):
        super().__init__(ref)
        self.gen = gen
        ref.push(ref.now, ("hand", None, self))


class RefQueue:
    """FCFS server: a job completes at ``max(now, busy) + service``."""

    def __init__(self, ref):
        self.ref = ref
        self.busy = 0.0

    def submit(self, service):
        now = self.ref.now
        done = max(self.busy, now) + service
        self.busy = done
        ev = RefEvent(self.ref)
        ev.triggered = True
        ev.value = done
        self.ref.push(now + (done - now), ("fire", ev))
        return ev


class RefSim:
    """Reference kernel: one ``(time, seq, entry)`` heap and a list of
    pending fences, nothing else."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.fences = []

    def push(self, time, entry):
        self.seq += 1
        heappush(self.heap, (time, self.seq, entry))

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        return RefEvent(self).succeed(value, delay)

    def all_of(self, events):
        return RefAllOf(self, events)

    def process(self, gen):
        return RefProcess(self, gen)

    def idle(self, order):
        self.seq += 1
        event = RefEvent(self)
        self.fences.append((order, self.seq, event))
        return event

    def run(self, until=None):
        while self.heap or self.fences:
            if not self.heap:
                # Nothing else is pending: every fence fires now.
                for _, _, event in sorted(self.fences, key=lambda f: f[:2]):
                    event.succeed()
                self.fences = []
                continue
            if until is not None and self.heap[0][0] > until:
                self.now = until
                return
            self.now, _, entry = heappop(self.heap)
            if entry[0] == "fire":
                event = entry[1]
                event.processed = True
                waiters, event.waiters = event.waiters, []
                for waiter in waiters:
                    self.hand(event, waiter)
            else:
                self.hand(entry[1], entry[2])

    def hand(self, source, waiter):
        if not isinstance(waiter, RefProcess):
            waiter(source)
            return
        try:
            target = waiter.gen.send(None if source is None else source.value)
        except StopIteration as stop:
            waiter.triggered = True
            waiter.value = stop.value
            self.push(self.now, ("fire", waiter))
        else:
            target._add_callback(waiter)


# -- the schedule, runnable on either kernel ---------------------------------

N_EVENTS = 3
N_QUEUES = 2


def _sleeper(sim, delay, tag, log):
    yield sim.timeout(delay)
    log.append(("child", tag, sim.now))
    return tag


def _script(sim, i, steps, events, procs, queues, log):
    for n, step in enumerate(steps):
        kind, value = step[0], None
        if kind == "sleep":
            value = yield sim.timeout(step[1], (i, n))
        elif kind == "fire":
            if not events[step[1]].triggered:
                events[step[1]].succeed((i, n), delay=step[2])
        elif kind == "wait":
            value = yield events[step[1]]
        elif kind == "watch":
            events[step[1]]._add_callback(
                lambda e, tag=(i, n): log.append(("cb", tag, sim.now, e.value))
            )
        elif kind == "all":
            children = [sim.timeout(d, d) for d in step[1]]
            if step[2] is not None:
                children.append(events[step[2]])
            value = yield sim.all_of(children)
        elif kind == "submit":
            value = yield queues[step[1]].submit(step[2])
        elif kind == "join":
            if i:
                value = yield procs[step[1] % i]
        elif kind == "spawn":
            child = sim.process(_sleeper(sim, step[1], (i, n), log))
            if step[2]:
                value = yield child
        elif kind == "idle":
            value = yield sim.idle(step[1])
        log.append((i, n, sim.now, value))
    return i


def _closer(sim, events, log):
    # Trigger every manual event nobody fired, so no schedule deadlocks.
    yield sim.timeout(10.0)
    for k, event in enumerate(events):
        if not event.triggered:
            event.succeed(("closed", k))
    log.append(("closer", sim.now))


def _drive(sim, make_queue, scripts, stops):
    log = []
    events = [sim.event() for _ in range(N_EVENTS)]
    queues = [make_queue(sim) for _ in range(N_QUEUES)]
    procs = []
    for i, steps in enumerate(scripts):
        procs.append(sim.process(_script(sim, i, steps, events, procs, queues, log)))
    sim.process(_closer(sim, events, log))
    for until in stops:
        sim.run(until=until)
        log.append(("stop", sim.now))
    sim.run()
    log.append(("end", sim.now))
    return log


# Few distinct delays, so that many entries share a time; 0.1 and 0.3
# make some sums inexact.
delays = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5])
event_ids = st.integers(0, N_EVENTS - 1)
steps = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("fire"), event_ids, st.sampled_from([0.0, 0.0, 0.5, 1.0])),
    st.tuples(st.just("wait"), event_ids),
    st.tuples(st.just("watch"), event_ids),
    st.tuples(
        st.just("all"), st.lists(delays, max_size=3), st.none() | event_ids
    ),
    st.tuples(
        st.just("submit"),
        st.integers(0, N_QUEUES - 1),
        st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    ),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("spawn"), delays, st.booleans()),
    st.tuples(st.just("idle"), st.integers(0, 3)),
)
schedules = st.lists(st.lists(steps, max_size=6), min_size=1, max_size=6)
stop_lists = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, 3.5, 10.0]), max_size=3
).map(sorted)


@settings(max_examples=150, deadline=None)
@given(scripts=schedules, stops=stop_lists)
def test_dispatch_log_matches_time_seq_heap(scripts, stops):
    want = _drive(RefSim(), RefQueue, scripts, stops)
    got = _drive(Simulator(), FCFSQueue, scripts, stops)
    assert got == want


def test_reference_model_sees_ties_and_late_waiters():
    """A fixed schedule whose log pins the tie order by hand."""
    scripts = [
        [("sleep", 0.5), ("fire", 0, 0.0), ("sleep", 0.5)],
        [("wait", 0), ("watch", 0)],
        [("sleep", 0.5), ("submit", 0, 0.5), ("submit", 0, 0.0)],
    ]
    for sim, make_queue in (
        (RefSim(), RefQueue),
        (Simulator(), FCFSQueue),
    ):
        log = _drive(sim, make_queue, scripts, stops=[0.5])
        assert log == [
            (0, 0, 0.5, (0, 0)),
            (0, 1, 0.5, None),
            # P2's timeout was created before P0 fired event 0, so it
            # runs first although both are due at t=0.5.
            (2, 0, 0.5, (2, 0)),
            (1, 0, 0.5, (0, 1)),
            (1, 1, 0.5, None),
            # The late callback is handed the outcome after P1's step.
            ("cb", (1, 1), 0.5, (0, 1)),
            ("stop", 0.5),
            (0, 2, 1.0, (0, 2)),
            # The queue is busy until t=1.0, so the second, zero-length
            # job completes at once, at the horizon.
            (2, 1, 1.0, 1.0),
            (2, 2, 1.0, 1.0),
            ("closer", 10.0),
            ("end", 10.0),
        ]
