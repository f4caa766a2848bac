"""Idle fences: :meth:`Simulator.idle` fires once nothing else is pending.

A fence is the harness's release point before each timed call, so the
properties pinned here are the ones the measured latency rests on: it
waits for the whole calendar (due entries, pending times, FCFS jobs),
releases every pending fence at one instant in ascending ``order``,
survives ``run(until=...)`` splits, is dropped by ``reset()``, and
leaves deadlock reporting as it was.
"""

import pytest

from repro.errors import DeadlockError
from repro.sim import FCFSQueue, Simulator


def _fenced(sim, order, delay, log):
    if delay:
        yield sim.timeout(delay)
    log.append(("ask", order, sim.now))
    yield sim.idle(order)
    log.append(("go", order, sim.now))


def test_fence_waits_for_every_pending_time():
    sim = Simulator()
    log = []
    sim.process(_fenced(sim, 0, 0.0, log))

    def busy():
        for _ in range(3):
            yield sim.timeout(1.5)
            log.append(("busy", sim.now))

    sim.process(busy())
    sim.run()
    assert log == [
        ("ask", 0, 0.0),
        ("busy", 1.5),
        ("busy", 3.0),
        ("busy", 4.5),
        ("go", 0, 4.5),
    ]


def test_fence_waits_for_zero_delay_chains_and_queue_jobs():
    sim = Simulator()
    queue = FCFSQueue(sim)
    log = []

    def chain():
        for k in range(4):
            # A zero-delay event, then a zero-length FCFS job: both due now.
            yield sim.event().succeed()
            yield queue.submit(0.0)
            log.append(("chain", k, sim.now))
        yield queue.submit(2.0)
        log.append(("served", sim.now))

    sim.process(_fenced(sim, 7, 0.0, log))
    sim.process(chain())
    sim.run()
    assert log[-2:] == [("served", 2.0), ("go", 7, 2.0)]
    assert [entry[0] for entry in log].count("chain") == 4


def test_fences_release_in_ascending_order_whatever_the_arrival_order():
    sim = Simulator()
    log = []
    # Rank r arrives at 5 - r: the highest rank asks first.
    for order in range(5):
        sim.process(_fenced(sim, order, 5.0 - order, log))
    sim.run()
    asks = [entry for entry in log if entry[0] == "ask"]
    goes = [entry for entry in log if entry[0] == "go"]
    assert [order for _, order, _ in asks] == [4, 3, 2, 1, 0]
    assert goes == [("go", order, 5.0) for order in range(5)]


def test_equal_orders_release_in_request_order():
    sim = Simulator()
    log = []
    for tag, delay in (("late", 1.0), ("early", 0.5), ("first", 0.0)):

        def proc(tag=tag, delay=delay):
            yield sim.timeout(delay) if delay else sim.event().succeed()
            yield sim.idle(3)
            log.append(tag)

        sim.process(proc())
    sim.run()
    assert log == ["first", "early", "late"]


def test_released_waiters_run_before_anything_they_schedule():
    """All fences fire together: a released rank's zero-delay work and
    a fence requested after the release wait behind every release."""
    sim = Simulator()
    log = []

    def rank(order):
        yield sim.idle(order)
        log.append(("go", order))
        yield sim.event().succeed()
        log.append(("after", order))
        yield sim.idle(order)
        log.append(("again", order))

    for order in (2, 0, 1):
        sim.process(rank(order))
    sim.run()
    assert log == [
        ("go", 0), ("go", 1), ("go", 2),
        ("after", 0), ("after", 1), ("after", 2),
        ("again", 0), ("again", 1), ("again", 2),
    ]
    assert sim.now == 0.0


@pytest.mark.parametrize("stops", [(0.5,), (1.0, 2.0), (2.5, 3.0, 9.0)])
def test_fence_survives_run_until_splits(stops):
    def drive(stops):
        sim = Simulator()
        log = []
        sim.process(_fenced(sim, 1, 0.0, log))
        sim.process(_fenced(sim, 0, 1.0, log))

        def busy():
            yield sim.timeout(3.0)
            log.append(("busy", sim.now))

        sim.process(busy())
        for until in stops:
            sim.run(until=until)
            log.append(("stop", sim.now))
        sim.run()
        return [entry for entry in log if entry[0] != "stop"], sim.now

    log, end = drive(stops)
    assert (log, end) == drive(())
    assert log[-2:] == [("go", 0, 3.0), ("go", 1, 3.0)]
    assert end == 3.0


def test_run_until_with_an_empty_calendar_releases_at_now():
    sim = Simulator()
    log = []
    sim.process(_fenced(sim, 0, 1.0, log))
    sim.run(until=4.0)
    # The calendar drained at t=1 before the horizon; the fence fired
    # there, and nothing is left to move the clock on.
    assert log == [("ask", 0, 1.0), ("go", 0, 1.0)]
    assert sim.now == 1.0


def test_peek_sees_a_pending_fence_once_the_calendar_drains():
    sim = Simulator()
    fence = sim.idle(0)
    assert sim.peek() == 0.0
    sim.timeout(2.0)
    assert sim.peek() == 2.0
    sim.run()
    assert fence.processed and sim.now == 2.0
    assert sim.peek() == float("inf")


def test_reset_drops_pending_fences():
    sim = Simulator()
    log = []
    sim.process(_fenced(sim, 0, 0.0, log))
    sim.process(_fenced(sim, 1, 0.0, log))
    sim.timeout(5.0)
    sim.run(until=1.0)
    assert log == [("ask", 0, 0.0), ("ask", 1, 0.0)]
    sim.reset()
    assert sim.peek() == float("inf")
    sim.run()
    assert log == [("ask", 0, 0.0), ("ask", 1, 0.0)]
    # A fresh fence after the reset fires on its own.
    sim.process(_fenced(sim, 2, 0.0, log))
    sim.run()
    assert log[-1] == ("go", 2, 0.0)


def test_fence_release_is_counted_as_zero_delay_entries():
    sim = Simulator()
    for order in range(3):
        sim.idle(order)
    sim.run()
    assert sim.counters()["nowq_entries"] == 3
    assert sim.counters()["heap_pops"] == 0


def test_blocked_processes_are_still_reported_after_the_fences_fire():
    sim = Simulator()
    log = []
    never = sim.event()

    def stuck():
        yield never

    def fenced_then_stuck():
        yield sim.idle(0)
        log.append(("go", sim.now))
        yield never

    sim.process(stuck(), name="stuck")
    sim.process(fenced_then_stuck(), name="fenced")
    sim.process(_fenced(sim, 1, 2.0, log), name="released")
    with pytest.raises(DeadlockError) as err:
        sim.run()
    # Both fences fired at t=2 once nothing else was pending; only the
    # processes still blocked after that are named.
    assert ("go", 2.0) in log and ("go", 1, 2.0) in log
    assert err.value.blocked == ["fenced", "stuck"]
    assert "2 process(es) still blocked" in str(err.value)
