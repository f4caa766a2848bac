"""Macro-event primitive and bounded free pools.

``Simulator.macro_charge`` is the kernel half of hybrid fidelity: one
heap push stands in for a whole collective's event cascade, and the
``macro_log`` records what was charged so the spot-check oracle can
compare it against an exact replay.  The pool cap keeps the free lists
from growing without bound on 100k-rank jobs — once a pool is full,
further recycles are dropped (and counted) instead of retained.
"""

import pytest

from repro.sim import Simulator
from repro.sim.engine import _POOL_CAP


def test_macro_charge_delivers_value_at_charged_time():
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter():
        value = yield event
        seen.append((value, sim.now))

    sim.process(waiter())
    sim.macro_charge(event, "payload", delay=2.5, label="demo", phases=(("x", 2.5),))
    sim.run()
    assert seen == [("payload", 2.5)]


def test_macro_charge_counts_and_logs():
    sim = Simulator()
    e1, e2 = sim.event(), sim.event()
    sim.macro_charge(e1, None, delay=1.0, label="a", phases=(("p", 1.0),))
    sim.macro_charge(e2, None, delay=0.5, label="b")
    sim.run()
    assert sim.counters()["macro_events"] == 2
    assert sim.macro_log == [
        ("a", 0.0, 1.0, (("p", 1.0),)),
        ("b", 0.0, 0.5, ()),
    ]


def test_reset_clears_macro_state():
    sim = Simulator()
    sim.macro_charge(sim.event(), None, delay=1.0, label="a")
    sim.run()
    sim.reset()
    assert sim.counters()["macro_events"] == 0
    assert sim.macro_log == []
    assert sim.now == 0.0


def test_macro_charge_is_one_heap_push():
    sim = Simulator()
    before = sim.counters()["heap_pushes"]
    sim.macro_charge(sim.event(), None, delay=1.0, label="a")
    assert sim.counters()["heap_pushes"] == before + 1


def test_zero_delay_macro_charge_wakes_its_waiter():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter():
        got.append((yield event))

    sim.process(waiter())
    sim.macro_charge(event, 41, delay=0.0, label="zero-delay")
    sim.run()
    assert got == [41]


def test_pool_cap_bounds_the_free_list():
    """Recycling more events than the cap drops the overflow (counted),
    so the pool never exceeds _POOL_CAP entries.  All the timeouts are
    created up front so they recycle back-to-back with no reuse in
    between — the worst case for pool growth."""
    sim = Simulator()
    for _ in range(_POOL_CAP + 64):
        sim.timeout(0.0)
    sim.run()
    counters = sim.counters()
    assert counters["pool_evictions"] > 0
    assert len(sim._pool_timeout) <= _POOL_CAP


def test_pool_evictions_zero_for_small_jobs():
    sim = Simulator()

    def small():
        for _ in range(8):
            yield sim.timeout(0.0)

    sim.process(small())
    sim.run()
    assert sim.counters()["pool_evictions"] == 0
