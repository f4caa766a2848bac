"""Tests for the discrete-event kernel (events, processes, composites)."""

import pytest

from repro.errors import DeadlockError, InterruptError, SimulationError
from repro.sim import AllOf, AnyOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestTimeout:
    def test_single_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(2.5)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 2.5
        assert sim.now == 2.5

    def test_timeout_carries_value(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value="payload")
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == "payload"

    def test_zero_delay_timeout_fires_at_now(self, sim):
        def proc():
            yield sim.timeout(0.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.timeout(float("nan"))
        assert sim.now == 0.0

    def test_nan_delay_rejected_on_the_pooled_path(self, sim):
        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim._pool_timeout, "the processed timeout was not pooled"
        with pytest.raises(SimulationError, match="nan"):
            sim.timeout(float("nan"))
        assert sim.now == 1.0

    def test_nan_succeed_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.event().succeed(delay=float("nan"))
        sim.run()
        assert sim.now == 0.0

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            for _ in range(5):
                yield sim.timeout(0.5)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(2.5)


class TestEventOrdering:
    def test_same_time_events_fire_in_creation_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ["a", "b", "c", "d"]:
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_earlier_events_fire_first(self, sim):
        order = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc("late", 3.0))
        sim.process(proc("early", 1.0))
        sim.process(proc("mid", 2.0))
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_run_is_deterministic(self):
        def build():
            sim = Simulator()
            log = []

            def proc(i):
                yield sim.timeout(i % 3)
                log.append(i)
                yield sim.timeout(0.5)
                log.append(-i)

            for i in range(20):
                sim.process(proc(i))
            sim.run()
            return log

        assert build() == build()

    def test_delay_too_small_to_move_the_clock_keeps_creation_order(self):
        sim = Simulator()
        order = []

        def proc():
            yield sim.timeout(1.0)
            # 1.0 + 1e-20 == 1.0: this timeout is due now, and was
            # scheduled before the zero-delay event below.
            sim.timeout(1e-20)._add_callback(lambda _e: order.append("tiny"))
            ev = sim.event()
            ev._add_callback(lambda _e: order.append("zero"))
            ev.succeed()

        sim.process(proc())
        sim.run()
        assert order == ["tiny", "zero"]
        assert sim.now == 1.0


class TestEvents:
    def test_manual_event_succeed(self, sim):
        ev = sim.event()

        def waiter():
            val = yield ev
            return val

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed(42)

        w = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert w.value == 42

    def test_event_fail_raises_in_waiter(self, sim):
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(ValueError("boom"))

        w = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert w.value == "caught boom"

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_waiting_on_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")

        def late_waiter():
            yield sim.timeout(5.0)
            val = yield ev
            return (sim.now, val)

        w = sim.process(late_waiter())
        sim.run()
        assert w.value == (5.0, "early")

    def test_multiple_waiters_all_resumed(self, sim):
        ev = sim.event()
        results = []

        def waiter(i):
            val = yield ev
            results.append((i, val))

        for i in range(3):
            sim.process(waiter(i))

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed("x")

        sim.process(trigger())
        sim.run()
        assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]

    def test_non_generator_iterable_rejected(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.process(iter([]))  # iterators without send() are not processes


class TestProcess:
    def test_process_is_joinable(self, sim):
        def child():
            yield sim.timeout(2.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        p = sim.process(parent())
        sim.run()
        assert p.value == (2.0, "done")

    def test_join_finished_process(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 7

        c = sim.process(child())

        def parent():
            yield sim.timeout(3.0)
            result = yield c
            return result

        p = sim.process(parent())
        sim.run()
        assert p.value == 7

    def test_unhandled_exception_propagates_from_run(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()

    def test_joined_process_failure_raises_in_parent(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        def parent():
            try:
                yield sim.process(bad())
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught kaput"

    def test_yielding_non_event_is_an_error(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="yielded"):
            sim.run()

    def test_cross_simulator_event_rejected(self, sim):
        other = Simulator()

        def bad():
            yield other.timeout(1.0)

        sim.process(bad())
        with pytest.raises(SimulationError, match="another Simulator"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_interrupt_wakes_blocked_process(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except InterruptError as exc:
                return ("interrupted", sim.now, exc.cause)

        victim = sim.process(sleeper())

        def killer():
            yield sim.timeout(2.0)
            victim.interrupt(cause="enough")

        sim.process(killer())
        sim.run()
        assert victim.value == ("interrupted", 2.0, "enough")

    def test_interrupting_finished_process_is_error(self, sim):
        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestInterruptDelivery:
    """An interrupt resumes its process exactly once, at delivery."""

    def test_interrupt_before_first_step_detaches_at_delivery(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield sim.timeout(1.0)
            except InterruptError:
                log.append(("caught", sim.now))
            yield sim.timeout(5.0)
            log.append(("woke", sim.now))

        sim.process(proc()).interrupt()
        sim.run()
        # Thrown at the first yield, and the process no longer waits on
        # that timeout: it wakes from the 5 s sleep, not at t=1.
        assert log == [("caught", 0.0), ("woke", 5.0)]

    def test_interrupt_drops_queued_wakeup_for_processed_event(self):
        sim = Simulator()
        log = []
        ev = sim.event()
        ev.succeed("v")

        def proc():
            yield sim.timeout(0.5)
            try:
                value = yield ev  # queues a wake-up; the interrupt follows
                log.append(("got", sim.now, value))
                yield sim.timeout(1.0)
            except InterruptError:
                log.append(("caught", sim.now))
            yield sim.timeout(5.0)
            log.append(("woke", sim.now))

        victim = sim.process(proc())

        def killer():
            yield sim.timeout(0.5)
            victim.interrupt()

        sim.process(killer())
        sim.run()
        assert log == [("caught", 0.5), ("woke", 5.5)]

    def test_interrupt_to_finished_process_is_dropped(self):
        sim = Simulator()

        def quick():
            return "done"
            yield  # pragma: no cover - makes this a generator

        proc = sim.process(quick())
        proc.interrupt()
        sim.run()
        assert proc.value == "done"

    def test_second_interrupt_after_recovery_is_dropped(self):
        sim = Simulator()

        def once():
            try:
                yield sim.timeout(3.0)
            except InterruptError as exc:
                return exc.cause

        proc = sim.process(once())

        def killer():
            yield sim.timeout(1.0)
            proc.interrupt(cause="first")
            proc.interrupt(cause="second")

        sim.process(killer())
        sim.run()
        assert proc.value == "first"
        assert sim.now == 3.0


class TestComposites:
    def test_all_of_waits_for_slowest(self, sim):
        def parent():
            evs = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
            values = yield sim.all_of(evs)
            return (sim.now, values)

        p = sim.process(parent())
        sim.run()
        assert p.value == (3.0, [1.0, 3.0, 2.0])

    def test_all_of_empty_completes_immediately(self, sim):
        def parent():
            values = yield sim.all_of([])
            return (sim.now, values)

        p = sim.process(parent())
        sim.run()
        assert p.value == (0.0, [])

    def test_all_of_fails_fast(self, sim):
        ev = sim.event()

        def failer():
            yield sim.timeout(1.0)
            ev.fail(ValueError("nope"))

        def parent():
            try:
                yield sim.all_of([sim.timeout(10.0), ev])
            except ValueError:
                return sim.now

        p = sim.process(parent())
        sim.process(failer())
        sim.run()
        assert p.value == 1.0

    def test_any_of_returns_first(self, sim):
        def parent():
            idx, val = yield sim.any_of(
                [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")]
            )
            return (sim.now, idx, val)

        p = sim.process(parent())
        sim.run()
        assert p.value == (1.0, 1, "fast")

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestRunControl:
    def test_run_until_stops_clock(self, sim):
        fired = []

        def proc():
            yield sim.timeout(10.0)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run()
        assert fired

    def test_deadlock_detection(self, sim):
        ev = sim.event()  # never triggered

        def stuck():
            yield ev

        sim.process(stuck(), name="stuck-rank")
        with pytest.raises(DeadlockError, match="stuck-rank"):
            sim.run()

    def test_deadlock_lists_blocked_processes(self, sim):
        ev = sim.event()

        def stuck(i):
            yield ev if i == 0 else sim.event()

        for i in range(3):
            sim.process(stuck(i), name=f"p{i}")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert sorted(err.value.blocked) == ["p0", "p1", "p2"]

    def test_peek_reports_next_event_time(self, sim):
        def proc():
            yield sim.timeout(4.0)

        sim.process(proc())
        sim.run(until=0.0)  # process start event
        assert sim.peek() == 4.0

    def test_run_until_in_the_past_is_rejected(self, sim):
        fired = []

        def proc():
            yield sim.timeout(5.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=3.0)
        assert sim.now == 3.0
        with pytest.raises(SimulationError, match="until"):
            sim.run(until=1.0)
        # The clock did not move backwards and the t=5 event still fires.
        assert sim.now == 3.0
        assert sim.peek() == 5.0
        sim.run()
        assert fired == [5.0]

    def test_run_until_nan_is_rejected_before_dispatching(self, sim):
        started = []

        def proc():
            started.append(sim.now)
            yield sim.timeout(1.0)

        sim.process(proc())
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        assert started == []
        assert sim.now == 0.0
        assert sim.counters()["nowq_entries"] == 0
        sim.run()
        assert started == [0.0]

    def test_run_until_now_is_allowed(self, sim):
        def proc():
            yield sim.timeout(2.0)

        sim.process(proc())
        sim.run(until=0.0)
        sim.run(until=0.0)
        assert sim.now == 0.0
        assert sim.peek() == 2.0

    def test_peek_sees_pending_now_queue_work(self, sim):
        def proc():
            yield sim.timeout(4.0)

        sim.process(proc())
        # The process-start wakeup is a zero-delay entry in the due
        # FIFO; peek must still report it as due *now*.
        assert _pending(sim)[1]
        assert sim.peek() == sim.now == 0.0


def _pending(sim):
    """The calendar's pending ``(delayed, zero_delay)`` entries."""
    entries = list(sim._due)
    for slot in sim._cal.values():
        entries.extend(slot if isinstance(slot, list) else [slot])
    zero_delay = [e for e in entries if isinstance(e, tuple)]
    delayed = [e for e in entries if not isinstance(e, tuple)]
    return delayed, zero_delay


def _mixed_scenario(sim, stops=()):
    """A workload touching every kernel path; returns its event log.

    Same-time timeouts, manual events with multiple waiters, late
    attachment to an already-processed event, composites (one over
    processes), a joined child that raises, a process waiting ahead of
    plain callbacks, and interrupts of a process in an event's first
    waiter slot and in its waiter list — the paths whose fast-path
    rewrites must preserve the seed's deterministic tie order exactly.
    The simulation is run with ``run(until=t)`` for each of ``stops``,
    then to completion.
    """
    log = []

    ev = sim.event()
    done = sim.event()

    def racer(tag, delay):
        yield sim.timeout(delay)
        log.append((tag, sim.now))

    def waiter(i):
        val = yield ev
        log.append((f"w{i}", sim.now, val))

    def late_waiter():
        yield sim.timeout(3.0)
        val = yield ev  # ev processed long ago: late-attach path
        log.append(("late", sim.now, val))

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("x")
        log.append(("trigger", sim.now))

    def composite():
        values = yield sim.all_of([sim.timeout(0.5, "a"), sim.timeout(2.0, "b")])
        log.append(("all", sim.now, tuple(values)))
        idx, val = yield sim.any_of([sim.timeout(9.0), sim.timeout(0.0, "now")])
        log.append(("any", sim.now, idx, val))
        done.succeed()

    def sleeper():
        try:
            yield sim.timeout(50.0)
        except InterruptError as exc:
            log.append(("interrupted", sim.now, exc.cause))

    victim = sim.process(sleeper())

    def killer():
        yield done
        victim.interrupt(cause="stop")
        log.append(("killer", sim.now))

    def failing_child():
        yield sim.timeout(1.5)
        raise ValueError("child failed")

    def catching_parent():
        try:
            yield sim.process(failing_child())
        except ValueError as exc:
            log.append(("caught", sim.now, str(exc)))

    shared = sim.event()

    def first_waiter():
        val = yield shared
        log.append(("first", sim.now, val))

    def attach_callbacks():
        # The process above already waits on ``shared``; these plain
        # callbacks queue up behind it.
        yield sim.timeout(0.5)
        for tag in ("cb-a", "cb-b"):
            shared._add_callback(
                lambda e, tag=tag: log.append((tag, sim.now, e.value))
            )
        yield sim.timeout(1.5)
        shared.succeed("s")

    def worker(i):
        yield sim.timeout(0.25 * (i + 1))
        return i * 10

    def gather():
        values = yield sim.all_of([sim.process(worker(i)) for i in range(3)])
        log.append(("gathered", sim.now, tuple(values)))

    gate = sim.event()

    def gate_first():
        val = yield gate
        log.append(("gate-first", sim.now, val))

    def gate_second():
        try:
            val = yield gate
            log.append(("gate-second", sim.now, val))
        except InterruptError as exc:
            log.append(("gate-second-interrupted", sim.now, exc.cause))

    def gate_keeper(second):
        yield sim.timeout(1.25)
        second.interrupt(cause="detach")
        yield sim.timeout(1.0)
        gate.succeed("open")

    for tag in ("t1", "t2"):
        sim.process(racer(tag, 1.0))
    for i in range(3):
        sim.process(waiter(i))
    sim.process(late_waiter())
    sim.process(trigger())
    sim.process(composite())
    sim.process(killer())
    sim.process(catching_parent())
    sim.process(first_waiter())
    sim.process(attach_callbacks())
    sim.process(gather())
    sim.process(gate_first())
    sim.process(gate_keeper(sim.process(gate_second())))
    for until in stops:
        sim.run(until=until)
    sim.run()
    return log


#: The event log of ``_mixed_scenario`` as the seed's kernel wrote it.
MIXED_LOG = [
    ("gathered", 0.75, (0, 10, 20)),
    ("t1", 1.0),
    ("t2", 1.0),
    ("trigger", 1.0),
    ("w0", 1.0, "x"),
    ("w1", 1.0, "x"),
    ("w2", 1.0, "x"),
    ("gate-second-interrupted", 1.25, "detach"),
    ("caught", 1.5, "child failed"),
    ("all", 2.0, ("a", "b")),
    ("first", 2.0, "s"),
    ("cb-a", 2.0, "s"),
    ("cb-b", 2.0, "s"),
    ("any", 2.0, 1, "now"),
    ("killer", 2.0),
    ("interrupted", 2.0, "stop"),
    ("gate-first", 2.25, "open"),
    ("late", 3.0, "x"),
]


class TestFastKernelEquivalence:
    def test_mixed_scenario_log_matches_seed(self):
        assert _mixed_scenario(Simulator()) == MIXED_LOG

    def test_mixed_scenario_reaches_every_waiter_path(self):
        log = _mixed_scenario(Simulator())
        assert ("caught", 1.5, "child failed") in log
        assert ("gathered", 0.75, (0, 10, 20)) in log
        # The waiting process runs before the callbacks queued behind it.
        at = log.index(("first", 2.0, "s"))
        assert log[at + 1 : at + 3] == [("cb-a", 2.0, "s"), ("cb-b", 2.0, "s")]
        # The interrupted process left the gate's waiter list: it is
        # resumed once, by the interrupt, and the gate wakes only the
        # process ahead of it.
        assert ("gate-second-interrupted", 1.25, "detach") in log
        assert ("gate-first", 2.25, "open") in log
        assert not [entry for entry in log if entry[0] == "gate-second"]

    def test_split_runs_match_one_run(self):
        whole = Simulator()
        split = Simulator()
        assert _mixed_scenario(split, stops=(1.0, 2.5)) == _mixed_scenario(whole)
        assert split.counters() == whole.counters()

    def test_fast_mode_routes_zero_delay_through_now_queue(self):
        sim = Simulator()
        _mixed_scenario(sim)
        counters = sim.counters()
        assert counters["nowq_entries"] > 0
        assert counters["heap_pushes"] < counters["events_allocated"] + 1
        assert counters["pool_reuses"] > 0


class TestEscapingError:
    """A process error nobody joins leaves ``run``; the kernel counters
    must still be exact and the simulator reusable."""

    @staticmethod
    def _crash(sim):
        def bad():
            yield sim.timeout(1.0)
            for _ in range(3):
                sim.event().succeed()  # queued, never dispatched
            raise RuntimeError("kaput")

        def bystander():
            yield sim.timeout(2.0)

        sim.process(bad())
        sim.process(bystander())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()

    def test_counters_count_only_dispatched_entries(self):
        sim = Simulator()
        self._crash(sim)
        counters = sim.counters()
        # Two process starts as zero-delay entries, then the t=1
        # timeout as a delayed entry.
        assert counters["heap_pops"] == 1
        assert counters["nowq_entries"] == 2
        delayed, zero_delay = _pending(sim)
        assert counters["heap_pushes"] - len(delayed) == 1
        assert len(zero_delay) == 3

    def test_escape_from_a_drained_time_leaves_no_empty_slot(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")  # the last entry due at t=1

        def bystander():
            yield sim.timeout(2.0)

        sim.process(bad())
        sim.process(bystander())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()
        assert sim._times == sorted(sim._cal) == [2.0]
        assert all(sim._cal.values())
        assert sim.peek() == 2.0
        sim.run()
        assert sim.now == 2.0
        assert sim._cal == {} and sim._times == []

    def test_reset_after_escape_matches_fresh(self):
        reused = Simulator()
        self._crash(reused)
        reused.reset()
        fresh = Simulator()
        assert _mixed_scenario(reused) == _mixed_scenario(fresh)
        got, want = reused.counters(), fresh.counters()
        # The kept free pools turn some allocations into reuses.
        assert (
            got.pop("events_allocated") + got.pop("pool_reuses")
            == want.pop("events_allocated") + want.pop("pool_reuses")
        )
        assert got == want


class TestEventPool:
    def test_unreferenced_event_is_recycled_and_reused(self):
        """Guards the ``_POOLED_REFS`` refcount constant: a processed
        event nobody holds must land in the pool and come back from the
        factory as the *same object*."""
        sim = Simulator()
        ev = sim.event()

        def waiter(event):
            yield event

        sim.process(waiter(ev))
        ev.succeed(1)
        del ev  # drop the test's reference so only the kernel holds it
        sim.run()
        assert sim._pool_event
        recycled = sim._pool_event[-1]
        fresh = sim.event()
        assert fresh is recycled
        assert fresh.triggered is False
        assert sim.counters()["pool_reuses"] >= 1

    def test_retained_event_is_not_recycled(self):
        sim = Simulator()
        ev = sim.event()

        def waiter(event):
            got = yield event
            return got

        p = sim.process(waiter(ev))
        ev.succeed("kept")
        sim.run()
        # The test still references ``ev``, so pooling it would corrupt
        # a live handle; the refcount guard must leave it alone.
        assert ev not in sim._pool_event
        assert ev.value == "kept"
        assert p.value == "kept"

    def test_pooled_timeout_still_validates_delay(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)  # must raise even on the pool-hit path

    def test_reset_zeroes_counters(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.counters()["events_allocated"] > 0
        sim.reset()
        assert all(v == 0 for v in sim.counters().values())


class TestContinuations:
    """Callable waiters, hops and follow-on FCFS stages: the parts of
    the kernel the transport's continuations and the machine's charged
    primitives run on."""

    def test_follow_on_stage_hands_the_waiter_to_the_queue(self):
        from repro.sim import FCFSQueue

        sim = Simulator()
        queue = FCFSQueue(sim, "mem")
        log = []

        def proc():
            got = yield sim.timeout(1.0).then(queue, 2.0)
            log.append(("proc", sim.now, got))

        def busy():
            yield sim.timeout(2.0)
            queue.submit(0.5)

        sim.process(proc())
        sim.process(busy())
        sim.timeout(1.0).then(queue, 0.25)._add_callback(
            lambda ev: log.append(("callback", sim.now, ev.value))
        )
        sim.run()
        # Each stage is submitted when its timeout fires (t=1, the
        # callback's first: its timeout was scheduled before the process
        # started), so both queue ahead of the job submitted at t=2, and
        # each waiter resumes with its stage's completion time.
        assert log == [("callback", 1.25, 1.25), ("proc", 3.25, 3.25)]
        assert queue.job_count == 3

    def test_follow_on_stage_costs_no_resume(self):
        from repro.sim import FCFSQueue

        def run(chained):
            sim = Simulator()
            queue = FCFSQueue(sim, "mem")

            def proc():
                if chained:
                    yield sim.timeout(1.0).then(queue, 2.0)
                else:
                    yield sim.timeout(1.0)
                    yield queue.submit(2.0)
                return sim.now

            p = sim.process(proc())
            sim.run()
            return p.value, sim.counters()

        assert run(chained=True) == run(chained=False)

    def test_chained_event_is_recycled(self):
        from repro.sim import FCFSQueue

        sim = Simulator()
        queue = FCFSQueue(sim, "mem")

        def proc():
            yield sim.timeout(1.0).then(queue, 1.0)

        sim.process(proc())
        sim.run()
        assert len(sim._pool_timeout) == 1
        assert sim._pool_timeout[0]._then is None

    def test_hop_runs_behind_entries_already_due(self):
        sim = Simulator()
        log = []

        def proc():
            log.append("process")
            yield sim.timeout(0.0)
            log.append("process resumed")

        sim.process(proc())
        sim.hop(lambda _: log.append("hop"))
        sim.run()
        assert log == ["process", "hop", "process resumed"]
        counters = sim.counters()
        entries = counters["heap_pops"] + counters["nowq_entries"]
        assert entries == 4  # start, hop, timeout, completion

    def test_yielding_none_goes_on_without_an_entry(self):
        def run(with_none):
            sim = Simulator()

            def proc():
                yield sim.timeout(1.0)
                if with_none:
                    got = yield None
                    assert got is None
                yield sim.timeout(1.0)
                return sim.now

            p = sim.process(proc())
            sim.run()
            return p.value, sim.counters()

        assert run(with_none=True) == run(with_none=False)
