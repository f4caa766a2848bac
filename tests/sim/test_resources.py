"""Tests for FCFSQueue and Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import FCFSQueue, Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestFCFSQueue:
    def test_idle_queue_serves_immediately(self, sim):
        q = FCFSQueue(sim, "q")

        def proc():
            yield q.submit(2.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 2.0

    def test_jobs_serialize(self, sim):
        q = FCFSQueue(sim, "q")
        finishes = []

        def proc(i):
            yield q.submit(1.0)
            finishes.append((i, sim.now))

        for i in range(4):
            sim.process(proc(i))
        sim.run()
        assert finishes == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_work_conservation_with_gaps(self, sim):
        # Job arrives after the server went idle: starts immediately.
        q = FCFSQueue(sim, "q")

        def proc():
            yield q.submit(1.0)
            yield sim.timeout(5.0)  # leave the server idle
            yield q.submit(1.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 7.0

    def test_served_time_accounting(self, sim):
        q = FCFSQueue(sim, "q")

        def proc():
            yield q.submit(1.5)
            yield q.submit(0.5)

        sim.process(proc())
        sim.run()
        assert q.served_time == pytest.approx(2.0)
        assert q.job_count == 2

    def test_utilization_bounded(self, sim):
        q = FCFSQueue(sim, "q")

        def proc():
            yield q.submit(1.0)
            yield sim.timeout(3.0)

        sim.process(proc())
        sim.run()
        assert 0.0 < q.utilization() <= 1.0

    def test_negative_service_rejected(self, sim):
        q = FCFSQueue(sim, "q")
        with pytest.raises(SimulationError):
            q.submit(-0.1)

    def test_nan_service_rejected_and_clock_untouched(self, sim):
        q = FCFSQueue(sim, "q")
        with pytest.raises(SimulationError, match="nan"):
            q.submit(float("nan"))
        assert (q.busy_until, q.served_time, q.job_count) == (0.0, 0.0, 0)

        def proc():
            yield q.submit(1.0)

        sim.process(proc())
        sim.run()
        assert sim.now == 1.0

    def test_nan_service_reported_by_sanitizer(self):
        from repro.check import reports as R
        from repro.check.sanitizer import Sanitizer

        san = Sanitizer(strict=False)
        q = FCFSQueue(Simulator(sanitize=san), "nic")
        with pytest.raises(SimulationError):
            q.submit(float("nan"))
        (report,) = san.by_kind(R.RESOURCE_MISUSE)
        assert report.details["resource"] == "nic"

    def test_delay_until_free(self, sim):
        q = FCFSQueue(sim, "q")
        log = []

        def first():
            yield q.submit(4.0)

        def second():
            yield sim.timeout(1.0)
            log.append(q.delay_until_free())
            yield q.submit(1.0)
            log.append(sim.now)

        sim.process(first())
        sim.process(second())
        sim.run()
        assert log == [3.0, 5.0]

    @given(
        services=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_total_busy_equals_sum_of_services(self, services):
        """Back-to-back submissions: last completion == sum of services."""
        sim = Simulator()
        q = FCFSQueue(sim, "q")
        done_times = []

        def proc():
            for s in services:
                t = yield q.submit(s)
                done_times.append(t)

        sim.process(proc())
        sim.run()
        # proc submits job k+1 only after job k completes; the server never
        # idles between them, so completions are prefix sums.
        prefix = 0.0
        for s, t in zip(services, done_times):
            prefix += s
            assert t == pytest.approx(prefix)

    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_work_conserving(self, arrivals):
        """Makespan >= max(total service, last arrival + its service)."""
        sim = Simulator()
        q = FCFSQueue(sim, "q")

        def proc(delay, svc):
            yield sim.timeout(delay)
            yield q.submit(svc)

        for delay, svc in arrivals:
            sim.process(proc(delay, svc))
        sim.run()
        total_service = sum(s for _, s in arrivals)
        assert q.busy_until >= total_service - 1e-12
        assert q.busy_until <= max(d for d, _ in arrivals) + total_service + 1e-12


class TestResource:
    def test_capacity_respected(self, sim):
        res = Resource(sim, capacity=2, name="ctx")
        active = []
        peak = []

        def proc(i):
            yield res.acquire()
            active.append(i)
            peak.append(len(active))
            yield sim.timeout(1.0)
            active.remove(i)
            res.release()

        for i in range(5):
            sim.process(proc(i))
        sim.run()
        assert max(peak) == 2

    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def proc(i):
            yield sim.timeout(i * 0.1)
            yield res.acquire()
            order.append(i)
            yield sim.timeout(1.0)
            res.release()

        for i in range(4):
            sim.process(proc(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_acquire_rejected(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_n_waiting(self, sim):
        res = Resource(sim, capacity=1)
        observed = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield res.acquire()
            res.release()

        def observer():
            yield sim.timeout(5.0)
            observed.append(res.n_waiting)

        sim.process(holder())
        sim.process(waiter())
        sim.process(waiter())
        sim.process(observer())
        sim.run()
        assert observed == [2]
