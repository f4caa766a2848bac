"""Tests for the shared-memory rendezvous region."""

import pytest

from repro.errors import MPIError
from repro.mpi.shm import ShmRegion
from repro.sim import Simulator


@pytest.fixture
def region():
    return ShmRegion(Simulator())


class TestShmRegion:
    def test_put_then_take(self, region):
        region.put("k", 42)

        def getter():
            v = yield region.take("k")
            return v

        sim = region.sim
        p = sim.process(getter())
        sim.run()
        assert p.value == 42
        assert len(region) == 0  # take removes

    def test_take_blocks_until_put(self, region):
        sim = region.sim

        def getter():
            v = yield region.take("k")
            return (sim.now, v)

        def putter():
            yield sim.timeout(2.0)
            region.put("k", "late")

        g = sim.process(getter())
        sim.process(putter())
        sim.run()
        assert g.value == (2.0, "late")

    def test_double_put_rejected(self, region):
        region.put("k", 1)
        with pytest.raises(MPIError):
            region.put("k", 2)

    def test_read_with_refcount(self, region):
        sim = region.sim
        region.put("k", "v")
        got = []

        def reader():
            v = yield region.read("k", readers=3)
            got.append(v)

        for _ in range(3):
            sim.process(reader())
        sim.run()
        assert got == ["v", "v", "v"]
        assert len(region) == 0  # removed after the last reader

    def test_read_keeps_value_until_last(self, region):
        sim = region.sim
        region.put("k", "v")

        def reader():
            yield region.read("k", readers=2)

        sim.process(reader())
        sim.run()
        assert len(region) == 1  # one reader left

    def test_multiple_waiters_woken_in_order(self, region):
        sim = region.sim
        order = []

        def reader(i):
            yield region.read("k", readers=3)
            order.append(i)

        for i in range(3):
            sim.process(reader(i))

        def putter():
            yield sim.timeout(1.0)
            region.put("k", "x")

        sim.process(putter())
        sim.run()
        assert order == [0, 1, 2]

    @pytest.mark.parametrize("readers", [0, -1])
    def test_read_rejects_nonpositive_fanout(self, region, readers):
        """Regression: ``read(key, 0)`` used to register a reader whose
        countdown started below one, leaving the value stuck in the
        region forever instead of failing at the call site."""
        region.put("k", "v")
        with pytest.raises(MPIError, match="fan-out must be >= 1"):
            region.read("k", readers=readers)

    def test_distinct_keys_do_not_interfere(self, region):
        sim = region.sim
        region.put(("a", 1), "first")
        region.put(("a", 2), "second")

        def getter():
            x = yield region.take(("a", 1))
            y = yield region.take(("a", 2))
            return (x, y)

        p = sim.process(getter())
        sim.run()
        assert p.value == ("first", "second")


class TestResumeOrder:
    """Where a rendezvous resumes its readers in the calendar, pinned.

    The log below was taken on the region that gave every reader its
    own event; the shared hand-off events must reproduce it exactly.
    """

    @staticmethod
    def _scenario():
        sim = Simulator()
        region = ShmRegion(sim)
        log = []

        def reader(name, delay):
            if delay:
                yield sim.timeout(delay)
            value = yield region.read("k", readers=6)
            log.append((name, sim.now, value))
            yield sim.timeout(0.0)
            log.append((name + "+", sim.now))

        def taker():
            value = yield region.take("t")
            log.append(("taker", sim.now, value))

        def bystander():
            yield sim.timeout(1.0)
            log.append(("bystander", sim.now))

        def writer():
            yield sim.timeout(1.0)
            region.put("k", "v")
            sim.hop(lambda _: log.append(("hop", sim.now)))
            region.put("t", "w")
            log.append(("put", sim.now))

        def probe():
            for at in (0.5, 1.5):
                yield sim.timeout(at - sim.now)
                log.append(
                    ("probe", sim.now, region.blocked_keys(), region.unconsumed())
                )

        # a and b block before the write, c reads at its instant before
        # it, d and e after it (around a bystander), f later.
        sim.process(reader("a", 0.0))
        sim.process(reader("b", 0.0))
        sim.process(taker())
        sim.process(reader("c", 1.0))
        sim.process(writer())
        sim.process(reader("d", 1.0))
        sim.process(bystander())
        sim.process(reader("e", 1.0))
        sim.process(reader("f", 2.0))
        sim.process(probe())
        sim.run()
        log.append(("end", sim.now, region.blocked_keys(), region.unconsumed()))
        return log, sim.counters()

    def test_resume_log(self):
        log, _ = self._scenario()
        assert log == [
            ("probe", 0.5, ["k", "t"], []),
            ("put", 1.0),
            ("bystander", 1.0),
            ("a", 1.0, "v"),
            ("b", 1.0, "v"),
            ("c", 1.0, "v"),
            ("hop", 1.0),
            ("taker", 1.0, "w"),
            ("d", 1.0, "v"),
            ("e", 1.0, "v"),
            ("a+", 1.0),
            ("b+", 1.0),
            ("c+", 1.0),
            ("d+", 1.0),
            ("e+", 1.0),
            ("probe", 1.5, [], ["k"]),
            ("f", 2.0, "v"),
            ("f+", 2.0),
            ("end", 2.0, [], []),
        ]

    def test_delayed_entries_are_untouched(self):
        _, counters = self._scenario()
        assert counters["heap_pushes"] == counters["heap_pops"] == 8

    def test_readers_blocked_on_a_key_share_one_event(self, region):
        first, second = region.read("k", readers=2), region.read("k", readers=2)
        assert first is second and not first.triggered
        assert region.blocked_keys() == ["k"]

    def test_readers_of_a_written_value_share_one_processed_event(self, region):
        region.put("k", "v")
        first = region.read("k", readers=3)
        second = region.read("k", readers=3)
        assert first is second and first.processed and first.value == "v"
        assert region.unconsumed() == ["k"]
        region.read("k", readers=3)
        assert region.unconsumed() == []

    def test_reads_made_before_the_write_consume_it(self, region):
        region.take("t")
        region.read("k", readers=2)
        region.read("k", readers=2)
        region.put("t", 1)
        region.put("k", 2)
        assert region.unconsumed() == [] and region.blocked_keys() == []
