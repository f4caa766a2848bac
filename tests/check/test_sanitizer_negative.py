"""Negative-path tests: every violation class produces its typed report.

Each test injects one invariant violation into an otherwise healthy
simulation and asserts that the sanitizer records a
:class:`~repro.check.reports.SanitizerReport` of the right ``kind`` —
the fatal ones alongside the pre-existing ``MPIError`` /
``SimulationError``, the leak-style ones at finalize.
"""

import heapq

import pytest

from repro.check import reports as R
from repro.check.sanitizer import Sanitizer
from repro.errors import DeadlockError, MPIError, SanitizerError, SimulationError
from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime, run_job
from repro.mpi.shm import ShmRegion
from repro.payload import make_payload
from repro.sim import Simulator
from repro.sim.resources import Resource


@pytest.fixture
def san():
    """A collecting (non-raising) sanitizer to inspect after the fault."""
    return Sanitizer(strict=False)


def _runtime(san, nranks=2, ppn=1):
    machine = Machine(
        cluster_b(2), nranks, ppn, sim=Simulator(sanitize=san)
    )
    return Runtime(machine)


class TestGateViolations:
    def test_reopen_of_completed_gate(self, san):
        runtime = _runtime(san)
        _, last = runtime.gate("g", parties=1)
        assert last
        with pytest.raises(MPIError, match="late arrival"):
            runtime.gate("g", parties=1)
        assert san.kinds() == {R.GATE_REOPEN}

    def test_reopen_of_completed_gate_exchange(self, san):
        runtime = _runtime(san)
        runtime.gate_exchange("x", 1, "a")
        with pytest.raises(MPIError, match="late arrival"):
            runtime.gate_exchange("x", 1, "b")
        assert san.kinds() == {R.GATE_REOPEN}

    def test_party_count_disagreement(self, san):
        runtime = _runtime(san)
        runtime.gate("g", parties=3)
        with pytest.raises(MPIError, match="parties"):
            runtime.gate("g", parties=2)
        (report,) = san.by_kind(R.GATE_PARTY_MISMATCH)
        assert report.details["opened_for"] == 3
        assert report.details["expects"] == 2

    def test_party_count_disagreement_gate_exchange(self, san):
        runtime = _runtime(san)
        runtime.gate_exchange("x", 3, "a")
        with pytest.raises(MPIError, match="parties"):
            runtime.gate_exchange("x", 2, "b")
        assert R.GATE_PARTY_MISMATCH in san.kinds()

    def test_overfill_still_reported(self, san):
        # An overfill can only be reached past the party-mismatch check
        # by a gate whose count was corrupted mid-flight; inject that
        # state directly to exercise the hook.
        runtime = _runtime(san)
        runtime.gate("g", parties=3)
        runtime._gates["g"]["arrived"] = 3
        with pytest.raises(MPIError, match="overfilled"):
            runtime.gate("g", parties=3)
        assert R.GATE_OVERFILL in san.kinds()

    def test_unsanitized_mismatch_keeps_overfill_semantics(self):
        # Without a sanitizer the historical behaviour is preserved:
        # the disagreement surfaces as an overfill, not a new error.
        runtime = Runtime(
            Machine(cluster_b(2), 2, 1, sim=Simulator(sanitize=False))
        )
        runtime.gate("g", parties=3)
        with pytest.raises(MPIError, match="overfilled"):
            runtime.gate("g", parties=1)

    def test_gate_left_open_leaks_at_finalize(self, san):
        def fn(comm):
            if comm.rank == 0:
                comm.runtime.gate(("leak",), parties=2)
            yield comm.sim.timeout(1e-9)

        result = run_job(cluster_b(2), 2, fn, ppn=1, sanitize=san)
        (report,) = result.reports
        assert report.kind == R.GATE_LEAK
        assert report.details["arrived"] == 1
        assert report.details["parties"] == 2


class TestShmViolations:
    def _region(self, san):
        return ShmRegion(Simulator(sanitize=san), name="n0")

    def test_overlapping_partitions(self, san):
        region = self._region(san)
        region.put("a", make_payload(8), span=("f", 0, 8, 16))
        with pytest.raises(MPIError, match="overlaps"):
            region.put("b", make_payload(8), span=("f", 4, 12, 16))
        (report,) = san.by_kind(R.SHM_OVERLAP)
        assert report.details["other_key"] == "a"

    def test_out_of_bounds_partition(self, san):
        region = self._region(san)
        with pytest.raises(MPIError, match="outside frame extent"):
            region.put("a", make_payload(12), span=("f", 8, 20, 16))
        assert san.kinds() == {R.SHM_OUT_OF_BOUNDS}

    def test_frame_extent_disagreement(self, san):
        region = self._region(san)
        region.put("a", make_payload(8), span=("f", 0, 8, 16))
        with pytest.raises(MPIError, match="opened with"):
            region.put("b", make_payload(4), span=("f", 8, 12, 12))
        assert R.SHM_OUT_OF_BOUNDS in san.kinds()

    def test_span_length_mismatch(self, san):
        region = self._region(san)
        with pytest.raises(MPIError, match="claims span"):
            region.put("a", make_payload(3), span=("f", 0, 5, 10))
        assert san.kinds() == {R.SHM_SPAN_MISMATCH}

    def test_double_write_recorded(self, san):
        region = self._region(san)
        region.put("k", 1)
        with pytest.raises(MPIError, match="written twice"):
            region.put("k", 2)
        assert san.kinds() == {R.SHM_DOUBLE_WRITE}

    def test_stale_read_of_consumed_key(self, san):
        region = self._region(san)
        sim = region.sim
        region.put("k", "v")

        def consumer():
            yield region.take("k")

        sim.process(consumer())
        sim.run()
        with pytest.raises(MPIError, match="fully consumed"):
            region.read("k", readers=1)
        assert san.kinds() == {R.SHM_STALE_READ}

    def test_reader_fanout_disagreement(self, san):
        region = self._region(san)
        region.put("k", "v")
        region.read("k", readers=2)
        with pytest.raises(MPIError, match="readers=3"):
            region.read("k", readers=3)
        (report,) = san.by_kind(R.SHM_READER_MISMATCH)
        assert report.details["declared"] == 2

    def test_unconsumed_value_leaks_at_finalize(self, san):
        def fn(comm):
            if comm.rank == 0:
                comm.runtime.shm_region(0).put(("orphan",), make_payload(4))
            yield comm.sim.timeout(1e-9)

        result = run_job(cluster_b(2), 2, fn, ppn=2, sanitize=san)
        (report,) = result.reports
        assert report.kind == R.SHM_LEAK
        assert "('orphan',)" in report.details["keys"][0]


class TestMatcherViolations:
    def test_leaked_receive_at_finalize(self, san):
        def fn(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=77)  # never matched
            yield comm.sim.timeout(1e-9)

        result = run_job(cluster_b(2), 2, fn, ppn=1, sanitize=san)
        (report,) = result.reports
        assert report.kind == R.MATCHER_LEAK
        assert report.details["rank"] == 0
        assert report.details["posted"] == [{"src": 1, "tag": 77, "context": 0}]

    def test_leaked_unexpected_message_at_finalize(self, san):
        def fn(comm):
            if comm.rank == 0:
                yield from comm.send(1, make_payload(4), tag=5)
            else:
                yield comm.sim.timeout(1e-9)  # never posts the recv

        result = run_job(cluster_b(2), 2, fn, ppn=2, sanitize=san)
        kinds = {r.kind for r in result.reports}
        assert kinds == {R.MATCHER_LEAK}
        (report,) = result.reports
        assert report.details["rank"] == 1
        assert report.details["n_unexpected"] == 1

    def test_strict_sanitizer_raises_sanitizer_error(self):
        def fn(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=77)
            yield comm.sim.timeout(1e-9)

        with pytest.raises(SanitizerError) as info:
            run_job(cluster_b(2), 2, fn, ppn=1, sanitize=True)
        assert [r.kind for r in info.value.reports] == [R.MATCHER_LEAK]


class TestDeadlockDetection:
    def test_drained_heap_reports_wait_graph(self, san):
        def fn(comm):
            if comm.rank == 0:
                yield comm.sim.timeout(1e-6)
            else:
                yield from comm.recv(source=0, tag=9)  # never sent

        with pytest.raises(DeadlockError) as info:
            run_job(cluster_b(2), 2, fn, ppn=1, sanitize=san)
        assert "rank1" in info.value.wait_graph
        (report,) = san.by_kind(R.DEADLOCK)
        assert "rank1" in report.details["wait_graph"]
        # Enrichment: the blocked rank's pending receive is attached.
        leak = report.details["matchers"]["rank1"]
        assert leak["posted"] == [{"src": 0, "tag": 9, "context": 0}]

    def test_wait_graph_names_blocked_request(self, san):
        """Requests are events, and the wait graph spells out which MPI
        operation a blocked rank was stuck in."""

        def fn(comm):
            if comm.rank == 0:
                yield comm.sim.timeout(1e-6)
            else:
                yield from comm.recv(source=0, tag=9)

        with pytest.raises(DeadlockError) as info:
            run_job(cluster_b(2), 2, fn, ppn=1, sanitize=san)
        assert info.value.wait_graph["rank1"] == "request:recv(src=0, tag=9)"

    def test_unsanitized_deadlock_has_empty_wait_graph(self):
        def fn(comm):
            yield from comm.recv(source=(comm.rank + 1) % comm.size, tag=1)

        with pytest.raises(DeadlockError) as info:
            run_job(cluster_b(2), 2, fn, ppn=1, sanitize=False)
        assert info.value.wait_graph == {}


class TestKernelViolations:
    def test_heap_time_regression(self, san):
        sim = Simulator(sanitize=san)

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.now == 1.0
        # Inject an entry behind the clock into the event calendar.
        sim._cal[0.5] = sim.event()
        heapq.heappush(sim._times, 0.5)
        with pytest.raises(SimulationError, match="regression"):
            sim.run()
        (report,) = san.by_kind(R.HEAP_REGRESSION)
        assert report.details["scheduled_for"] == 0.5
        assert report.time == 1.0

    def test_resource_release_without_acquire(self, san):
        sim = Simulator(sanitize=san)
        resource = Resource(sim, capacity=1, name="ctx")
        with pytest.raises(SimulationError, match="without acquire"):
            resource.release()
        (report,) = san.by_kind(R.RESOURCE_MISUSE)
        assert report.details["resource"] == "ctx"


class TestSanitizerMechanics:
    def test_report_cap_truncates(self):
        san = Sanitizer(strict=False, max_reports=2)
        for i in range(5):
            san.record(R.GATE_LEAK, f"leak {i}")
        assert len(san.reports) == 2
        assert san.truncated == 3
        assert "+3 truncated" in san.summary()

    def test_reports_survive_json_round_trip(self, san):
        region = ShmRegion(Simulator(sanitize=san), name="n0")
        region.put("a", make_payload(8), span=("f", 0, 8, 16))
        with pytest.raises(MPIError):
            region.put("b", make_payload(8), span=("f", 4, 12, 16))
        import json

        blob = json.loads(san.reports[0].to_json())
        assert blob["kind"] == R.SHM_OVERLAP
        assert blob["details"]["other_span"] == [0, 8]

    def test_begin_run_keeps_reports_but_clears_ledger(self, san):
        san.record(R.GATE_LEAK, "previous job")
        san._frames[("n0", "f")] = {"total": 4, "intervals": [(0, 4, "a")]}
        san._finalized = True
        san.begin_run()
        assert len(san.reports) == 1
        assert san._frames == {}
        assert not san._finalized

    def test_clean_sanitized_job_has_no_reports(self):
        def fn(comm):
            if comm.rank == 0:
                yield from comm.send(1, make_payload(4), tag=3)
            elif comm.rank == 1:
                yield from comm.recv(source=0, tag=3)
            else:
                yield comm.sim.timeout(1e-9)

        result = run_job(cluster_b(2), 4, fn, ppn=2, sanitize=True)
        assert result.reports == []
