"""The transport retry loop: typed exhaustion, per-edge telemetry.

Covers the audited ``_Wire.await_link`` control flow: every call either
injects (link clear), raises the typed
:class:`~repro.errors.TransportError` (budget exhausted on a live
outage), or performs exactly one counted retry followed by one backoff
sleep — and the counters record each of those outcomes per edge.
"""

import numpy as np
import pytest

from repro.errors import MPIError, TransportError
from repro.faults import FaultPlan, LinkOutage
from repro.machine.clusters import cluster_b
from repro.mpi.runtime import run_job
from repro.payload import SUM, make_payload


def allreduce_fn(comm, count=8):
    data = make_payload(count, data=np.full(count, float(comm.rank)))
    result = yield from comm.allreduce(data, SUM)
    return list(result.array)


TRANSIENT = FaultPlan(
    faults=(LinkOutage(src=0, dst=1, start=0.0, duration=2e-5),),
    retry_limit=50,
)

PERMANENT = FaultPlan(
    faults=(LinkOutage(src=0, dst=1, start=0.0, duration=None),),
    retry_limit=4,
)


class TestTypedError:
    def test_permanent_outage_raises_transport_error(self):
        with pytest.raises(TransportError) as info:
            run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=PERMANENT)
        err = info.value
        assert err.edge == (0, 1)
        assert err.attempts == PERMANENT.retry_limit
        assert err.sim_time > 0.0
        assert 0 <= err.rank < 4
        assert "4 retry(ies)" in str(err)

    def test_transport_error_is_an_mpi_error(self):
        # Compatibility: older callers catching MPIError keep working.
        with pytest.raises(MPIError, match="retry"):
            run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=PERMANENT)

    def test_zero_retry_budget(self):
        plan = FaultPlan(faults=PERMANENT.faults, retry_limit=0)
        with pytest.raises(TransportError) as info:
            run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=plan)
        assert info.value.attempts == 0


class TestPerEdgeCounters:
    def test_transient_outage_retries_without_exhaustion(self):
        job = run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=TRANSIENT)
        counters = job.counters["faults"]
        edges = counters["edges"]
        assert set(edges) == {"0->1"}
        assert edges["0->1"]["retries"] >= 1
        assert edges["0->1"]["exhausted"] == 0
        assert sum(counters["retries"]) == edges["0->1"]["retries"]

    def test_exhaustion_attributed_to_the_failing_edge(self):
        sink = {}

        def capture(comm):
            try:
                result = yield from allreduce_fn(comm)
                return result
            except TransportError:
                raise

        try:
            run_job(cluster_b(2), 4, capture, ppn=2, faults=PERMANENT)
        except TransportError as err:
            sink["edge"] = err.edge
            sink["attempts"] = err.attempts
        assert sink["edge"] == (0, 1)
        assert sink["attempts"] == 4

    def test_fault_free_counters_keep_historical_shape(self):
        # Plans that never hit a link must not grow the new "edges"
        # key: snapshot consumers diff these dicts byte-for-byte.
        plan = FaultPlan(
            faults=(LinkOutage(src=0, dst=1, start=1.0, duration=1e-6),)
        )
        job = run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=plan)
        assert "edges" not in job.counters["faults"]

    def test_edge_counters_are_json_canonical(self):
        import json

        job = run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=TRANSIENT)
        text = json.dumps(job.counters["faults"], sort_keys=True)
        again = run_job(cluster_b(2), 4, allreduce_fn, ppn=2, faults=TRANSIENT)
        assert text == json.dumps(again.counters["faults"], sort_keys=True)
