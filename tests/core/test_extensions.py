"""Tests for the algorithmic extensions: multilevel DPML, segmented
ring, and DPML reduce/bcast timing behaviour."""

import numpy as np
import pytest

from repro.apps.osu import osu_collective_latency
from repro.bench.harness import allreduce_latency
from repro.machine.clusters import cluster_b, cluster_d
from repro.mpi import run_job
from repro.payload import SUM, make_payload


def check_allreduce(algorithm, nranks, ppn, nodes, count=19, **kw):
    rng = np.random.default_rng(1)
    inputs = [rng.integers(1, 9, count).astype(float) for _ in range(nranks)]

    def fn(comm):
        out = yield from comm.allreduce(
            make_payload(count, data=inputs[comm.rank]), SUM,
            algorithm=algorithm, **kw,
        )
        return out.array

    job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
    expected = SUM.reduce_stack(inputs)
    for v in job.values:
        np.testing.assert_array_equal(v, expected)


class TestMultilevelDpml:
    @pytest.mark.parametrize("nranks,ppn,nodes", [(16, 8, 2), (12, 6, 2), (9, 3, 3)])
    def test_correct(self, nranks, ppn, nodes):
        check_allreduce("dpml_multilevel", nranks, ppn, nodes, leaders=2)

    def test_correct_with_many_leaders(self):
        check_allreduce("dpml_multilevel", 16, 8, 2, leaders=8)

    def test_single_socket_node(self):
        # KNL: one socket; the two levels collapse gracefully.
        def fn(comm):
            out = yield from comm.allreduce(
                make_payload(8, data=[float(comm.rank)] * 8), SUM,
                algorithm="dpml_multilevel", leaders=2,
            )
            return out.array[0]

        job = run_job(cluster_d(2), 8, fn, ppn=4)
        assert all(v == sum(range(8)) for v in job.values)

    def test_flat_dpml_is_faster(self):
        """The paper's shallow-hierarchy argument (Section 3)."""
        for size in (4096, 262144):
            flat = allreduce_latency(cluster_b(4), "dpml", size, ppn=8, leaders=4)
            deep = allreduce_latency(
                cluster_b(4), "dpml_multilevel", size, ppn=8, leaders=4
            )
            assert flat < deep


class TestSegmentedRing:
    @pytest.mark.parametrize("segment_bytes", [512, 4096, 1 << 20])
    def test_correct(self, segment_bytes):
        check_allreduce(
            "ring_segmented", 8, 2, 4, count=1000, segment_bytes=segment_bytes
        )

    def test_single_segment_fallback(self):
        check_allreduce("ring_segmented", 6, 2, 3, count=4, segment_bytes=1 << 20)

    def test_overlap_beats_plain_ring_for_huge_vectors(self):
        config = cluster_b(8)
        plain = allreduce_latency(
            config, "ring", 4 << 20, ppn=2, iterations=1
        )
        segmented = allreduce_latency(
            config, "ring_segmented", 4 << 20, ppn=2, iterations=1,
            segment_bytes=262144,
        )
        # Per-segment pipelining hides per-step latency.
        assert segmented <= plain * 1.05


class TestDpmlRootedTiming:
    def test_dpml_reduce_beats_binomial_large(self):
        config = cluster_b(8)
        binom = osu_collective_latency(
            config, "reduce", 1 << 20, nranks=64, ppn=8, algorithm="binomial"
        )
        dpml = osu_collective_latency(
            config, "reduce", 1 << 20, nranks=64, ppn=8, algorithm="dpml"
        )
        assert dpml < binom

    def test_dpml_bcast_scaling_with_leaders(self):
        config = cluster_b(8)
        one = osu_collective_latency(
            config, "bcast", 1 << 20, nranks=64, ppn=8,
            algorithm="dpml", leaders=1,
        )
        many = osu_collective_latency(
            config, "bcast", 1 << 20, nranks=64, ppn=8,
            algorithm="dpml", leaders=8,
        )
        assert many < one


@pytest.mark.parametrize(
    "case, deposit", [("reduce", "in"), ("dpml_multilevel", "sock")]
)
def test_deposits_and_publishes_are_span_checked(case, deposit):
    """The rooted reduce and the multilevel variant deposit and publish
    through the shared phase generators, so a sanitized run checks
    their partition spans: every depositor's frame and the leaders'
    publish frame tile the vector exactly, and nothing is reported."""
    from repro.check.sanitizer import Sanitizer

    count = 19
    rng = np.random.default_rng(5)
    inputs = [rng.integers(1, 9, count).astype(float) for _ in range(16)]

    def fn(comm):
        data = make_payload(count, data=inputs[comm.rank])
        if case == "reduce":
            out = yield from comm.reduce(
                data, SUM, root=5, algorithm="dpml", leaders=2
            )
        else:
            out = yield from comm.allreduce(data, SUM, algorithm=case, leaders=2)
        return None if out is None else out.array

    san = Sanitizer(strict=False)
    job = run_job(cluster_b(2), 16, fn, ppn=8, sanitize=san)
    assert not job.reports
    kinds = set()
    for (_region, frame), ledger in san._frames.items():
        kinds.add(frame[2])
        assert sorted((a, b) for a, b, _key in ledger["intervals"]) == [
            (0, 10), (10, count)
        ], frame
    assert {deposit, "out"} <= kinds
    np.testing.assert_array_equal(job.values[5], np.sum(inputs, axis=0))
