"""Correctness of the full collective family (reduce, bcast, allgather,
reduce-scatter, gather, scatter) against numpy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MPIError, TuningError
from repro.machine.clusters import cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.registry import available_collectives
from repro.payload import MAX, SUM, DataPayload, make_payload, split_bounds


def _inputs(nranks, count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, 9, count).astype(np.float64) for _ in range(nranks)]


from tests.conftest import FAMILY_LAYOUTS as LAYOUTS  # (nranks, ppn, nodes)


class TestReduce:
    @pytest.mark.parametrize("algorithm", ["binomial", "knomial", "dpml", "auto"])
    @pytest.mark.parametrize("nranks,ppn,nodes", LAYOUTS)
    def test_reduce_matches_numpy(self, algorithm, nranks, ppn, nodes):
        inputs = _inputs(nranks, 11)
        root = nranks - 1

        def fn(comm):
            data = DataPayload(inputs[comm.rank])
            out = yield from comm.reduce(data, SUM, root=root, algorithm=algorithm)
            return None if out is None else out.array

        job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
        np.testing.assert_array_equal(job.values[root], SUM.reduce_stack(inputs))
        for r, v in enumerate(job.values):
            if r != root:
                assert v is None

    @pytest.mark.parametrize("radix", [2, 3, 5, 8])
    def test_knomial_radices(self, radix):
        inputs = _inputs(10, 7)

        def fn(comm):
            out = yield from comm.reduce(
                DataPayload(inputs[comm.rank]), SUM, root=0,
                algorithm="knomial", radix=radix,
            )
            return None if out is None else out.array

        job = run_job(cluster_b(4), 10, fn, ppn=3)
        np.testing.assert_array_equal(job.values[0], SUM.reduce_stack(inputs))

    def test_knomial_bad_radix(self):
        from repro.errors import ConfigError

        def fn(comm):
            with pytest.raises(ConfigError):
                yield from comm.reduce(
                    make_payload(4), SUM, algorithm="knomial", radix=1
                )

        run_job(cluster_b(2), 4, fn, ppn=2)

    def test_ireduce_nonblocking(self):
        inputs = _inputs(6, 5)

        def fn(comm):
            req = comm.ireduce(DataPayload(inputs[comm.rank]), SUM, root=2)
            out = yield from comm.wait(req)
            return None if out is None else out.array

        job = run_job(cluster_b(2), 6, fn, ppn=3)
        np.testing.assert_array_equal(job.values[2], SUM.reduce_stack(inputs))

    def test_reduce_max_with_dpml(self):
        inputs = _inputs(8, 9, seed=3)

        def fn(comm):
            out = yield from comm.reduce(
                DataPayload(inputs[comm.rank]), MAX, root=0,
                algorithm="dpml", leaders=2,
            )
            return None if out is None else out.array

        job = run_job(cluster_b(2), 8, fn, ppn=4)
        np.testing.assert_array_equal(job.values[0], MAX.reduce_stack(inputs))


class TestBcast:
    @pytest.mark.parametrize(
        "algorithm", ["binomial", "knomial", "scatter_ring", "dpml"]
    )
    @pytest.mark.parametrize("nranks,ppn,nodes", LAYOUTS)
    def test_bcast_delivers_everywhere(self, algorithm, nranks, ppn, nodes):
        root = min(1, nranks - 1)
        vector = np.arange(13.0) * 3

        def fn(comm):
            data = DataPayload(vector.copy()) if comm.rank == root else None
            out = yield from comm.bcast(data, root=root, algorithm=algorithm)
            return out.array

        job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
        for v in job.values:
            np.testing.assert_array_equal(v, vector)

    def test_bcast_auto_requires_placeholder(self):
        def fn(comm):
            if comm.rank == 0:
                data = make_payload(2048, data=np.zeros(2048))
            else:
                data = None
            if comm.rank != 0:
                with pytest.raises(MPIError, match="placeholder"):
                    yield from comm.bcast(data, root=0, algorithm="auto")
            else:
                # The root's call deadlocks alone, so don't issue it.
                yield comm.sim.timeout(0)

        run_job(cluster_b(2), 4, fn, ppn=2)

    def test_bcast_auto_missing_size_fails_on_first_resume(self):
        """The missing-size error surfaces where a generator
        collective's errors do: not when the call is made, but when it
        first runs, inside a blocking ``bcast`` and at the ``wait`` of
        an ``ibcast`` request."""

        def fn(comm):
            if comm.rank == 0:
                yield comm.sim.timeout(0)
                return None
            call = comm.bcast(None, root=0, algorithm="auto")
            with pytest.raises(MPIError, match="placeholder"):
                next(call)
            req = comm.ibcast(None, root=0, algorithm="auto")
            with pytest.raises(MPIError, match="placeholder"):
                yield from comm.wait(req)
            return "raised"

        job = run_job(cluster_b(2), 4, fn, ppn=2)
        assert job.values == [None, "raised", "raised", "raised"]

    def test_ibcast_nonblocking(self):
        vector = np.arange(5.0)

        def fn(comm):
            data = DataPayload(vector.copy()) if comm.rank == 0 else None
            req = comm.ibcast(data, root=0, algorithm="binomial")
            out = yield from comm.wait(req)
            return out.array

        job = run_job(cluster_b(2), 4, fn, ppn=2)
        for v in job.values:
            np.testing.assert_array_equal(v, vector)


class TestAllgather:
    @pytest.mark.parametrize("algorithm", ["recursive_doubling", "bruck", "ring"])
    @pytest.mark.parametrize("nranks,ppn,nodes", LAYOUTS)
    def test_allgather_matches_concat(self, algorithm, nranks, ppn, nodes):
        count = 4

        def fn(comm):
            data = make_payload(count, data=np.full(count, float(comm.rank)))
            out = yield from comm.allgather(data, algorithm=algorithm)
            return out.array

        expected = np.concatenate([np.full(count, float(r)) for r in range(nranks)])
        job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
        for v in job.values:
            np.testing.assert_array_equal(v, expected)


class TestReduceScatter:
    @pytest.mark.parametrize("algorithm", ["recursive_halving", "pairwise"])
    @pytest.mark.parametrize("nranks,ppn,nodes", [(8, 4, 2), (6, 2, 3), (3, 1, 3)])
    def test_chunks_match_numpy(self, algorithm, nranks, ppn, nodes):
        count = 23
        inputs = _inputs(nranks, count, seed=1)

        def fn(comm):
            out = yield from comm.reduce_scatter(
                DataPayload(inputs[comm.rank]), SUM, algorithm=algorithm
            )
            return out.array

        full = SUM.reduce_stack(inputs)
        bounds = split_bounds(count, nranks)
        job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
        for r, v in enumerate(job.values):
            np.testing.assert_array_equal(v, full[bounds[r][0]:bounds[r][1]])


class TestGatherScatter:
    def test_gather_equal_counts(self):
        def fn(comm):
            data = make_payload(3, data=np.full(3, float(comm.rank)))
            out = yield from comm.gather(data, root=0)
            return None if out is None else [p.array.tolist() for p in out]

        job = run_job(cluster_b(2), 6, fn, ppn=3)
        assert job.values[0] == [[float(r)] * 3 for r in range(6)]

    def test_gatherv_unequal_counts(self):
        def fn(comm):
            data = make_payload(
                comm.rank + 1, data=[float(comm.rank)] * (comm.rank + 1)
            )
            out = yield from comm.gather(data, root=2)
            return None if out is None else [p.count for p in out]

        job = run_job(cluster_b(2), 5, fn, ppn=3)
        assert job.values[2] == [1, 2, 3, 4, 5]

    def test_scatter_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                pieces = [
                    make_payload(2, data=[float(r), float(r * r)])
                    for r in range(comm.size)
                ]
            else:
                pieces = None
            mine = yield from comm.scatter(pieces, root=0)
            return mine.array.tolist()

        job = run_job(cluster_b(2), 7, fn, ppn=4)
        assert job.values == [[float(r), float(r * r)] for r in range(7)]

    def test_scatter_wrong_count_rejected(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(MPIError, match="exactly"):
                    yield from comm.scatter([make_payload(1)], root=0)
            else:
                yield comm.sim.timeout(0)

        run_job(cluster_b(2), 4, fn, ppn=2)


class TestRegistryKinds:
    def test_kinds_registered(self):
        assert "dpml" in available_collectives("reduce")
        assert "dpml" in available_collectives("bcast")
        assert "bruck" in available_collectives("allgather")
        assert "pairwise" in available_collectives("reduce_scatter")
        assert "binomial" in available_collectives("gather")

    def test_unknown_kind_rejected(self):
        with pytest.raises(TuningError):
            available_collectives("alltoallw")


@given(
    nranks=st.integers(2, 10),
    count=st.integers(1, 30),
    root=st.integers(0, 9),
    seed=st.integers(0, 999),
)
@settings(max_examples=40, deadline=None)
def test_property_reduce_then_bcast_equals_allreduce(nranks, count, root, seed):
    """reduce(root) followed by bcast(root) == allreduce, for any shape."""
    root = root % nranks
    inputs = _inputs(nranks, count, seed=seed)
    ppn = min(3, nranks)
    nodes = -(-nranks // ppn)

    def fn(comm):
        data = DataPayload(inputs[comm.rank])
        reduced = yield from comm.reduce(data, SUM, root=root, algorithm="dpml")
        out = yield from comm.bcast(reduced, root=root, algorithm="dpml")
        return out.array

    job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
    expected = SUM.reduce_stack(inputs)
    for v in job.values:
        np.testing.assert_array_equal(v, expected)
