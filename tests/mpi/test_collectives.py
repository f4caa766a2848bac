"""Correctness of every allreduce algorithm against numpy references.

The heart of the validation strategy: all algorithms are exercised with
real data over assorted (ranks, ppn, count, op) shapes — including
non-power-of-two process counts, counts smaller than the process count,
and counts not divisible by the leader count — and the result must be
exactly what numpy computes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.clusters import cluster_a, cluster_b, cluster_d
from repro.mpi import run_job
from repro.mpi.collectives.registry import available_algorithms
from repro.payload import MAX, MIN, PROD, SUM, make_payload

# Derived from the registry at collection time, so a newly registered
# algorithm joins the correctness matrix automatically instead of
# waiting for someone to extend a hand-maintained list.  SHArP designs
# need the Cluster-A switch fabric and get their own class below.
SHARP_ALGORITHMS = [
    a for a in available_algorithms() if a.startswith("sharp")
]
GENERAL_ALGORITHMS = [
    a for a in available_algorithms() if not a.startswith("sharp")
]


def allreduce_job(config, nranks, ppn, algorithm, count, op=SUM, seed=0, **kw):
    rng = np.random.default_rng(seed)
    inputs = [rng.integers(1, 10, count).astype(np.float64) for _ in range(nranks)]

    def fn(comm):
        data = make_payload(count, data=inputs[comm.rank])
        result = yield from comm.allreduce(data, op, algorithm=algorithm, **kw)
        return result.array

    job = run_job(config, nranks, fn, ppn=ppn)
    expected = op.reduce_stack(inputs)
    for rank, got in enumerate(job.values):
        np.testing.assert_array_equal(
            got, expected, err_msg=f"{algorithm} wrong on rank {rank}"
        )
    return job


@pytest.mark.parametrize("algorithm", GENERAL_ALGORITHMS)
class TestAllAlgorithmsBasic:
    def test_pow2_layout(self, algorithm):
        allreduce_job(cluster_b(4), 16, 4, algorithm, count=32)

    def test_non_pow2_ranks(self, algorithm):
        allreduce_job(cluster_b(5), 13, 3, algorithm, count=17)

    def test_count_smaller_than_ranks(self, algorithm):
        allreduce_job(cluster_b(4), 12, 3, algorithm, count=5)

    def test_single_rank(self, algorithm):
        allreduce_job(cluster_b(1), 1, 1, algorithm, count=8)

    def test_two_ranks(self, algorithm):
        allreduce_job(cluster_b(2), 2, 1, algorithm, count=8)

    def test_max_op(self, algorithm):
        allreduce_job(cluster_b(4), 8, 2, algorithm, count=16, op=MAX)


@pytest.mark.parametrize("op", [SUM, MAX, MIN, PROD])
def test_all_ops_recursive_doubling(op):
    allreduce_job(cluster_b(3), 6, 2, "recursive_doubling", count=9, op=op)


class TestDpmlShapes:
    @pytest.mark.parametrize("leaders", [1, 2, 3, 4, 8])
    def test_leader_counts(self, leaders):
        allreduce_job(cluster_b(4), 32, 8, "dpml", count=30, leaders=leaders)

    def test_leaders_exceed_ppn_clamped(self):
        # A rank function passing leaders > ppn is rejected at dispatch
        # (tests/mpi/test_comm.py); an interior call, like a tuning
        # table's leaders=16 at ppn 8, still runs clamped to ppn.
        from repro.mpi.collectives.registry import resolve_allreduce

        inputs = [np.arange(16, dtype=np.float64) + r for r in range(8)]

        def fn(comm):
            dpml = resolve_allreduce("dpml", comm)
            data = make_payload(16, data=inputs[comm.rank])
            result = yield from dpml(comm, data, SUM, leaders=16)
            return result.array

        job = run_job(cluster_b(4), 8, fn, ppn=2)
        for got in job.values:
            np.testing.assert_array_equal(got, SUM.reduce_stack(inputs))

    def test_count_not_divisible_by_leaders(self):
        allreduce_job(cluster_b(4), 16, 4, "dpml", count=13, leaders=4)

    def test_count_smaller_than_leaders(self):
        allreduce_job(cluster_b(4), 16, 4, "dpml", count=2, leaders=4)

    def test_uneven_last_node(self):
        # 10 ranks at ppn=4: nodes get 4, 4, 2 -> leaders clamp to 2.
        allreduce_job(cluster_b(3), 10, 4, "dpml", count=24, leaders=4)

    def test_single_node(self):
        allreduce_job(cluster_b(1), 8, 8, "dpml", count=16, leaders=4)

    def test_one_rank_per_node(self):
        # The default four leaders run clamped to the one rank per node.
        allreduce_job(cluster_b(4), 4, 1, "dpml", count=16)

    @pytest.mark.parametrize("unit", [64, 256, 4096])
    def test_pipelined_units(self, unit):
        allreduce_job(
            cluster_b(4), 16, 4, "dpml_pipelined", count=1024,
            leaders=4, pipeline_unit=unit,
        )

    def test_inter_algorithm_override(self):
        for inter in ("recursive_doubling", "rabenseifner", "ring"):
            allreduce_job(
                cluster_b(4), 16, 4, "dpml", count=64, leaders=2,
                inter_algorithm=inter,
            )

    def test_repeated_calls_reuse_plan(self):
        """Back-to-back collectives on one communicator stay correct."""
        config = cluster_b(4)

        def fn(comm):
            totals = []
            for i in range(5):
                data = make_payload(10, data=np.full(10, float(comm.rank + i)))
                result = yield from comm.allreduce(
                    data, SUM, algorithm="dpml", leaders=2
                )
                totals.append(result.array[0])
            return totals

        job = run_job(config, 8, fn, ppn=2)
        for v in job.values:
            assert v == [sum(range(8)) + 8 * i for i in range(5)]


class TestSharpCorrectness:
    @pytest.mark.parametrize("algorithm", SHARP_ALGORITHMS)
    @pytest.mark.parametrize("nranks,ppn", [(8, 2), (12, 3), (4, 1), (28, 7)])
    def test_sharp_layouts(self, algorithm, nranks, ppn):
        allreduce_job(cluster_a(4), nranks, ppn, algorithm, count=12)

    def test_sharp_rejected_without_switch_support(self):
        from repro.errors import ConfigError

        def fn(comm):
            with pytest.raises(ConfigError, match="no SHArP"):
                yield from comm.allreduce(
                    make_payload(4), SUM, algorithm="sharp_node_leader"
                )

        run_job(cluster_b(2), 4, fn, ppn=2)

    def test_sharp_on_knl_tuned_does_not_pick_sharp(self):
        # Cluster D has no SHArP; the tuned selector must still work.
        allreduce_job(cluster_d(2), 8, 4, "dpml_tuned", count=8)


class TestRegistry:
    def test_available_algorithms_complete(self):
        names = available_algorithms()
        for expected in [
            "recursive_doubling",
            "rabenseifner",
            "ring",
            "reduce_bcast",
            "hierarchical",
            "dpml",
            "dpml_pipelined",
            "dpml_tuned",
            "mvapich2",
            "intel_mpi",
            "flat_auto",
            "dualroot_pipelined",
            "optimal_rsag",
            "generalized",
            "adaptive",
            "sharp_node_leader",
            "sharp_socket_leader",
        ]:
            assert expected in names

    def test_matrix_is_registry_complete(self):
        """The two collection-time lists partition the full registry."""
        assert sorted(GENERAL_ALGORITHMS + SHARP_ALGORITHMS) == (
            available_algorithms()
        )


@given(
    nranks=st.integers(2, 12),
    count=st.integers(1, 40),
    algorithm=st.sampled_from(GENERAL_ALGORITHMS),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_property_allreduce_matches_numpy(nranks, count, algorithm, seed):
    """Any algorithm, any layout, any vector: result == numpy sum."""
    ppn = min(4, nranks)
    nodes = -(-nranks // ppn)
    allreduce_job(
        cluster_b(max(nodes, 1)), nranks, ppn, algorithm, count=count, seed=seed
    )
