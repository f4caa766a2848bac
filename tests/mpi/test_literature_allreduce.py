"""Algorithm-specific behavior of the literature allreduce families.

The generic correctness/sanitizer/golden grids cover these three
algorithms via registry parametrization; this module pins the knobs
and helper functions unique to each design — tree depth and segment
schedules (dual-root), the recursive-halving schedule for arbitrary
process counts (optimal RS/AG), radix factorisation and validation
(generalized) — plus their cost-model closed forms.
"""

import numpy as np
import pytest

from repro.core.model import CostModel
from repro.errors import ConfigError
from repro.machine.clusters import cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.base import segment_count
from repro.mpi.collectives.dualroot import (
    MAX_SEGMENTS,
    SEGMENT_BYTES,
    dualroot_depth,
    t_dualroot_pipelined,
)
from repro.mpi.collectives.generalized import (
    check_radices,
    prime_factors,
    t_generalized,
)
from repro.mpi.collectives.optimal_rsag import t_optimal_rsag
from repro.payload import SUM, make_payload
from tests.mpi.test_collectives import allreduce_job

MODEL = CostModel(a=1e-6, b=1e-9, a_shm=1e-7, b_shm=1e-10, c=1e-10)


class TestDualrootSchedule:
    @pytest.mark.parametrize(
        "p,depth",
        [(1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (8, 3), (15, 3), (16, 4)],
    )
    def test_heap_tree_depth(self, p, depth):
        assert dualroot_depth(p) == depth

    def test_segment_count_clamps(self):
        def k(nbytes):
            return segment_count(nbytes, SEGMENT_BYTES, MAX_SEGMENTS)

        assert k(0) == 1
        assert k(1) == 1
        assert k(SEGMENT_BYTES) == 1
        assert k(SEGMENT_BYTES + 1) == 2
        assert k(10**9) == MAX_SEGMENTS

    @pytest.mark.parametrize("k", [1, 2, MAX_SEGMENTS])
    def test_correct_for_any_segment_size(self, k):
        # float64 elements: a half of count / 2 elements is k segments.
        count = 200 if k == 1 else 2 * k * SEGMENT_BYTES // 8
        assert segment_count(count // 2 * 8, SEGMENT_BYTES, MAX_SEGMENTS) == k
        allreduce_job(cluster_b(3), 11, 4, "dualroot_pipelined", count=count)

    def test_odd_count_splits_unevenly_but_correctly(self):
        # mid = (count+1)//2: first half one element larger.
        allreduce_job(cluster_b(2), 6, 3, "dualroot_pipelined", count=7)


class TestGeneralizedRadices:
    @pytest.mark.parametrize(
        "p,factors",
        [(1, ()), (2, (2,)), (12, (2, 2, 3)), (13, (13,)),
         (360, (2, 2, 2, 3, 3, 5))],
    )
    def test_prime_factorisation(self, p, factors):
        assert prime_factors(p) == factors

    def test_resolve_defaults_to_primes(self):
        assert check_radices(12, None) == (2, 2, 3)

    def test_radix_below_two_rejected(self):
        with pytest.raises(ConfigError, match=">= 2"):
            check_radices(12, (1, 12))

    def test_product_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="multiply to"):
            check_radices(12, (2, 3))

    @pytest.mark.parametrize("radices", [(3, 4), (4, 3), (2, 6), (6, 2), (12,)])
    def test_any_valid_factorisation_is_correct(self, radices):
        allreduce_job(
            cluster_b(3), 12, 4, "generalized", count=50, radices=radices
        )

    def test_bad_radices_raise_inside_the_job(self):
        def fn(comm):
            with pytest.raises(ConfigError, match="multiply to"):
                yield from comm.allreduce(
                    make_payload(8), SUM, algorithm="generalized",
                    radices=(5,),
                )

        run_job(cluster_b(2), 4, fn, ppn=2)


class TestOptimalRsagShapes:
    """The recursive-halving schedule must cover awkward group sizes."""

    @pytest.mark.parametrize("nranks,ppn,nodes", [
        (3, 1, 3), (5, 2, 3), (6, 2, 3), (7, 4, 2), (9, 3, 3), (11, 4, 3),
    ])
    def test_odd_group_splits(self, nranks, ppn, nodes):
        allreduce_job(
            cluster_b(nodes), nranks, ppn, "optimal_rsag", count=37
        )

    def test_count_smaller_than_ranks(self):
        allreduce_job(cluster_b(3), 9, 3, "optimal_rsag", count=4)


class TestLiteratureClosedForms:
    def test_single_rank_costs_nothing(self):
        for fn in (t_dualroot_pipelined, t_optimal_rsag, t_generalized):
            assert fn(MODEL, 1, 4096) == 0.0

    def test_predict_maps_to_closed_forms(self):
        n = 1 << 16
        assert MODEL.predict_allreduce(
            "dualroot_pipelined", p=16, h=4, n=n
        ) == t_dualroot_pipelined(MODEL, 16, n)
        assert MODEL.predict_allreduce(
            "optimal_rsag", p=16, h=4, n=n
        ) == t_optimal_rsag(MODEL, 16, n)
        assert MODEL.predict_allreduce(
            "generalized", p=16, h=4, n=n
        ) == t_generalized(MODEL, 16, n)

    def test_flat_forms_ignore_node_count(self):
        n = 4096
        for h in (1, 2, 8):
            assert MODEL.predict_allreduce(
                "optimal_rsag", p=16, h=h, n=n
            ) == t_optimal_rsag(MODEL, 16, n)

    def test_dualroot_default_k_matches_implementation(self):
        n = 6 * SEGMENT_BYTES  # 3 segments per half
        k = segment_count(n // 2, SEGMENT_BYTES, MAX_SEGMENTS)
        assert t_dualroot_pipelined(MODEL, 16, n) == t_dualroot_pipelined(
            MODEL, 16, n, k
        )

    def test_pipelining_amortises_large_messages(self):
        # More segments -> fewer bytes per step on the critical path.
        n = 16 * SEGMENT_BYTES
        assert t_dualroot_pipelined(MODEL, 64, n, 8) < (
            t_dualroot_pipelined(MODEL, 64, n, 1)
        )

    def test_generalized_radix_order_changes_price(self):
        # Same factors, different stage order: same traffic totals.
        n = 1 << 15
        assert t_generalized(MODEL, 12, n, (2, 2, 3)) == pytest.approx(
            t_generalized(MODEL, 12, n, (3, 2, 2))
        )
        # A single direct stage trades latency for fewer rounds.
        assert t_generalized(MODEL, 12, n, (12,)) != (
            t_generalized(MODEL, 12, n, (2, 2, 3))
        )

    def test_generalized_rejects_bad_radices_in_model_too(self):
        with pytest.raises(ConfigError):
            t_generalized(MODEL, 12, 1024, (5, 5))


def test_large_vector_end_to_end_all_families():
    """One big-payload pass: results equal numpy on a 64KB vector."""
    rng = np.random.default_rng(2)
    count = 8192
    inputs = [rng.integers(1, 6, count).astype(np.float64) for _ in range(8)]
    expected = SUM.reduce_stack(inputs)
    for algorithm in ("dualroot_pipelined", "optimal_rsag", "generalized"):
        def fn(comm, algorithm=algorithm):
            data = make_payload(count, data=inputs[comm.rank])
            out = yield from comm.allreduce(data, SUM, algorithm=algorithm)
            return out.array

        job = run_job(cluster_b(2), 8, fn, ppn=4, sanitize=True)
        for rank, got in enumerate(job.values):
            np.testing.assert_array_equal(got, expected)
