"""Golden event-order determinism: every job against committed records.

The kernel's fast paths (zero-delay dispatch, event pooling) and the
copy-on-write payload views must be *invisible* to simulated results:
every :class:`~repro.mpi.runtime.JobResult` — per-rank values and the
simulated elapsed time — must be bit-identical to what the seed's
heap-only, copy-always implementation produced.  That output is
committed here as the reference: each case's ``elapsed`` as a float
literal captured from the seed's run, and its per-rank ``values``
checked against the numpy sum of the inputs (integer-valued float64,
so the sum is exact and every summation order agrees bit for bit).

The grid is the shared conftest layout grid (the same shapes as
``python -m repro check``), and the sanitized variants re-run the
records with the invariant sanitizer attached, since sanitizer
bookkeeping rides the same hot paths.

The hybrid-fidelity tests extend the same contract one layer up:
macro-charging a collective through the cost model may change its
*simulated timing* (that is the point), but never its numerics — every
registered allreduce must return bit-identical result buffers in both
fidelities, hybrid timings must be deterministic run to run, and under
injected faults hybrid must fall back to the exact path cleanly
(sanitizer-silent and bit-identical to an exact faulted run, timing
included).
"""

import numpy as np
import pytest

from tests.conftest import ALL_LAYOUTS, layout_id
from repro.faults.plan import ArrivalSkew, FaultPlan, Straggler
from repro.machine.clusters import cluster_a, cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.registry import available_algorithms
from repro.payload import SUM, make_payload

COUNT = 96

#: The golden grid: every registered allreduce, derived from the
#: registry at collection time.
GOLDEN_ALGORITHMS = available_algorithms()

#: The competing designs added alongside DPML; called out by name so a
#: regression in one of them fails a test naming it.
LITERATURE_FAMILIES = ("dualroot_pipelined", "optimal_rsag", "generalized")

#: Seed-run elapsed time of dpml on each (nranks, ppn, nodes) layout of
#: the grid (the sanitized subset must reproduce the same values).
LAYOUT_ELAPSED = {
    (8, 4, 2): 5.691679999999999e-06,
    (9, 3, 3): 8.14296e-06,
    (10, 4, 3): 7.723040000000002e-06,
    (3, 1, 3): 6.4305600000000005e-06,
    (6, 6, 1): 4.126560000000001e-06,
    (5, 2, 3): 8.325280000000002e-06,
    (2, 1, 2): 2.4812800000000006e-06,
    (1, 1, 1): 0.0,
}

#: Seed-run elapsed time of each algorithm at 16 ranks, 4 per node, by
#: fidelity (hybrid only for the literature families).
ALGORITHM_ELAPSED = {
    "exact": {
        "dpml": 7.511999999999997e-06,
        "dpml_pipelined": 7.511999999999997e-06,
        "dpml_tuned": 7.511999999999997e-06,
        "mvapich2": 7.3044799999999996e-06,
        "hierarchical": 7.3044799999999996e-06,
        "ring": 3.166184e-05,
        "dualroot_pipelined": 1.3721920000000006e-05,
        "optimal_rsag": 1.047852e-05,
        "generalized": 1.047852e-05,
    },
    "hybrid": {
        "dualroot_pipelined": 1.57184e-05,
        "optimal_rsag": 1.406e-05,
        "generalized": 1.406e-05,
    },
}

#: Seed-run elapsed time of dpml with two leaders on 8 ranks, 4 per node.
TWO_LEADER_ELAPSED = 4.598400000000001e-06

#: Kernel counters of the seed's heap-only kernel for dpml at 16 ranks,
#: 4 per node; the fast paths must stay below them.
SEED_COUNTERS_16X4 = {"events_allocated": 1025, "heap_pushes": 1025}


def _inputs(nranks, seed=7):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(1, 10, COUNT).astype(np.float64) for _ in range(nranks)
    ]


def _allreduce_fn(inputs, algorithm, **kw):
    def fn(comm):
        data = make_payload(len(inputs[comm.rank]), data=inputs[comm.rank])
        result = yield from comm.allreduce(data, SUM, algorithm=algorithm, **kw)
        return result.array

    return fn


def _run(
    layout, algorithm, *, sanitize=False, fidelity=None, faults=None,
    cluster=cluster_b, seed=7, **kw
):
    """One allreduce job on real data (seeded integer-valued inputs)."""
    nranks, ppn, nodes = layout
    return run_job(
        cluster(nodes),
        nranks,
        _allreduce_fn(_inputs(nranks, seed), algorithm, **kw),
        ppn=ppn,
        sanitize=sanitize,
        fidelity=fidelity,
        faults=faults,
    )


def _assert_identical(golden, fast):
    assert golden.elapsed == fast.elapsed  # bit-identical simulated time
    for rank, (want, got) in enumerate(zip(golden.values, fast.values)):
        np.testing.assert_array_equal(want, got, err_msg=f"rank {rank}")


def _assert_record(job, elapsed, seed=7):
    """``job`` reproduces the committed record: the seed's elapsed time
    and, on every rank, the exact numpy sum of the inputs."""
    assert job.elapsed == elapsed  # bit-identical simulated time
    want = np.sum(_inputs(len(job.values), seed), axis=0)
    for rank, got in enumerate(job.values):
        np.testing.assert_array_equal(got, want, err_msg=f"rank {rank}")


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=layout_id)
def test_fast_mode_matches_seed_on_layout_grid(layout):
    _assert_record(_run(layout, "dpml"), LAYOUT_ELAPSED[layout])


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:3], ids=layout_id)
def test_fast_mode_matches_seed_under_sanitizer(layout):
    job = _run(layout, "dpml", sanitize=True)
    _assert_record(job, LAYOUT_ELAPSED[layout])
    assert not job.reports


@pytest.mark.parametrize(
    "algorithm",
    ["dpml", "dpml_pipelined", "dpml_tuned", "mvapich2", "hierarchical", "ring"]
    + list(LITERATURE_FAMILIES),
)
def test_fast_mode_matches_seed_across_algorithms(algorithm):
    job = _run((16, 4, 4), algorithm)
    _assert_record(job, ALGORITHM_ELAPSED["exact"][algorithm])


def test_two_leader_record():
    """dpml with an explicit leader count reproduces its record."""
    job = _run((8, 4, 2), "dpml", seed=3, leaders=2)
    _assert_record(job, TWO_LEADER_ELAPSED, seed=3)


@pytest.mark.parametrize("algorithm", GOLDEN_ALGORITHMS)
def test_hybrid_matches_exact_values_across_algorithms(algorithm):
    """Every registered allreduce: hybrid and exact fidelity produce
    bit-identical result buffers.  Plan-backed algorithms take the
    macro-charged path; the rest must fall back to exact transparently,
    so both classes ride this assertion."""
    layout = (16, 4, 4)
    # SHArP designs require the Cluster-A fabric (Section 6.1).
    cluster = cluster_a if algorithm.startswith("sharp") else cluster_b
    exact = _run(layout, algorithm, fidelity="exact", cluster=cluster)
    hybrid = _run(layout, algorithm, fidelity="hybrid", cluster=cluster)
    for rank, (want, got) in enumerate(zip(exact.values, hybrid.values)):
        np.testing.assert_array_equal(want, got, err_msg=f"rank {rank}")


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:4], ids=layout_id)
def test_hybrid_timing_is_deterministic(layout):
    """Repeated hybrid runs are bit-identical: same simulated elapsed,
    same macro charges, same buffers.  Only homogeneous layouts are
    macro-eligible; ragged ones must deterministically fall back."""
    nranks, ppn, nodes = layout
    first = _run(layout, "dpml", fidelity="hybrid")
    second = _run(layout, "dpml", fidelity="hybrid")
    _assert_identical(first, second)
    assert first.counters["macro_events"] == second.counters["macro_events"]
    if nranks == ppn * nodes:
        assert first.counters["macro_events"] > 0
    else:
        assert first.counters["macro_events"] == 0


def test_hybrid_falls_back_to_exact_under_faults():
    """A fault plan disqualifies macro-charging (the charge formulas
    know nothing about stragglers), so hybrid must compose with the
    fault subsystem by degrading to the exact path — sanitizer-clean
    and bit-identical to an exact faulted run, elapsed included."""
    layout = (16, 4, 4)
    plan = FaultPlan(faults=(Straggler(rank=3, factor=8.0),))
    exact = _run(layout, "dpml", fidelity="exact", faults=plan, sanitize=True)
    hybrid = _run(layout, "dpml", fidelity="hybrid", faults=plan, sanitize=True)
    _assert_identical(exact, hybrid)
    assert not exact.reports
    assert not hybrid.reports
    assert hybrid.counters["macro_events"] == 0


class TestLiteratureFamilyGoldens:
    """The competing literature designs ride every determinism contract
    the DPML family does: committed records in both fidelities, session
    reuse, and seeded fault replays."""

    LAYOUT = (16, 4, 4)

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    @pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
    def test_matches_seed_in_both_fidelities(self, algorithm, fidelity):
        """Every family reproduces its committed record in both
        fidelities (hybrid intentionally re-times, so each fidelity has
        its own elapsed)."""
        job = _run(self.LAYOUT, algorithm, fidelity=fidelity)
        _assert_record(job, ALGORITHM_ELAPSED[fidelity][algorithm])

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_hybrid_macro_charges_on_homogeneous_layout(self, algorithm):
        """The new plans actually engage: one macro event per call on
        the homogeneous golden layout, zero on a ragged one."""
        hybrid = _run(self.LAYOUT, algorithm, fidelity="hybrid")
        assert hybrid.counters["macro_events"] == 1
        ragged = _run((10, 4, 3), algorithm, fidelity="hybrid")
        assert ragged.counters["macro_events"] == 0

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_reused_session_replays_bit_identically(self, algorithm):
        """Back-to-back runs on one reused SimSession are bit-identical
        to each other and to a fresh-machine run."""
        from repro.mpi.runtime import SimSession

        nranks, ppn, nodes = self.LAYOUT
        rng = np.random.default_rng(11)
        inputs = [
            rng.integers(1, 10, COUNT).astype(np.float64)
            for _ in range(nranks)
        ]
        session = SimSession(cluster_b(nodes), nranks, ppn, sanitize=True)
        fn = _allreduce_fn(inputs, algorithm)
        first = session.run(fn)
        second = session.run(fn)
        _assert_identical(first, second)
        fresh = run_job(cluster_b(nodes), nranks, fn, ppn=ppn, sanitize=True)
        _assert_identical(first, fresh)
        assert not first.reports and not second.reports

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_fault_replay_is_seed_deterministic(self, algorithm):
        """The same (plan, seed) pair replays bit-identically — values
        and elapsed — run to run, sanitizer attached."""
        plan = FaultPlan(
            faults=(
                ArrivalSkew(magnitude=2e-4, pattern="random"),
                Straggler(rank=5, factor=4.0),
            )
        )
        nranks, ppn, nodes = self.LAYOUT
        rng = np.random.default_rng(13)
        inputs = [
            rng.integers(1, 10, COUNT).astype(np.float64)
            for _ in range(nranks)
        ]
        runs = [
            run_job(
                cluster_b(nodes), nranks, _allreduce_fn(inputs, algorithm),
                ppn=ppn, sanitize=True, faults=plan, fault_seed=21,
            )
            for _ in range(2)
        ]
        _assert_identical(runs[0], runs[1])
        assert not runs[0].reports
        # ... and the skew actually ran: a fault-free job is faster.
        clean = run_job(
            cluster_b(nodes), nranks, _allreduce_fn(inputs, algorithm),
            ppn=ppn, sanitize=True,
        )
        assert clean.elapsed < runs[0].elapsed


class TestHybridPlanFallbackCounter:
    """Hybrid-mode dispatch of a planless algorithm must be *counted*,
    never silent (the negative-space check of the phase-plan audit)."""

    def test_planless_algorithm_increments_counter(self):
        job = _run((16, 4, 4), "ring", fidelity="hybrid")
        assert job.counters["macro_events"] == 0
        assert job.counters["hybrid_plan_fallbacks"] == {"ring": 16}

    def test_planned_algorithm_does_not(self):
        job = _run((16, 4, 4), "dpml", fidelity="hybrid")
        assert job.counters["macro_events"] == 1
        assert job.counters["hybrid_plan_fallbacks"] == {}

    def test_exact_mode_keeps_historical_counter_shape(self):
        job = _run((16, 4, 4), "ring", fidelity="exact")
        assert "hybrid_plan_fallbacks" not in job.counters


def test_counters_reflect_modes():
    """The kernel actually takes the fast paths: zero-delay entries,
    pool reuses, and fewer allocations and delayed entries than the
    seed's heap-only kernel."""
    fast = _run((16, 4, 4), "dpml")
    assert fast.counters["nowq_entries"] > 0
    assert fast.counters["pool_reuses"] > 0
    for key, seed in SEED_COUNTERS_16X4.items():
        assert fast.counters[key] < seed, key
