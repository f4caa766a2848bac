"""Golden event-order determinism: fast mode vs the seed's compat mode.

The PR-4 hot-path work (now-queue zero-delay dispatch, event pooling,
copy-on-write payload views) must be *invisible* to simulated results:
every :class:`~repro.mpi.runtime.JobResult` — per-rank values and the
simulated elapsed time — must be bit-identical to what the seed's
heap-only, copy-always implementation produces.  Both of those old code
paths are kept alive behind compat switches
(``Simulator(compat=True)`` and ``set_payload_compat(True)``)
precisely so this equivalence stays testable forever.

The grid is the shared conftest layout grid (the same shapes as
``python -m repro.check``), and the sanitized variants re-run the
comparison with the invariant sanitizer attached, since sanitizer
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
from repro.payload import SUM, make_payload, set_payload_compat
from repro.sim import Simulator

COUNT = 96

#: The golden grid: every registered allreduce, derived from the
#: registry at collection time.
GOLDEN_ALGORITHMS = available_algorithms()

#: The competing designs added alongside DPML; called out by name so a
#: regression in one of them fails a test naming it.
LITERATURE_FAMILIES = ("dualroot_pipelined", "optimal_rsag", "generalized")


@pytest.fixture(autouse=True)
def _restore_payload_mode():
    yield
    set_payload_compat(False)


def _allreduce_fn(inputs, algorithm, **kw):
    def fn(comm):
        data = make_payload(len(inputs[comm.rank]), data=inputs[comm.rank])
        result = yield from comm.allreduce(data, SUM, algorithm=algorithm, **kw)
        return result.array

    return fn


def _run(
    layout, algorithm, *, compat, sanitize=False, fidelity=None, faults=None,
    cluster=cluster_b, **kw
):
    """One job with kernel *and* payload layer in the given mode."""
    nranks, ppn, nodes = layout
    rng = np.random.default_rng(7)
    inputs = [
        rng.integers(1, 10, COUNT).astype(np.float64) for _ in range(nranks)
    ]
    set_payload_compat(compat)
    try:
        job = run_job(
            cluster(nodes),
            nranks,
            _allreduce_fn(inputs, algorithm, **kw),
            ppn=ppn,
            sim=Simulator(compat=compat),
            sanitize=sanitize,
            fidelity=fidelity,
            faults=faults,
        )
    finally:
        set_payload_compat(False)
    return job


def _assert_identical(golden, fast):
    assert golden.elapsed == fast.elapsed  # bit-identical simulated time
    for rank, (want, got) in enumerate(zip(golden.values, fast.values)):
        np.testing.assert_array_equal(want, got, err_msg=f"rank {rank}")


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=layout_id)
def test_fast_mode_matches_seed_on_layout_grid(layout):
    golden = _run(layout, "dpml", compat=True)
    fast = _run(layout, "dpml", compat=False)
    _assert_identical(golden, fast)


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:3], ids=layout_id)
def test_fast_mode_matches_seed_under_sanitizer(layout):
    golden = _run(layout, "dpml", compat=True, sanitize=True)
    fast = _run(layout, "dpml", compat=False, sanitize=True)
    _assert_identical(golden, fast)
    assert not golden.reports
    assert not fast.reports


@pytest.mark.parametrize(
    "algorithm",
    ["dpml", "dpml_pipelined", "dpml_tuned", "mvapich2", "hierarchical", "ring"]
    + list(LITERATURE_FAMILIES),
)
def test_fast_mode_matches_seed_across_algorithms(algorithm):
    layout = (16, 4, 4)
    golden = _run(layout, algorithm, compat=True)
    fast = _run(layout, algorithm, compat=False)
    _assert_identical(golden, fast)


@pytest.mark.parametrize("kernel_compat", [True, False])
@pytest.mark.parametrize("payload_compat", [True, False])
def test_mixed_modes_agree(kernel_compat, payload_compat):
    """The kernel and payload switches are independent: any combination
    of the two produces the same results."""
    layout = (8, 4, 2)
    nranks, ppn, nodes = layout
    rng = np.random.default_rng(3)
    inputs = [
        rng.integers(1, 10, COUNT).astype(np.float64) for _ in range(nranks)
    ]
    golden = _run(layout, "dpml", compat=True, leaders=2)
    set_payload_compat(payload_compat)
    try:
        job = run_job(
            cluster_b(nodes),
            nranks,
            _allreduce_fn(inputs, "dpml", leaders=2),
            ppn=ppn,
            sim=Simulator(compat=kernel_compat),
        )
    finally:
        set_payload_compat(False)
    assert job.elapsed == golden.elapsed


@pytest.mark.parametrize("algorithm", GOLDEN_ALGORITHMS)
def test_hybrid_matches_exact_values_across_algorithms(algorithm):
    """Every registered allreduce: hybrid and exact fidelity produce
    bit-identical result buffers.  Plan-backed algorithms take the
    macro-charged path; the rest must fall back to exact transparently,
    so both classes ride this assertion."""
    layout = (16, 4, 4)
    # SHArP designs require the Cluster-A fabric (Section 6.1).
    cluster = cluster_a if algorithm.startswith("sharp") else cluster_b
    exact = _run(layout, algorithm, fidelity="exact", compat=False, cluster=cluster)
    hybrid = _run(layout, algorithm, fidelity="hybrid", compat=False, cluster=cluster)
    for rank, (want, got) in enumerate(zip(exact.values, hybrid.values)):
        np.testing.assert_array_equal(want, got, err_msg=f"rank {rank}")


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:4], ids=layout_id)
def test_hybrid_timing_is_deterministic(layout):
    """Repeated hybrid runs are bit-identical: same simulated elapsed,
    same macro charges, same buffers.  Only homogeneous layouts are
    macro-eligible; ragged ones must deterministically fall back."""
    nranks, ppn, nodes = layout
    first = _run(layout, "dpml", fidelity="hybrid", compat=False)
    second = _run(layout, "dpml", fidelity="hybrid", compat=False)
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
    exact = _run(
        layout, "dpml", fidelity="exact", compat=False,
        faults=plan, sanitize=True,
    )
    hybrid = _run(
        layout, "dpml", fidelity="hybrid", compat=False,
        faults=plan, sanitize=True,
    )
    _assert_identical(exact, hybrid)
    assert not exact.reports
    assert not hybrid.reports
    assert hybrid.counters["macro_events"] == 0


class TestLiteratureFamilyGoldens:
    """The competing literature designs ride every determinism contract
    the DPML family does: compat x fidelity bit-identity, session
    reuse, and seeded fault replays."""

    LAYOUT = (16, 4, 4)

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    @pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
    def test_compat_matches_fast_in_both_fidelities(self, algorithm, fidelity):
        """Full compat x fidelity matrix: the seed's heap-only,
        copy-always kernel and the fast kernel agree on values in both
        fidelities (elapsed compared only within one fidelity — hybrid
        intentionally re-times)."""
        golden = _run(self.LAYOUT, algorithm, compat=True, fidelity=fidelity)
        fast = _run(self.LAYOUT, algorithm, compat=False, fidelity=fidelity)
        _assert_identical(golden, fast)

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_hybrid_macro_charges_on_homogeneous_layout(self, algorithm):
        """The new plans actually engage: one macro event per call on
        the homogeneous golden layout, zero on a ragged one."""
        hybrid = _run(self.LAYOUT, algorithm, compat=False, fidelity="hybrid")
        assert hybrid.counters["macro_events"] == 1
        ragged = _run((10, 4, 3), algorithm, compat=False, fidelity="hybrid")
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
        job = _run((16, 4, 4), "ring", compat=False, fidelity="hybrid")
        assert job.counters["macro_events"] == 0
        assert job.counters["hybrid_plan_fallbacks"] == {"ring": 16}

    def test_planned_algorithm_does_not(self):
        job = _run((16, 4, 4), "dpml", compat=False, fidelity="hybrid")
        assert job.counters["macro_events"] == 1
        assert job.counters["hybrid_plan_fallbacks"] == {}

    def test_exact_mode_keeps_historical_counter_shape(self):
        job = _run((16, 4, 4), "ring", compat=False, fidelity="exact")
        assert "hybrid_plan_fallbacks" not in job.counters


def test_counters_reflect_modes():
    """Fast mode actually takes the fast paths; compat mode never does."""
    layout = (16, 4, 4)
    golden = _run(layout, "dpml", compat=True)
    fast = _run(layout, "dpml", compat=False)
    assert golden.counters["nowq_entries"] == 0
    assert golden.counters["pool_reuses"] == 0
    assert fast.counters["nowq_entries"] > 0
    assert fast.counters["pool_reuses"] > 0
    assert (
        fast.counters["events_allocated"] < golden.counters["events_allocated"]
    )
    assert fast.counters["heap_pushes"] < golden.counters["heap_pushes"]
