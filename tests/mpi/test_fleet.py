"""Fleet launch: one process stands for every rank of a hybrid job.

When a hybrid job is fully macro-eligible and its rank function carries
a fleet form (the symbolic ``allreduce_latency`` kernel does), the
runtime prices every collective up front and runs one process that
issues the same macro-charges every rank would.  The per-rank launch
stays the reference: these tests force it with a plain wrapper
generator, which carries no fleet form, and require the two paths to
agree on everything simulated.  Jobs the fleet cannot represent launch
per rank and are counted in ``JobResult.counters["hybrid_fleet_fallbacks"]``.
The per-rank matcher table the fleet never touches is built lazily.
"""

import pytest

from repro.bench.harness import latency_kernel
from repro.check import reports as R
from repro.check.sanitizer import Sanitizer
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, Straggler
from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.mpi import run_job
from repro.mpi.runtime import Runtime, SimSession
from tests.conftest import PRICED_ALGORITHMS

NBYTES = 4096
#: Counters that depend on event-pool warmth, which a reused session
#: carries from job to job.
POOL_COUNTERS = ("events_allocated", "pool_reuses", "pool_evictions")


def _per_rank(kernel):
    """``kernel`` without its fleet form: forces the per-rank launch."""

    def rank_fn(comm):
        value = yield from kernel(comm)
        return value

    return rank_fn


def _run(kernel, nodes, ppn, nranks=None, **kwargs):
    nranks = nodes * ppn if nranks is None else nranks
    return run_job(
        cluster_b(nodes), nranks, kernel, ppn=ppn, fidelity="hybrid", **kwargs
    )


def _simulated(job) -> dict:
    """Everything the simulation decides, minus the fleet counter and
    the pool-warmth counters."""
    counters = dict(job.counters)
    for key in ("hybrid_fleet_fallbacks", *POOL_COUNTERS):
        counters.pop(key)
    return {
        "values": job.values,
        "elapsed": job.elapsed,
        "macro_log": list(job.machine.sim.macro_log),
        "counters": counters,
    }


@pytest.mark.parametrize("algorithm", PRICED_ALGORITHMS)
@pytest.mark.parametrize("nodes,ppn", [(2, 4), (8, 8)], ids=["2x4", "8x8"])
@pytest.mark.parametrize("warmup,iterations", [(1, 1), (2, 3)], ids=["w1i1", "w2i3"])
def test_fleet_matches_per_rank(algorithm, nodes, ppn, warmup, iterations):
    kernel = latency_kernel(
        algorithm, NBYTES, warmup=warmup, iterations=iterations
    )
    fleet = _run(kernel, nodes, ppn)
    ranks = _run(_per_rank(kernel), nodes, ppn)
    assert fleet.counters["hybrid_fleet_fallbacks"] == {}
    assert fleet.counters["nowq_entries"] == 2  # one process: start, end
    assert fleet.values == ranks.values
    assert len(set(fleet.values)) == 1 and fleet.values[0] > 0.0
    assert fleet.elapsed == ranks.elapsed
    assert fleet.machine.sim.macro_log == ranks.machine.sim.macro_log
    for key in ("heap_pops", "macro_events"):
        assert fleet.counters[key] == ranks.counters[key]
    # The warm-up charges, the barrier and one timed call: a noise-free
    # point times one fenced call whatever ``iterations`` says.
    assert fleet.counters["macro_events"] == warmup + 2


def test_fleet_events_do_not_grow_with_rank_count():
    kernel = latency_kernel("dpml", NBYTES, warmup=1, iterations=1)
    small = _run(kernel, 2, 4)
    large = _run(kernel, 64, 8)
    assert large.values == [large.values[0]] * 512
    for key in ("events_allocated", "nowq_entries"):
        assert small.counters[key] == large.counters[key]
    ranks = _run(_per_rank(kernel), 64, 8)
    assert ranks.counters["nowq_entries"] > 512


def test_sanitized_fleet_is_clean():
    kernel = latency_kernel("dpml", NBYTES)
    job = _run(kernel, 4, 4, sanitize=True)
    assert job.counters["hybrid_fleet_fallbacks"] == {}
    assert job.reports == []


class TestFleetFallbacks:
    """Each job the fleet cannot represent runs per rank, counted once
    under its reason, with the per-rank path's results."""

    def _assert_per_rank(self, kernel, reason, launch):
        got, want = launch(kernel), launch(_per_rank(kernel))
        assert got.counters["hybrid_fleet_fallbacks"] == {reason: 1}
        assert want.counters["hybrid_fleet_fallbacks"] == {}
        assert _simulated(got) == _simulated(want)
        for key in POOL_COUNTERS:
            assert got.counters[key] == want.counters[key]
        return got

    def test_faults(self):
        plan = FaultPlan(faults=(Straggler(rank=3, factor=4.0),))
        job = self._assert_per_rank(
            latency_kernel("dpml", NBYTES), "faults",
            lambda fn: _run(fn, 2, 4, faults=plan, fault_seed=5),
        )
        # four allreduces (one warm-up, three timed) on each of 8 ranks
        assert job.counters["hybrid_exact_fallbacks"]["dpml:faults"] == 4 * 8

    def test_noise(self):
        def launch(fn):
            machine = Machine(cluster_b(2), 8, 4, noise=NoiseModel(0.05, seed=2))
            return Runtime(machine, fidelity="hybrid").launch(fn)

        self._assert_per_rank(latency_kernel("dpml", NBYTES), "noise", launch)

    def test_ragged_layout(self):
        self._assert_per_rank(
            latency_kernel("dpml", NBYTES), "ragged",
            lambda fn: _run(fn, 3, 4, nranks=10),
        )

    def test_recovery(self):
        self._assert_per_rank(
            latency_kernel("dpml", NBYTES), "recovery",
            lambda fn: _run(fn, 2, 4, recovery=True),
        )

    def test_exempt_algorithm(self):
        job = self._assert_per_rank(
            latency_kernel("ring", NBYTES), "ring:exempt",
            lambda fn: _run(fn, 2, 4),
        )
        # One warm-up and one timed call per rank.
        assert job.counters["hybrid_plan_fallbacks"] == {"ring": 2 * 8}

    def test_default_algorithm_is_named(self):
        self._assert_per_rank(
            latency_kernel(None, NBYTES), "mvapich2:exempt",
            lambda fn: _run(fn, 2, 4),
        )

    def test_single_rank(self):
        self._assert_per_rank(
            latency_kernel("dpml", NBYTES), "single-rank",
            lambda fn: _run(fn, 1, 1),
        )

    def test_unpriceable_charge(self):
        runtime = Runtime(Machine(cluster_b(2), 8, 4), fidelity="hybrid")
        kernel = latency_kernel("dpml", NBYTES, alg_kwargs={"leaders": 0})
        with pytest.raises(ConfigError):
            runtime.launch(kernel)
        assert runtime.hybrid_fleet_fallbacks == {"dpml:unpriceable": 1}
        assert runtime.hybrid_exact_fallbacks["dpml:unpriceable"] >= 1

    def test_validating_kernel_has_no_fleet_form(self):
        kernel = latency_kernel("dpml", NBYTES, validate=True)
        assert not hasattr(kernel, "fleet")
        job = _run(kernel, 2, 4)
        assert job.counters["hybrid_fleet_fallbacks"] == {}
        assert job.counters["nowq_entries"] > 8

    def test_exact_mode_keeps_historical_counter_shape(self):
        job = run_job(cluster_b(2), 8, latency_kernel("dpml", NBYTES), ppn=4)
        assert "hybrid_fleet_fallbacks" not in job.counters


def test_reused_session_clean_faulted_clean():
    """A faulted per-rank job between two fleet jobs leaves no trace."""
    session = SimSession(cluster_b(4), 16, 4, fidelity="hybrid")
    kernel = latency_kernel("dpml", NBYTES, warmup=2, iterations=3)
    clean = _simulated(session.run(kernel))
    plan = FaultPlan(faults=(Straggler(rank=5, factor=4.0),))
    faulted = session.run(kernel, faults=plan, fault_seed=3)
    assert faulted.counters["hybrid_fleet_fallbacks"] == {"faults": 1}
    assert faulted.counters["macro_events"] == 0
    again = session.run(kernel)
    assert again.counters["hybrid_fleet_fallbacks"] == {}
    assert _simulated(again) == clean


class TestLazyMatchers:
    def _runtime(self):
        return Runtime(Machine(cluster_b(2), 8, 4))

    def test_built_on_first_access_and_iterated_in_rank_order(self):
        matchers = self._runtime().transport.matchers
        assert list(matchers) == []
        for rank in (5, 2, 7):
            assert matchers[rank].rank == rank
        assert matchers[5] is matchers[5]
        assert [m.rank for m in matchers] == [2, 5, 7]

    @pytest.mark.parametrize("rank", [-1, 8])
    def test_out_of_range_rank_raises(self, rank):
        with pytest.raises(IndexError):
            self._runtime().transport.matchers[rank]

    def test_check_matchers_names_the_leaking_rank(self):
        runtime = self._runtime()
        runtime.transport.matchers[6].post(0, 7, 0, lambda env: None)
        runtime.transport.matchers[1].post(0, 7, 0, lambda env: None)
        sanitizer = Sanitizer(strict=False)
        sanitizer._check_matchers(runtime)
        leaks = [r for r in sanitizer.reports if r.kind == R.MATCHER_LEAK]
        assert [r.details["rank"] for r in leaks] == [1, 6]
        assert "rank 6" in leaks[1].message
