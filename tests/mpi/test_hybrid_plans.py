"""Per-job hybrid macro plans.

In hybrid fidelity the first rank to dispatch a collective prices it —
eligibility plus the record's charge — into the runtime's plan table,
and every other rank reuses that plan.  These tests pin the three
properties that make this sound: pricing work does not grow with the
rank count, a plan never outlives the job it was built for (a reused
session re-plans after ``reset``), and the plan key tells apart calls
that differ only in their keywords.  Every hybrid→exact downgrade is
counted in ``JobResult.counters["hybrid_exact_fallbacks"]``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.harness import allreduce_latency
from repro.core.model import CostModel
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, Straggler
from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.mpi import run_job
from repro.mpi.collectives.registry import resolve_allreduce
from repro.mpi.runtime import Runtime, SimSession
from repro.payload import SUM, make_payload

COUNT = 64


def _inputs(nranks):
    rng = np.random.default_rng(3)
    return [rng.integers(1, 10, COUNT).astype(np.float64) for _ in range(nranks)]


def _dpml_fn(inputs, **kw):
    def fn(comm):
        data = make_payload(COUNT, data=inputs[comm.rank])
        result = yield from comm.allreduce(data, SUM, algorithm="dpml", **kw)
        return result.array

    return fn


@pytest.fixture
def from_machine_calls(monkeypatch):
    """Count every ``CostModel.from_machine`` call."""
    real = CostModel.from_machine.__func__
    calls = []

    def spy(cls, config, nbytes=1 << 30):
        calls.append(nbytes)
        return real(cls, config, nbytes)

    monkeypatch.setattr(CostModel, "from_machine", classmethod(spy))
    return calls


def test_pricing_does_not_scale_with_rank_count(from_machine_calls):
    """One allreduce plan and one barrier plan per job, whether the job
    has 8 ranks or 128."""
    counts = []
    for nodes in (2, 32):
        del from_machine_calls[:]
        allreduce_latency(
            cluster_b(nodes), "dpml", 4096, ppn=4,
            warmup=1, iterations=2, fidelity="hybrid",
        )
        counts.append(len(from_machine_calls))
    assert counts[0] == counts[1] <= 2


def test_one_wrapper_per_record():
    """Hybrid dispatch returns the wrapper built at registry import."""
    comm = SimpleNamespace(runtime=SimpleNamespace(fidelity="hybrid"))
    first = resolve_allreduce("dpml", comm)
    assert first is resolve_allreduce("dpml", comm)
    assert first.exact_fn is resolve_allreduce("dpml", None)


def test_plans_do_not_leak_between_jobs_on_a_reused_session():
    """A plan priced for a clean job must not serve the faulted job that
    follows on the same session, and vice versa."""
    nranks, ppn, nodes = 16, 4, 4
    fn = _dpml_fn(_inputs(nranks))
    session = SimSession(cluster_b(nodes), nranks, ppn, fidelity="hybrid")

    clean = session.run(fn)
    assert clean.counters["macro_events"] >= 1
    assert clean.counters["hybrid_exact_fallbacks"] == {}

    plan = FaultPlan(faults=(Straggler(rank=5, factor=4.0),))
    faulted = session.run(fn, faults=plan, fault_seed=3)
    assert faulted.counters["macro_events"] == 0
    assert faulted.counters["hybrid_exact_fallbacks"]["dpml:faults"] == nranks

    again = session.run(fn)
    assert again.elapsed == clean.elapsed
    for want, got in zip(clean.values, again.values):
        np.testing.assert_array_equal(want, got)
    assert again.machine.sim.macro_log == clean.machine.sim.macro_log
    for key in ("macro_events", "hybrid_exact_fallbacks", "hybrid_plan_fallbacks"):
        assert again.counters[key] == clean.counters[key]


def test_plan_key_includes_kwargs():
    """The same payload reduced with 1 and with 16 leaders in one job
    gets two plans, each charged at its own prediction."""
    nranks, ppn, nodes = 32, 16, 2
    inputs = _inputs(nranks)

    def fn(comm):
        data = make_payload(COUNT, data=inputs[comm.rank])
        for leaders in (1, 16):
            yield from comm.allreduce(data, SUM, algorithm="dpml", leaders=leaders)

    config = cluster_b(nodes)
    job = run_job(config, nranks, fn, ppn=ppn, fidelity="hybrid")
    model = CostModel.from_machine(config, COUNT * 8)
    want = [
        model.predict_allreduce("dpml", p=nranks, h=nodes, n=COUNT * 8, l=leaders)
        for leaders in (1, 16)
    ]
    assert want[0] != want[1]
    log = job.machine.sim.macro_log
    assert [seconds for _, _, seconds, _ in log] == want


def test_unhashable_kwargs_are_priced_uncached():
    """A list-valued keyword cannot key the plan table; the collective
    is still macro-charged, priced on every dispatch."""
    inputs = _inputs(8)

    def fn(comm):
        data = make_payload(COUNT, data=inputs[comm.rank])
        result = yield from comm.allreduce(
            data, SUM, algorithm="generalized", radices=[2, 4]
        )
        return result.array

    job = run_job(cluster_b(2), 8, fn, ppn=4, fidelity="hybrid")
    assert job.counters["macro_events"] == 1
    assert job.counters["hybrid_exact_fallbacks"] == {}
    for got in job.values:
        np.testing.assert_array_equal(got, np.sum(inputs, axis=0))


class TestExactFallbackCounter:
    """Each reason a priced collective runs exact in hybrid mode is
    tallied once per rank dispatch, as ``"<algorithm>:<reason>"``."""

    def test_noise(self):
        machine = Machine(cluster_b(4), 16, 4, noise=NoiseModel(0.05, seed=1))
        job = Runtime(machine, fidelity="hybrid").launch(_dpml_fn(_inputs(16)))
        fallbacks = job.counters["hybrid_exact_fallbacks"]
        assert job.counters["macro_events"] == 0
        assert fallbacks["dpml:noise"] == 16
        assert all(key.endswith(":noise") for key in fallbacks)

    def test_ragged_layout(self):
        job = run_job(
            cluster_b(3), 10, _dpml_fn(_inputs(10)), ppn=4, fidelity="hybrid"
        )
        assert job.counters["hybrid_exact_fallbacks"]["dpml:ragged"] == 10

    def test_recovery(self):
        job = run_job(
            cluster_b(4), 16, _dpml_fn(_inputs(16)), ppn=4,
            fidelity="hybrid", recovery=True,
        )
        assert job.counters["hybrid_exact_fallbacks"]["dpml:recovery"] == 16

    def test_sub_communicator(self):
        inputs = _inputs(16)

        def fn(comm):
            half = yield from comm.split(comm.rank % 2)
            data = make_payload(COUNT, data=inputs[comm.rank])
            yield from half.allreduce(data, SUM, algorithm="dpml")
            yield from comm.barrier()

        job = run_job(cluster_b(4), 16, fn, ppn=4, fidelity="hybrid")
        fallbacks = job.counters["hybrid_exact_fallbacks"]
        assert fallbacks["dpml:subcomm"] == 16
        assert all(key.endswith(":subcomm") for key in fallbacks)
        assert job.counters["macro_events"] == 1  # the world barrier

    def test_barrier(self):
        def fn(comm):
            yield from comm.barrier()

        machine = Machine(cluster_b(2), 8, 4, noise=NoiseModel(0.05, seed=1))
        job = Runtime(machine, fidelity="hybrid").launch(fn)
        assert job.counters["hybrid_exact_fallbacks"] == {"barrier:noise": 8}

    def test_unpriceable_charge(self):
        """A charge that raises sends the collective to the exact path,
        which raises the same error; the downgrade is still counted."""
        machine = Machine(cluster_b(2), 8, 4)
        runtime = Runtime(machine, fidelity="hybrid")
        with pytest.raises(ConfigError):
            runtime.launch(_dpml_fn(_inputs(8), leaders=0))
        assert runtime.hybrid_exact_fallbacks["dpml:unpriceable"] >= 1

    def test_exact_mode_keeps_historical_counter_shape(self):
        job = run_job(cluster_b(2), 8, _dpml_fn(_inputs(8)), ppn=4)
        assert "hybrid_exact_fallbacks" not in job.counters
