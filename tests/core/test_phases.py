"""Allreduce records, probes, and the typed unknown-algorithm error.

Each registered allreduce is one :class:`AllreduceAlgorithm` record:
either priced (phases plus a charge function over the calibrated
:class:`~repro.core.model.CostModel`) or exempt with a reason.  These
tests pin the record invariants, the DPML-family charges against the
model's closed-form terms, and ``predict_allreduce == sum(charges)``
for every priced record, so the macro executor, the differential
oracle and the spot-check oracle all price the same thing.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.dpml import DPML_PHASES
from repro.core.model import CostModel, UnknownAlgorithmError
from repro.core.phases import AllreduceAlgorithm, PhaseProbe
from repro.core.pipelined import DEFAULT_PIPELINE_UNIT, MAX_K
from repro.errors import ConfigError, TuningError
from repro.machine.clusters import cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.base import Schedule, segment_count
from repro.mpi.collectives.registry import (
    available_algorithms,
    resolve_phase_plan,
)
from repro.payload import SUM, make_payload
from tests.conftest import PRICED_ALGORITHMS

#: (p, h, n) shape every priced record is checked on.
REFERENCE_SHAPE = (16, 4, 1024)


@pytest.fixture(scope="module")
def model():
    return CostModel.from_machine(cluster_b(8))


def _stub(comm, payload, op, tag_base=0):
    yield from ()


def _stub_schedule(p, rank):
    return Schedule([])


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"phases": ("exchange",)},
        {"phases": ("exchange",), "charge": lambda model, **kw: (), "exempt": "why"},
        {"exempt": "   "},
        {"charge": lambda model, **kw: ()},
        {"phases": ("exchange",), "exempt": "why"},
        {"schedule": _stub_schedule, "exempt": "why"},
        {"fn": None, "exempt": "why"},
    ],
    ids=["neither", "phases-only", "both", "blank-reason", "no-phases",
         "exempt-with-phases", "fn-and-schedule", "neither-fn-nor-schedule"],
)
def test_record_rejects_both_or_neither_of_charge_and_exemption(fields):
    with pytest.raises(TuningError, match="'_stub'"):
        AllreduceAlgorithm("_stub", **{"fn": _stub, **fields})


def test_default_plans_cover_the_modelled_algorithms():
    assert set(PRICED_ALGORITHMS) == {
        "recursive_doubling", "hierarchical", "dpml", "dpml_pipelined",
        "dualroot_pipelined", "optimal_rsag", "generalized",
    }
    assert len(available_algorithms()) == 19


@pytest.mark.parametrize("name", PRICED_ALGORITHMS)
def test_priced_charges_are_finite_nonnegative_and_named_by_phases(name, model):
    record = resolve_phase_plan(name)
    p, h, n = REFERENCE_SHAPE
    charges = record.charge(model, p=p, h=h, n=n)
    assert charges
    for phase, seconds in charges:
        assert phase in record.phases
        assert math.isfinite(seconds) and seconds >= 0.0


@pytest.mark.parametrize(
    "p,h,n",
    [(64, 8, 1 << 18), (8, 8, 1 << 16), (12, 3, 40000)],
    ids=["pipelined-k4", "one-per-node", "non-pow2"],
)
@pytest.mark.parametrize("name", PRICED_ALGORITHMS)
def test_predict_allreduce_is_the_sum_of_charges(name, p, h, n, model):
    charges = resolve_phase_plan(name).charge(model, p=p, h=h, n=n)
    assert model.predict_allreduce(name, p=p, h=h, n=n) == sum(
        seconds for _, seconds in charges
    )


def test_registry_resolves_the_default_plans():
    for name in ("dpml", "dpml_pipelined", "hierarchical", "recursive_doubling"):
        record = resolve_phase_plan(name)
        assert isinstance(record, AllreduceAlgorithm)
        assert record.name == name
    assert resolve_phase_plan("ring") is None
    assert resolve_phase_plan("no-such-algorithm") is None


def test_dpml_charges_sum_to_model_prediction(model):
    p, h, n = 64, 8, 65536
    charges = resolve_phase_plan("dpml").charge(model, p=p, h=h, n=n, leaders=4)
    assert tuple(name for name, _ in charges) == DPML_PHASES
    total = sum(seconds for _, seconds in charges)
    assert total == pytest.approx(model.t_dpml(p, h, 4, n), rel=1e-12)


def test_dpml_charges_match_model_terms(model):
    p, h, n, l = 64, 8, 65536, 4
    charges = dict(resolve_phase_plan("dpml").charge(
        model, p=p, h=h, n=n, leaders=l
    ))
    assert charges["copy_in"] == model.t_copy(l, n)
    assert charges["reduce"] == model.t_comp(p, h, l, n)
    assert charges["exchange"] == model.t_comm(h, l, n)
    assert charges["copy_out"] == model.t_bcast(l, n)


def test_dpml_degenerates_to_flat_exchange_at_one_ppn(model):
    charges = resolve_phase_plan("dpml").charge(model, p=8, h=8, n=4096)
    assert charges == (("exchange", model.t_recursive_doubling(8, 4096)),)


def test_hierarchical_is_single_leader_dpml(model):
    p, h, n = 64, 8, 65536
    hier = resolve_phase_plan("hierarchical").charge(model, p=p, h=h, n=n)
    single = resolve_phase_plan("dpml").charge(model, p=p, h=h, n=n, leaders=1)
    assert hier == single


def test_pipelined_exchange_uses_leader_share_depth(model):
    p, h, n, l = 64, 8, 262144, 4
    charges = dict(resolve_phase_plan("dpml_pipelined").charge(
        model, p=p, h=h, n=n, leaders=l
    ))
    k = segment_count(-(-n // l), DEFAULT_PIPELINE_UNIT, MAX_K)
    assert charges["exchange"] == model.t_comm_pipelined(h, l, n, k)


def test_clamp_leaders(model):
    charge = resolve_phase_plan("dpml").charge
    copy_in = lambda **kw: dict(charge(model, p=64, h=8, n=4096, **kw))["copy_in"]
    assert copy_in() == model.t_copy(4, 4096)  # default
    assert copy_in(leaders=16) == model.t_copy(8, 4096)  # capped at ppn
    assert copy_in(leaders=2) == model.t_copy(2, 4096)
    with pytest.raises(ConfigError, match="leader count must be >= 1"):
        copy_in(leaders=0)


@pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
@pytest.mark.parametrize("algorithm", ["dpml", "dpml_pipelined"])
@pytest.mark.parametrize("nranks,ppn", [(8, 4), (4, 1)])
def test_zero_leaders_rejected_in_both_fidelities(nranks, ppn, algorithm, fidelity):
    def fn(comm):
        with pytest.raises(ConfigError, match="leader count must be >= 1"):
            yield from comm.allreduce(
                make_payload(64), SUM, algorithm=algorithm, leaders=0
            )
        return True

    job = run_job(
        cluster_b(nranks // ppn), nranks, fn, ppn=ppn, fidelity=fidelity
    )
    assert job.values == [True] * nranks


def test_probe_merges_windows_across_ranks():
    probe = PhaseProbe()
    probe.record("dpml", "reduce", 2.0, 5.0)
    probe.record("dpml", "reduce", 1.0, 4.0)
    probe.record("dpml", "copy_in", 0.0, 1.0)
    assert probe.duration("dpml", "reduce") == 4.0
    assert probe.duration("dpml", "copy_in") == 1.0
    assert probe.duration("dpml", "exchange") is None


def test_unknown_algorithm_raises_typed_error(model):
    with pytest.raises(UnknownAlgorithmError) as excinfo:
        model.predict_allreduce("no_such_algorithm", p=8, h=2, n=1024)
    # The typed error is both a TuningError (domain) and a ValueError
    # (caller idiom), and names the known algorithms.
    assert isinstance(excinfo.value, TuningError)
    assert isinstance(excinfo.value, ValueError)
    assert "no_such_algorithm" in str(excinfo.value)


def test_registered_but_unmodelled_algorithm_predicts_none(model):
    assert model.predict_allreduce("ring", p=8, h=2, n=1024) is None


_FIRST_TOUCH_RACE = """
import sys
import threading

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
seen = []


def touch():
    barrier.wait()
    from repro.mpi.collectives.registry import (
        available_algorithms,
        resolve_allreduce,
    )

    resolve_allreduce("dpml", None)
    seen.append(len(available_algorithms()))


threads = [threading.Thread(target=touch) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
print(sorted(seen))
"""


def test_concurrent_first_touch_sees_the_full_table():
    """Threads racing to be the registry's first user all see every
    allreduce (any caller that simulates from a thread pool does this)."""
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _FIRST_TOUCH_RACE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == str([19] * 8)
