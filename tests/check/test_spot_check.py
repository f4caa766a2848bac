"""The hybrid-fidelity spot-check oracle.

``spot_check_hybrid`` is what keeps macro-charging honest: the exact
coroutine path is the golden reference, and every sampled configuration
must show (a) bit-identical result buffers across fidelities and (b)
per-phase charges within the calibrated drift band of the exact phase
windows.  These tests run the oracle across the plan-backed algorithms
and verify it actually *fails* when the band is made impossible.
"""

import pytest

from repro.check.oracle import DEFAULT_BAND, spot_check_hybrid
from repro.check.reports import PHASE_DIVERGENCE
from repro.machine.clusters import cluster_b
from tests.conftest import PRICED_ALGORITHMS


@pytest.mark.parametrize("algorithm", PRICED_ALGORITHMS)
def test_spot_check_passes_for_plan_backed_algorithms(algorithm):
    outcome = spot_check_hybrid(
        cluster_b(4), algorithm, nranks=16, ppn=4, count=256
    )
    assert outcome.ok, [r.to_dict() for r in outcome.reports]
    assert outcome.charged
    assert outcome.hybrid_elapsed > 0.0
    assert outcome.exact_elapsed > 0.0
    # Every bounded phase carries an in-band ratio.
    for row in outcome.phases:
        assert row["ok"]
        if row["ratio"] is not None:
            lo, hi = DEFAULT_BAND
            assert lo <= row["ratio"] <= hi


def test_spot_check_respects_explicit_leaders():
    outcome = spot_check_hybrid(
        cluster_b(4), "dpml", nranks=16, ppn=4, count=512, leaders=2
    )
    assert outcome.ok, [r.to_dict() for r in outcome.reports]


def test_spot_check_flags_impossible_band():
    """With a band no real ratio can satisfy, the oracle must report
    phase divergence — proving the check has teeth."""
    outcome = spot_check_hybrid(
        cluster_b(4), "dpml", nranks=16, ppn=4, count=256,
        band=(1000.0, 2000.0),
    )
    assert not outcome.ok
    assert any(r.kind == PHASE_DIVERGENCE for r in outcome.reports)


def test_spot_check_outcome_serialises():
    outcome = spot_check_hybrid(
        cluster_b(2), "recursive_doubling", nranks=8, ppn=4, count=128
    )
    data = outcome.to_dict()
    assert data["ok"] == outcome.ok
    assert data["algorithm"] == "recursive_doubling"
    assert data["charged"] is True
    assert isinstance(data["phases"], list)


def test_spot_check_is_deterministic():
    first = spot_check_hybrid(cluster_b(4), "dpml", nranks=16, ppn=4, count=256)
    second = spot_check_hybrid(cluster_b(4), "dpml", nranks=16, ppn=4, count=256)
    assert first.to_dict() == second.to_dict()
