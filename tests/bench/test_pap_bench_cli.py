"""Determinism and panel tests for the E20 arrival-skew figure (``pap``).

``repro bench pap --sanitize`` runs :func:`pap_imbalance`; these tests
keep its contract honest from tier-1 — two sanitized runs replay
bit-identically, and the panel carries the literature families — on a
layout small enough for the unit suite.
"""

from repro import canonical
from repro.bench.figures import PAP_ALGORITHMS, pap_imbalance

FAMILIES = ("dualroot_pipelined", "optimal_rsag", "generalized")


def test_default_panel_carries_literature_families():
    assert set(FAMILIES) <= set(PAP_ALGORITHMS)
    assert len(PAP_ALGORITHMS) >= 3  # resilience-curve floor


def test_cli_algorithms_panel_is_byte_deterministic(monkeypatch):
    """Two sanitized runs of the family panel give identical data."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    first, second = (
        pap_imbalance(nodes=2, ppn=2, skews=(0.0, 2e-4),
                      algorithms=FAMILIES, iterations=2)
        for _ in range(2)
    )
    data = first.meta["data"]
    assert canonical.dumps(data) == canonical.dumps(second.meta["data"])
    assert list(data) == list(FAMILIES)
    for by_skew in data.values():
        # Skew visibly delays the job on every family.
        assert by_skew[0.0] < by_skew[2e-4]
