"""Tests for the claim records and the EXPERIMENTS.md generator."""

import math

import pytest

from repro.bench import experiments, figures
from repro.bench.experiments import (
    _EXPERIMENTS,
    Claim,
    Experiment,
    evaluate,
    generate_experiments_report,
)
from repro.bench.figures import FigureResult
from repro.cli import main

CLAIMS = [(exp.id, claim) for exp in _EXPERIMENTS for claim in exp.claims]


def _claim_id(item):
    exp_id, claim = item
    return f"{exp_id}:{claim.name}"


def _stub(value: float) -> FigureResult:
    return FigureResult(name="stub figure", meta={"data": {"x": value}})


def _stub_claim(xfail=None) -> Claim:
    return Claim("stub claim", lambda r: r.meta["data"]["x"], 2.0, (1.0, 3.0),
                 xfail=xfail)


class TestExperimentIndex:
    def test_all_paper_figures_covered(self):
        ids = [e.id for e in _EXPERIMENTS]
        # Every evaluation figure of the paper appears, and every
        # design ablation and extension DESIGN.md points at.
        for required in ("E1a", "E1b", "E1c", "E1d", "E2", "E3", "E4", "E5",
                         "E6", "E7a", "E7b", "E7c", "E7d", "E8", "E9", "E10",
                         "E11", "E13", "E14", "E14b", "E15", "E16", "E19",
                         "E20"):
            assert required in ids

    def test_ids_unique(self):
        ids = [e.id for e in _EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_every_entry_has_a_claim(self):
        for exp in _EXPERIMENTS:
            assert exp.paper.strip()
            assert exp.claims
            assert exp.figure in figures.FIGURES
            for claim in exp.claims:
                assert claim.name.strip()
                assert callable(claim.measure)

    def test_claim_names_unique_within_an_experiment(self):
        for exp in _EXPERIMENTS:
            names = [c.name for c in exp.claims]
            assert len(names) == len(set(names)), exp.id


class TestBands:
    @pytest.mark.parametrize("item", CLAIMS, ids=_claim_id)
    def test_band_is_finite_and_ordered(self, item):
        _, claim = item
        lo, hi = claim.band
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo < hi

    @pytest.mark.parametrize(
        "item", [c for c in CLAIMS if c[1].xfail is not None], ids=_claim_id
    )
    def test_expected_failure_is_outside_its_band(self, item):
        _, claim = item
        assert claim.status(claim.xfail) == "xfail"

    def test_default_band(self):
        assert experiments.near(4.0) == pytest.approx((2.68, 6.0))
        assert experiments.near(4.0, lo=3.0) == pytest.approx((3.0, 6.0))
        assert experiments.near(1.0, hi=1.2) == pytest.approx((0.67, 1.2))

    def test_ordering_has_lower_edge_one(self):
        claim = experiments.ordering("a <= b", lambda r: 1.0)
        assert claim.band == (1.0, experiments.ORDER_HI)


class TestEvaluator:
    @pytest.mark.parametrize(
        "value, xfail, status",
        [(2.0, None, "pass"), (5.0, None, "FAIL"),
         (5.0, 5.0, "xfail"), (6.0, 5.0, "xfail"), (2.0, 5.0, "XPASS")],
        ids=["pass", "fail", "expected-failure",
             "expected-failure-at-another-value", "unexpected-pass"],
    )
    def test_status(self, value, xfail, status):
        exp = Experiment("X1", "stub", "stub text", (_stub_claim(xfail),))
        [(claim, measured, got)] = evaluate(exp, _stub(value))
        assert measured == value
        assert got == status

    @pytest.mark.parametrize(
        "value, xfail, code",
        [(2.0, None, 0), (5.0, None, 1), (5.0, 5.0, 0), (2.0, 5.0, 1)],
        ids=["pass", "fail", "expected-failure", "unexpected-pass"],
    )
    def test_command_exit_status(
        self, monkeypatch, capsys, tmp_path, value, xfail, code
    ):
        monkeypatch.setitem(figures.FIGURES, "stub", lambda: _stub(value))
        monkeypatch.setattr(
            experiments, "_EXPERIMENTS",
            [Experiment("X1", "stub", "stub text", (_stub_claim(xfail),))],
        )
        out = tmp_path / "exp.md"
        assert main(["bench", "experiments", "--output", str(out)]) == code
        report = out.read_text()
        status = {0: ("pass", "xfail"), 1: ("FAIL", "XPASS")}[code]
        [line] = [l for l in report.splitlines() if "stub claim" in l]
        assert line.startswith("- **") and line.split("**")[1] in status
        assert "band [1, 3]" in line and "paper 2" in line
        assert ("stub claim" in capsys.readouterr().err) == bool(code)


class TestReportGeneration:
    def test_selected_subset_renders(self, tmp_path):
        out = tmp_path / "exp.md"
        report, bad = generate_experiments_report(
            out=str(out), selected={"E1c"}
        )
        assert bad == []
        assert "# EXPERIMENTS" in report
        assert "E1c" in report
        assert "**Paper:**" in report
        assert "- **pass** zone A: 14 pairs at 64 B: 14 (band [10, 21]" in report
        assert "```" in report  # embedded table
        assert out.read_text() == report

    def test_unselected_experiments_excluded(self):
        report, _ = generate_experiments_report(selected={"E1c"})
        assert "E7b" not in report
