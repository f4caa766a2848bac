"""Structural tests for the figure regenerators (fast, tiny sweeps).

The paper's claims about the full-size figures are the records of
:mod:`repro.bench.experiments`; here we check the FigureResult plumbing
itself with minimal parameter grids.
"""

import pytest

from repro.bench.figures import (
    FIGURES,
    FigureResult,
    fig1_throughput,
    fig4_to_7_leaders,
    fig8_sharp,
    fig9_libraries,
    paper_scale,
)


class TestFigureResult:
    def test_table_includes_title_and_scale(self):
        result = FigureResult(
            name="Demo", rows=[{"a": 1}], columns=["a"], meta={"scale": "tiny"}
        )
        assert result.table.splitlines()[0] == "Demo  [tiny]"

    def test_table_without_scale(self):
        result = FigureResult(name="Demo", rows=[{"a": 1}], columns=["a"])
        assert result.table.splitlines()[0] == "Demo"


class TestRegistry:
    def test_all_paper_figures_registered(self):
        for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig4", "fig5",
                     "fig6", "fig7", "fig8", "fig9a", "fig9b", "fig9c",
                     "fig9d", "fig10", "fig11a", "fig11bc", "model",
                     "ablation"):
            assert name in FIGURES

    def test_paper_scale_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert not paper_scale()
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert paper_scale()


class TestQuickRuns:
    def test_fig1_structure(self):
        result = fig1_throughput("b", iterations=1, sizes=[64, 65536])
        assert len(result.rows) == 2
        assert "pairs=14" in result.columns
        assert result.meta["data"][64][2] > 0

    def test_fig4_structure(self):
        result = fig4_to_7_leaders("fig4", iterations=1, sizes=[1024])
        assert result.rows[0]["size"] == "1KB"
        assert set(result.meta["data"][1024]) == {1, 2, 4, 8, 16}

    def test_fig8_structure(self):
        result = fig8_sharp(ppn=4, iterations=1, sizes=[64])
        row = result.rows[0]
        assert "nl-speedup" in row and row["nl-speedup"].endswith("x")

    def test_fig9_structure(self):
        result = fig9_libraries("c", iterations=1, sizes=[256])
        assert "intel_mpi" in result.columns
        assert "vs-intel" in result.columns
        result_b = fig9_libraries("b", iterations=1, sizes=[256])
        assert "intel_mpi" not in result_b.columns
