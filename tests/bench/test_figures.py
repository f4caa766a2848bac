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
    paper_scale,
    render_sweep,
)
from repro.bench.report import format_us
from repro.bench.spec import SWEEPS, PointResult, SweepResult, named_sweep


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
                     "ablation", "design", "multilevel", "future",
                     "fattree", "sharp-v2", "pap"):
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
        result = FIGURES["fig4"](iterations=1, sizes=[1024])
        assert result.rows[0]["size"] == "1KB"
        assert set(result.meta["data"][1024]) == {1, 2, 4, 8, 16}

    def test_fig8_structure(self):
        result = FIGURES["fig8"](ppn=4, iterations=1, sizes=[64])
        row = result.rows[0]
        assert "nl-speedup" in row and row["nl-speedup"].endswith("x")

    def test_fig9_structure(self):
        result = FIGURES["fig9c"](iterations=1, sizes=[256])
        assert "intel_mpi" in result.columns
        assert "vs-intel" in result.columns
        result_b = FIGURES["fig9b"](iterations=1, sizes=[256])
        assert "intel_mpi" not in result_b.columns


_LEADERS = ["l=1", "l=2", "l=4", "l=8", "l=16"]
_LIBRARIES = ["mvapich2", "dpml_tuned", "vs-mvapich2"]
_WITH_INTEL = ["mvapich2", "intel_mpi", "dpml_tuned", "vs-mvapich2", "vs-intel"]

#: name -> (title, columns after "size", derived cells).  The synthetic
#: latency of series i of n is (n - i) us at the first size and twice
#: that at the second, so the last series is always the fastest.
_RENDERED = {
    "fig4": ("Figure 4 (Cluster A): DPML allreduce latency (us) vs leaders",
             _LEADERS + ["best"], {"best": 16}),
    "fig5": ("Figure 5 (Cluster B): DPML allreduce latency (us) vs leaders",
             _LEADERS + ["best"], {"best": 16}),
    "fig6": ("Figure 6 (Cluster C): DPML allreduce latency (us) vs leaders",
             _LEADERS + ["best"], {"best": 16}),
    "fig7": ("Figure 7 (Cluster D): DPML allreduce latency (us) vs leaders",
             _LEADERS + ["best"], {"best": 16}),
    "fig8": ("Figure 8: SHArP designs vs host-based, 28 ppn (us)",
             ["host", "node-leader", "socket-leader", "nl-speedup",
              "sl-speedup"],
             {"nl-speedup": "1.50x", "sl-speedup": "3.00x"}),
    "fig9a": ("Figure 9(a) Cluster A: MPI_Allreduce latency (us)", _LIBRARIES,
              {"vs-mvapich2": "2.00x"}),
    "fig9b": ("Figure 9(b) Cluster B: MPI_Allreduce latency (us)", _LIBRARIES,
              {"vs-mvapich2": "2.00x"}),
    "fig9c": ("Figure 9(c) Cluster C: MPI_Allreduce latency (us)", _WITH_INTEL,
              {"vs-mvapich2": "3.00x", "vs-intel": "2.00x"}),
    "fig9d": ("Figure 9(d) Cluster D: MPI_Allreduce latency (us)", _WITH_INTEL,
              {"vs-mvapich2": "3.00x", "vs-intel": "2.00x"}),
    "fig10": ("Figure 10: MPI_Allreduce latency at scale, Cluster D (us)",
              _WITH_INTEL, {"vs-mvapich2": "3.00x", "vs-intel": "2.00x"}),
    "families": ("Literature families vs DPML, Cluster B (us)",
                 ["mvapich2", "dpml_tuned", "dualroot_pipelined",
                  "optimal_rsag", "generalized", "best", "vs-dpml"],
                 {"best": "generalized", "vs-dpml": "4.00x"}),
    "multilevel": ("Flat DPML vs two-level hierarchy, Cluster B, 8 leaders (us)",
                   ["dpml", "dpml_multilevel", "deep/flat"],
                   {"deep/flat": "0.50x"}),
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_named_sweep_renders_from_a_synthetic_result(name):
    title, columns, derived = _RENDERED[name]
    spec = named_sweep(name, sizes=(64, 4096))
    by_algorithm = len(spec.algorithms) > 1
    series = spec.algorithms if by_algorithm else spec.effective_leader_counts
    latency = {key: (len(series) - i) * 1e-6 for i, key in enumerate(series)}
    results = [
        PointResult(p, latency[p.algorithm if by_algorithm else p.leaders]
                    * (1 + spec.sizes.index(p.nbytes)))
        for p in spec.points()
    ]
    figure = render_sweep(SweepResult(spec=spec, results=results))
    assert figure.name == title
    assert figure.columns == ["size"] + columns
    assert [row["size"] for row in figure.rows] == ["64B", "4KB"]
    for row in figure.rows:
        assert {k: row[k] for k in derived} == derived
    assert figure.rows[1][columns[0]] == format_us(len(series) * 2e-6)
    assert figure.meta["data"][4096][series[-1]] == 2e-6
    assert figure.meta["spec_hash"] == spec.spec_hash()
