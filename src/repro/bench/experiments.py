"""The paper's claims as banded records, and the EXPERIMENTS.md report.

Each :class:`Experiment` names one entry of
:data:`~repro.bench.figures.FIGURES` (plus its arguments), the paper's
text, and a tuple of :class:`Claim` records.  A claim extracts one
number from the figure and checks it against a two-sided band:

* a *factor* the paper reports gets the band ``[0.67, 1.5]`` times the
  paper's number, tightened to a stricter threshold the reproduction
  has always held;
* an *ordering* ("socket-leader <= node-leader at every size") is a
  ratio with a lower edge at 1.0 and a finite upper edge;
* a *shape* the paper draws but does not number keeps the two edges it
  is stated with.

A claim that misses its band today is committed as an expected failure
carrying its measured value; its band is not widened.  The shipped
EXPERIMENTS.md is the output of::

    python -m repro bench experiments --output EXPERIMENTS.md

which exits 1 if a claim fails that is not marked as expected, or if
a claim marked as expected to fail passes.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import MODEL_ID
from repro.bench import figures
from repro.bench.figures import FigureResult, paper_scale

__all__ = ["Claim", "Experiment", "evaluate", "generate_experiments_report"]

#: Upper edge of an ordering claim whose paper gives no ratio.
ORDER_HI = 4.0


def near(paper: float, lo: Optional[float] = None,
         hi: Optional[float] = None) -> tuple[float, float]:
    """The default band ``[0.67, 1.5] * paper``, tightened to ``lo``/``hi``."""
    a, b = 0.67 * paper, 1.5 * paper
    return (a if lo is None else max(a, lo), b if hi is None else min(b, hi))


@dataclass(frozen=True)
class Claim:
    """One number the paper reports, with the band it must land in.

    ``paper`` is ``None`` for an ordering or shape the paper draws but
    does not number.  ``xfail`` marks an expected failure: any value
    outside the band.  It carries the value measured when it was
    marked, which the report prints for reference.
    """

    name: str
    measure: Callable[[FigureResult], float]
    paper: Optional[float]
    band: tuple[float, float]
    xfail: Optional[float] = None

    def status(self, value: float) -> str:
        """``pass``, ``FAIL``, ``xfail`` or ``XPASS`` for ``value``."""
        inside = self.band[0] <= value <= self.band[1]
        if self.xfail is None:
            return "pass" if inside else "FAIL"
        return "XPASS" if inside else "xfail"


def ordering(name, measure, paper=None, hi=ORDER_HI, xfail=None) -> Claim:
    """A ratio that must be at least 1.0 (``hi`` caps it)."""
    return Claim(name, measure, paper, (1.0, hi), xfail)


@dataclass(frozen=True)
class Experiment:
    """A figure run (``FIGURES[figure](**args)``) and the claims it holds."""

    id: str
    figure: str
    paper: str
    claims: tuple[Claim, ...]
    args: dict = field(default_factory=dict)
    note: str = ""


#: Statuses that make ``python -m repro bench experiments`` exit 1.
BAD = ("FAIL", "XPASS")


# -- extractors (each returns a closure FigureResult -> float) ---------------


def _data(result: FigureResult):
    return result.meta["data"]


def rel(size, pairs):
    """Fig. 1: relative throughput of ``pairs`` pairs at ``size``."""
    return lambda r: _data(r)[size][pairs]


def rel_min(pairs):
    """Fig. 1: the smallest relative throughput of ``pairs`` over sizes."""
    return lambda r: min(d[pairs] for d in _data(r).values())


def rel_growth(r):
    """Fig. 1: the smallest gain from one pair count to the next."""
    out = []
    for d in _data(r).values():
        counts = sorted(d)
        out += [d[b] / d[a] for a, b in zip(counts, counts[1:])]
    return min(out)


def ratio(size, num, den):
    """``data[size][num] / data[size][den]`` (latency or time ratio)."""
    return lambda r: _data(r)[size][num] / _data(r)[size][den]


def best_leaders(size):
    """Figs. 4-7: the fastest leader count at ``size``."""
    return lambda r: float(min(_data(r)[size], key=_data(r)[size].get))


def best_leaders_growth(r):
    """Figs. 4-7: the smallest step of the best leader count over sizes."""
    data = _data(r)
    bests = [min(data[s], key=data[s].get) for s in sorted(data)]
    return min(b / a for a, b in zip(bests, bests[1:]))


def leader_steps(size, counts):
    """Figs. 4-7: the smallest gain from one leader count to the next."""
    return lambda r: min(
        _data(r)[size][a] / _data(r)[size][b] for a, b in zip(counts, counts[1:])
    )


def speedup_max(base, alg="dpml_tuned"):
    """The largest ``base / alg`` latency ratio over sizes."""
    return lambda r: max(d[base] / d[alg] for d in _data(r).values())


def speedup_min(base, alg, from_size):
    """The smallest ``base / alg`` latency ratio at ``from_size`` and up."""
    return lambda r: min(
        d[base] / d[alg] for s, d in _data(r).items() if s >= from_size
    )


def gap_ratio(r):
    """Max speedup vs MVAPICH2 over max speedup vs Intel MPI."""
    return speedup_max("mvapich2")(r) / speedup_max("intel_mpi")(r)


def node_over_socket(r):
    """Fig. 8: the smallest node-leader / socket-leader ratio over sizes."""
    return min(
        d["sharp_node_leader"] / d["sharp_socket_leader"]
        for d in _data(r).values()
    )


def designs_apart(r):
    """Fig. 8: how far apart the two SHArP designs are at any size."""
    return max(
        max(d["sharp_node_leader"] / d["sharp_socket_leader"],
            d["sharp_socket_leader"] / d["sharp_node_leader"])
        for d in _data(r).values()
    )


def crossover(r):
    """Fig. 8: the smallest size at which host-based beats node-leader."""
    data = _data(r)
    return float(min(
        (s for s in data if data[s]["mvapich2"] < data[s]["sharp_node_leader"]),
        default=float("inf"),
    ))


def improvement(key, base, alg):
    """Fig. 11: ``(base - alg) / base`` of one row."""
    return lambda r: (_data(r)[key][base] - _data(r)[key][alg]) / _data(r)[key][base]


def min_over(keys, num, den):
    """The smallest ``num / den`` over the rows ``keys``."""
    return lambda r: min(_data(r)[k][num] / _data(r)[k][den] for k in keys)


def amr_gain_ratio(r):
    """Fig. 11(c) over 11(b): the DPML gain vs MVAPICH2, D over C."""
    gain = improvement("D", "mvapich2", "dpml_tuned")(r)
    return gain / improvement("C", "mvapich2", "dpml_tuned")(r)


def model_ratios(r):
    """Section 5: simulated / Eq. 7 latency at 128 KB and up."""
    return [sim / model for size, _, model, sim in _data(r) if size >= 131072]


def model_steps(column):
    """Section 5: the smallest gain from one leader count to the next
    at 128 KB and up, of the model (``2``) or the simulation (``3``)."""
    def measure(r):
        by_size: dict = {}
        for row in _data(r):
            if row[0] >= 131072:
                by_size.setdefault(row[0], []).append(row[column])
        return min(
            a / b for times in by_size.values() for a, b in zip(times, times[1:])
        )
    return measure


def pipelined_ratios(r):
    """E13: pipelined / plain DPML latency for every size and unit."""
    return [
        piped / series["plain"]
        for series in _data(r).values()
        for unit, piped in series.items() if unit != "plain"
    ]


def fastest_share(alg):
    """The share of rows at which ``alg`` is the fastest."""
    return lambda r: sum(
        min(d, key=d.get) == alg for d in _data(r).values()
    ) / len(_data(r))


def lead_over_others(alg):
    """The smallest margin of ``alg`` over the next-best design."""
    return lambda r: min(
        min(t for a, t in d.items() if a != alg) / d[alg]
        for d in _data(r).values()
    )


def degradation_ratio(r):
    """E18: rabenseifner's slowdown over dpml's, fewest to most tenants."""
    data = _data(r)
    lo, hi = min(data), max(data)
    slope = {a: data[hi][a] / data[lo][a] for a in ("dpml", "rabenseifner")}
    return slope["rabenseifner"] / slope["dpml"]


# -- the records --------------------------------------------------------------

#: Claims about small messages under more leaders (Figs. 4-6): "leaders
#: do not help tiny messages and sometimes slightly degrade them".
_SMALL = Claim("16-leader / 1-leader latency at 1 KB", ratio(1024, 16, 1),
               None, (0.8, 1.5))


def _leader_speedup(size, lo, paper=None) -> Claim:
    """16 leaders over 1; with no paper number the edge above is the
    leader count itself."""
    band = near(paper, lo) if paper is not None else (lo, 16.0)
    return Claim(f"16-vs-1 leader speedup at {size // 1024} KB",
                 ratio(size, 1, 16), paper, band)


#: "16 leaders best from 8 KB": the named leader sweeps step from 4 KB
#: to 16 KB, so the claim is checked at 16 KB.
_BEST16 = Claim("best leader count at 16 KB", best_leaders(16384), 16,
                near(16, 8))

_EXPERIMENTS: list[Experiment] = [
    Experiment(
        "E1a", "fig1a",
        "Fig. 1(a): intra-node shm relative throughput scales ~linearly "
        "with pairs at every size",
        (Claim("14 pairs, smallest over sizes", rel_min(14), 14, near(14, 10)),
         Claim("2 pairs, smallest over sizes", rel_min(2), 2, near(2, 1.7))),
    ),
    Experiment(
        "E1b", "fig1b",
        "Fig. 1(b): InfiniBand relative throughput grows with pairs at "
        "all message sizes",
        (Claim("14 pairs at 64 B", rel(64, 14), 14, near(14, 10)),
         Claim("14 pairs at 1 MB", rel(1048576, 14), None, (6.0, 21.0)),
         ordering("more pairs, more throughput (smallest step)", rel_growth,
                  hi=2.0)),
    ),
    Experiment(
        "E1c", "fig1c",
        "Fig. 1(c): Omni-Path shows zones A (scales), B (partial), C "
        "(flat at ~1)",
        (Claim("zone A: 14 pairs at 64 B", rel(64, 14), 14, near(14, 10)),
         Claim("zone B: 14 pairs at 16 KB", rel(16384, 14), None, (2.0, 10.0)),
         Claim("zone C: 14 pairs at 1 MB", rel(1048576, 14), 1, near(1, hi=1.6))),
    ),
    Experiment(
        "E1d", "fig1d",
        "Fig. 1(d): same zones on KNL with more processes",
        (Claim("zone A: 32 pairs at 64 B", rel(64, 32), 32, near(32, 24)),
         Claim("zone C: 32 pairs at 1 MB", rel(1048576, 32), 1, near(1, hi=2.0))),
    ),
    Experiment(
        "E2", "fig4",
        "Fig. 4 (Cluster A, 448 ranks): leaders help medium/large "
        "messages, not small ones",
        (_leader_speedup(524288, 3.0),
         _leader_speedup(65536, 2.0),
         _SMALL,
         ordering("1 -> 2 -> 4 leaders at 512 KB (smallest step)",
                  leader_steps(524288, (1, 2, 4)), hi=2.0)),
    ),
    Experiment(
        "E3", "fig5",
        "Fig. 5 (Cluster B): 4.9x lower latency with 16 leaders at 512KB",
        (_leader_speedup(524288, 3.0, paper=4.9),
         _leader_speedup(16384, 1.5),
         _SMALL,
         ordering("best leader count never falls with size", best_leaders_growth,
                  hi=16.0)),
        note="At reduced scale this runs the same job as E2: `cluster_a` "
        "and `cluster_b` differ only in `sharp`, which DPML does not use, "
        "so the two tables are identical.",
    ),
    Experiment(
        "E4", "fig6",
        "Fig. 6 (Cluster C): 4.3x lower latency with 16 leaders at 512KB; "
        "16 leaders best from 8KB",
        (_leader_speedup(524288, 2.8, paper=4.3), _BEST16, _SMALL),
        note="The leader sweep has no 8 KB point; the best leader count "
        "is checked at 16 KB.",
    ),
    Experiment(
        "E5", "fig7",
        "Fig. 7 (Cluster D, KNL): largest multi-leader wins; 16 leaders "
        "best from 8KB",
        (_leader_speedup(524288, 3.0), _leader_speedup(65536, 2.5),
         _BEST16),
        note="The leader sweep has no 8 KB point; the best leader count "
        "is checked at 16 KB.",
    ),
    Experiment(
        "E6", "fig8",
        "Fig. 8: SHArP ~2.5x at tiny sizes (1 ppn); node-leader up to "
        "80%/46% and socket-leader up to 100%/73% faster at 4/28 ppn; "
        "host-based wins at 4KB",
        (Claim("node-leader speedup at 16 B", ratio(16, "mvapich2",
               "sharp_node_leader"), 1.46, near(1.46, 1.3)),
         Claim("socket-leader speedup at 16 B", ratio(16, "mvapich2",
               "sharp_socket_leader"), 1.73, near(1.73, 1.7)),
         ordering("node-leader / socket-leader, every size", node_over_socket),
         ordering("node-leader / host-based at 4 KB",
                  ratio(4096, "sharp_node_leader", "mvapich2")),
         Claim("host-based beats node-leader from (bytes)", crossover, 4096,
               near(4096), xfail=2048)),
        args={"ppn": 28},
    ),
    Experiment(
        "E6b", "fig8",
        "Fig. 8 at 4 ppn: node-leader up to 80% and socket-leader up to "
        "100% faster than host-based",
        (Claim("node-leader speedup at 256 B", ratio(256, "mvapich2",
               "sharp_node_leader"), 1.8, near(1.8, 1.5)),
         Claim("socket-leader speedup at 256 B", ratio(256, "mvapich2",
               "sharp_socket_leader"), 2.0, near(2.0, 1.8))),
        args={"ppn": 4},
    ),
    Experiment(
        "E6c", "fig8",
        "Fig. 8 at 1 ppn: SHArP up to 2.5x faster than host-based; the "
        "two designs coincide",
        (Claim("node-leader speedup at 256 B", ratio(256, "mvapich2",
               "sharp_node_leader"), 2.5, near(2.5, 2.0)),
         Claim("node-leader vs socket-leader, furthest apart", designs_apart,
               1, (1.0, 1.0 + 1e-12))),
        args={"ppn": 1},
    ),
    Experiment(
        "E7a", "fig9a",
        "Fig. 9(a) Cluster A: DPML up to 3.59x vs MVAPICH2",
        (Claim("max speedup vs MVAPICH2", speedup_max("mvapich2"), 3.59,
               near(3.59, 2.5)),
         Claim("min speedup vs MVAPICH2 from 256 B",
               speedup_min("mvapich2", "dpml_tuned", 256), None, (0.9, 1.5))),
    ),
    Experiment(
        "E7b", "fig9b",
        "Fig. 9(b) Cluster B: DPML up to 3.08x vs MVAPICH2",
        (Claim("max speedup vs MVAPICH2", speedup_max("mvapich2"), 3.08,
               near(3.08, 2.5)),
         Claim("min speedup vs MVAPICH2 from 256 B",
               speedup_min("mvapich2", "dpml_tuned", 256), None, (0.9, 1.5)),
         ordering("speedup at 64 KB over speedup at 256 B",
                  lambda r: ratio(65536, "mvapich2", "dpml_tuned")(r)
                  / ratio(256, "mvapich2", "dpml_tuned")(r))),
    ),
    Experiment(
        "E7c", "fig9c",
        "Fig. 9(c) Cluster C: DPML up to 1.4x vs MVAPICH2, 2.98x vs "
        "Intel MPI",
        (Claim("max speedup vs MVAPICH2", speedup_max("mvapich2"), 1.4,
               near(1.4), xfail=3.23),
         Claim("max speedup vs Intel MPI", speedup_max("intel_mpi"), 2.98,
               near(2.98, 1.5)),
         Claim("min speedup vs MVAPICH2 from 256 B",
               speedup_min("mvapich2", "dpml_tuned", 256), None, (0.9, 1.5))),
    ),
    Experiment(
        "E7d", "fig9d",
        "Fig. 9(d) Cluster D: DPML up to 3.31x vs MVAPICH2, 2.3x vs "
        "Intel MPI",
        (Claim("max speedup vs MVAPICH2", speedup_max("mvapich2"), 3.31,
               near(3.31, 2.5), xfail=5.83),
         Claim("max speedup vs Intel MPI", speedup_max("intel_mpi"), 2.3,
               near(2.3, 1.2)),
         ordering("max speedup vs MVAPICH2 / vs Intel MPI", gap_ratio,
                  3.31 / 2.3, 1.5 * 3.31 / 2.3, xfail=2.87)),
    ),
    Experiment(
        "E8", "fig10",
        "Fig. 10 (Cluster D at 10,240 ranks): DPML beats MVAPICH2 by up "
        "to 207% and Intel MPI by up to 48%",
        (Claim("max speedup vs MVAPICH2", speedup_max("mvapich2"), 3.07,
               near(3.07, 2.0), xfail=5.62),
         Claim("max speedup vs Intel MPI", speedup_max("intel_mpi"), 1.48,
               near(1.48, 1.2)),
         ordering("max speedup vs MVAPICH2 / vs Intel MPI", gap_ratio,
                  3.07 / 1.48, 1.5 * 3.07 / 1.48),
         ordering("min speedup vs MVAPICH2 from 16 KB",
                  speedup_min("mvapich2", "dpml_tuned", 16384))),
    ),
    Experiment(
        "E9", "fig11a",
        "Fig. 11(a): SHArP designs improve HPCG DDOT time (up to 35%); "
        "socket-leader best",
        (Claim("socket-leader DDOT improvement at 448 ranks",
               improvement(448, "mvapich2", "sharp_socket_leader"), 0.35,
               near(0.35, 0.25)),
         ordering("host / socket-leader at 224 and 448 ranks",
                  min_over((224, 448), "mvapich2", "sharp_socket_leader")),
         ordering("host / node-leader at 224 and 448 ranks",
                  min_over((224, 448), "mvapich2", "sharp_node_leader")),
         ordering("node-leader / socket-leader at 224 and 448 ranks",
                  min_over((224, 448), "sharp_node_leader",
                           "sharp_socket_leader")),
         Claim("socket-leader DDOT time, 448 over 56 ranks",
               lambda r: _data(r)[448]["sharp_socket_leader"]
               / _data(r)[56]["sharp_socket_leader"], 1, near(1, hi=1.2)),
         Claim("host DDOT time, 448 over 56 ranks",
               lambda r: _data(r)[448]["mvapich2"] / _data(r)[56]["mvapich2"],
               None, (1.3, ORDER_HI))),
    ),
    Experiment(
        "E10", "fig11bc",
        "Fig. 11(b,c): miniAMR refinement up to 40%/20% better than "
        "MVAPICH2/Intel on C and 60%/20% on D",
        (Claim("cluster C gain vs MVAPICH2",
               improvement("C", "mvapich2", "dpml_tuned"), 0.4, near(0.4, 0.25)),
         Claim("cluster C gain vs Intel MPI",
               improvement("C", "intel_mpi", "dpml_tuned"), 0.2,
               near(0.2, 0.15), xfail=0.545),
         Claim("cluster D gain vs MVAPICH2",
               improvement("D", "mvapich2", "dpml_tuned"), 0.6, near(0.6, 0.25)),
         Claim("cluster D gain vs Intel MPI",
               improvement("D", "intel_mpi", "dpml_tuned"), 0.2,
               near(0.2, 0.15), xfail=0.463),
         ordering("gain vs MVAPICH2, cluster D over C", amr_gain_ratio,
                  0.6 / 0.4, 1.5 * 0.6 / 0.4)),
    ),
    Experiment(
        "E11", "model",
        "Section 5 / Eq. 7: analytical model tracks the measured DPML "
        "cost and its leader-count trends",
        (Claim("smallest sim/model ratio from 128 KB",
               lambda r: min(model_ratios(r)), None, (0.3, 4.0)),
         Claim("largest sim/model ratio from 128 KB",
               lambda r: max(model_ratios(r)), None, (0.3, 4.0)),
         ordering("model: more leaders, lower latency (smallest step)",
                  model_steps(2)),
         ordering("simulation: more leaders, lower latency (smallest step)",
                  model_steps(3))),
    ),
    Experiment(
        "E13", "ablation",
        "Section 4.2: DPML-Pipelined for very large messages "
        "(paper gives Eq. 5 but no separate figure); neutral here, as "
        "Eq. 5 predicts on a compute-dominated profile",
        (Claim("smallest pipelined / plain ratio",
               lambda r: min(pipelined_ratios(r)), None, (0.85, 1.15)),
         Claim("largest pipelined / plain ratio",
               lambda r: max(pipelined_ratios(r)), None, (0.85, 1.15))),
    ),
    Experiment(
        "E17", "families",
        "Extension (not in the paper): tuned DPML vs the competing "
        "literature families — Träff dual-root tree (arXiv:2109.12626), "
        "optimal reduce-scatter/allgather (arXiv:2410.14234), and the "
        "Kolmakov-Zhang generalized allreduce (arXiv:2004.09362)",
        (Claim("share of sizes where DPML-tuned is fastest",
               fastest_share("dpml_tuned"), None, (0.5, 1.0)),),
    ),
    Experiment(
        "E18", "traffic",
        "Extension (not in the paper): multi-tenant traffic on a shared "
        "thin-spine fabric — DPML's partitioned leaders should degrade "
        "more gracefully than single-stream rabenseifner as concurrent "
        "tenant load rises (cf. Proficz arXiv:1804.05349 on imbalance)",
        (ordering("next-best design / dpml at every tenant count",
                  lead_over_others("dpml")),
         ordering("rabenseifner slowdown / dpml slowdown, 1 -> 4 tenants",
                  degradation_ratio)),
    ),
]


def _num(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.3g}"


def evaluate(exp: Experiment, result: FigureResult) -> list[tuple[Claim, float, str]]:
    """Each claim of ``exp`` with its measured value and status."""
    out = []
    for claim in exp.claims:
        value = float(claim.measure(result))
        out.append((claim, value, claim.status(value)))
    return out


def claim_line(claim: Claim, value: float, status: str) -> str:
    """One report line: status, name, measured value, band, paper number."""
    lo, hi = claim.band
    paper = "—" if claim.paper is None else _num(claim.paper)
    line = (
        f"- **{status}** {claim.name}: {_num(value)} "
        f"(band [{_num(lo)}, {_num(hi)}], paper {paper})"
    )
    if claim.xfail is not None:
        line += f"; expected failure, measured {_num(claim.xfail)} when marked"
    return line


def generate_experiments_report(out=None, selected=None) -> tuple[str, list[str]]:
    """Run every experiment; return the report and its bad claim lines.

    A bad line is a claim that fails unmarked or passes while marked as
    an expected failure.  ``out`` also writes the report there.
    """
    from repro.bench.store import store_from_env

    buf = io.StringIO()
    scale = "paper" if paper_scale() else "reduced (REPRO_PAPER_SCALE=1 for full)"
    store = store_from_env()
    store_note = (
        f"result store: `{store.root}` (sweeps read through the "
        "content-addressed cache; only missing points simulate).\n"
        if store is not None
        else ""
    )
    buf.write(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Generated by `python -m repro bench experiments` "
        f"(model `{MODEL_ID[:16]}`),\n"
        f"scale: **{scale}**.  {store_note}"
        "Absolute times are simulated microseconds on\n"
        "the calibrated cluster models; the reproduction targets are the\n"
        "*shapes* — who wins, crossovers, and approximate factors (see\n"
        "DESIGN.md).  Every table below is regenerated from the figure\n"
        "registry, and every claim line is one record of\n"
        "`repro.bench.experiments`: its measured value, its two-sided band,\n"
        "the paper's number and its status: `pass`, `xfail` (an expected\n"
        "failure, still outside its band), `FAIL` (outside the band) or\n"
        "`XPASS` (an expected failure inside its band); the last two make\n"
        "the command exit 1.\n\n"
    )
    bad: list[str] = []
    counts: dict[str, int] = {}
    for exp in _EXPERIMENTS:
        if selected and exp.id not in selected:
            continue
        t0 = time.time()
        result = figures.FIGURES[exp.figure](**exp.args)
        buf.write(f"## {exp.id} — {result.name}\n\n")
        buf.write(f"**Paper:** {exp.paper}.\n\n")
        if exp.note:
            buf.write(f"{exp.note}\n\n")
        for claim, value, status in evaluate(exp, result):
            line = claim_line(claim, value, status)
            buf.write(line + "\n")
            counts[status] = counts.get(status, 0) + 1
            if status in BAD:
                bad.append(f"{exp.id}: {line[2:]}")
        buf.write("\n```\n")
        buf.write(result.table)
        buf.write("\n```\n\n")
        stamp = f"_(regenerated in {time.time() - t0:.1f}s wall)_"
        spec_hash = result.meta.get("spec_hash")
        if spec_hash:
            stamp += f" _(sweep spec `{spec_hash}`)_"
        buf.write(f"{stamp}\n\n")
    summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    buf.write(f"Claims: {summary or 'none run'}.\n")
    report = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(report)
    return report, bad
