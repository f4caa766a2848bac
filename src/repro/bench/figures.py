"""One entry point per figure of the paper's evaluation section.

Every :data:`FIGURES` entry runs the corresponding experiment and
returns a :class:`FigureResult` whose ``rows`` hold the same series the
paper plots and whose ``table`` is a printable rendition.  Figures
4-10 and two extensions are records of :data:`repro.bench.spec.SWEEPS`,
all regenerated by :func:`sweep_figure`; the rest have a function each.
The claim records of :mod:`repro.bench.experiments` check the paper's
numbers against the results' ``meta["data"]``; the CLI (``python -m
repro bench``) prints them.

Scale
-----
By default experiments run at a *reduced-but-faithful* scale (16-64
nodes, full subscription) so a full benchmark pass completes in
minutes.  Set ``REPRO_PAPER_SCALE=1`` to use the paper's exact process
counts (Figure 5/6: 1,792 ranks; Figure 10: 10,240 ranks) — expect a
long run.  Each row of EXPERIMENTS.md records which scale produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Callable, Optional, Sequence

from repro.apps.hpcg import run_hpcg
from repro.apps.miniamr import run_miniamr
from repro.apps.osu import osu_collective_latency, relative_throughput
from repro.bench.executor import run_sweep
from repro.bench.report import format_size, format_table, format_us
from repro.bench.spec import (
    SWEEPS,
    SweepResult,
    SweepSpec,
    named_sweep,
    paper_scale,
    resolve_config,
)
from repro.core.model import CostModel
from repro.faults.plan import ArrivalSkew, FaultPlan
from repro.machine.clusters import cluster_a, cluster_b, cluster_c, cluster_d
from repro.machine.fattree import FatTreeConfig
from repro.mpi.runtime import SimSession, run_job
from repro.payload import SUM, SymbolicPayload
from repro.traffic.runner import run_traffic
from repro.traffic.workload import JobSpec, TrafficTrace

__all__ = [
    "FigureResult",
    "paper_scale",
    "fig1_throughput",
    "render_sweep",
    "sweep_figure",
    "fig11a_hpcg",
    "fig11bc_miniamr",
    "model_validation",
    "latency_series",
    "ablation_pipeline",
    "ablation_design",
    "sharp_v2",
    "future_work",
    "fattree_congestion",
    "pap_imbalance",
    "traffic_tenancy",
    "FIGURES",
]


@dataclass
class FigureResult:
    """Output of one figure regeneration."""

    name: str
    rows: list[dict] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def table(self) -> str:
        """Printable fixed-width table of the rows."""
        scale = self.meta.get("scale", "")
        title = f"{self.name}  [{scale}]" if scale else self.name
        return format_table(self.rows, self.columns, title=title)


def _scale_meta(nodes: int, ppn: int) -> dict:
    return {
        "scale": f"{nodes} nodes x {ppn} ppn = {nodes * ppn} ranks"
        + (" (paper scale)" if paper_scale() else " (reduced scale)"),
        "nodes": nodes,
        "ppn": ppn,
    }


def _table(name, data, key, meta, label=str, formats=None) -> FigureResult:
    """The figure of ``data`` (``{row: {column: value}}``): one table
    row per row key, named by ``label`` in the ``key`` column.  A value
    prints through ``formats[column]`` (default: seconds as us); a
    column that a row lacks stays blank.  ``meta`` may replace
    ``meta["data"]`` with the numbers the claims read."""
    formats = formats or {}
    columns = list(dict.fromkeys(str(c) for cells in data.values() for c in cells))
    rows = [
        {key: label(k), **{str(c): formats.get(c, format_us)(v)
                           for c, v in cells.items()}}
        for k, cells in data.items()
    ]
    return FigureResult(name=name, rows=rows, columns=[key] + columns,
                        meta={"data": data, **meta})


def _gain(value: float) -> str:
    return f"{value:+.0%}"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


# ---------------------------------------------------------------- Figure 1


def fig1_throughput(
    variant: str = "c", iterations: int = 3, sizes: Optional[Sequence[int]] = None
) -> FigureResult:
    """Fig. 1: relative multi-pair throughput per channel.

    ``variant``: ``"a"`` intra-node shm, ``"b"`` inter-node IB,
    ``"c"`` inter-node Omni-Path (Xeon), ``"d"`` inter-node Omni-Path
    (KNL).
    """
    variant = variant.lower()
    setups = {
        "a": (cluster_a(2), True, [2, 4, 8, 14]),
        "b": (cluster_a(2), False, [2, 4, 8, 14]),
        "c": (cluster_c(2), False, [2, 4, 8, 14]),
        "d": (cluster_d(2), False, [2, 8, 16, 32]),
    }
    config, intra, pairs = setups[variant]
    sizes = list(sizes or [64, 1024, 16384, 131072, 1048576])
    data = relative_throughput(
        config, pairs, sizes, intra_node=intra, iterations=iterations
    )
    rows = [
        {"size": format_size(s), **{f"pairs={p}": f"{data[s][p]:.1f}" for p in pairs}}
        for s in sizes
    ]
    return FigureResult(
        name=f"Figure 1({variant}): relative throughput ({config.fabric.name}"
        f"{', intra-node' if intra else ''})",
        rows=rows,
        columns=["size"] + [f"pairs={p}" for p in pairs],
        meta={"pairs": pairs, "data": data, "scale": "2 nodes",
              "ylabel": "relative throughput", "yscale": 1.0},
    )


# ---------------------------------------------- Figures 4-10 and families


def render_sweep(result: SweepResult) -> FigureResult:
    """The table of a named sweep's result, as its record lays it out.

    Pure: reads the latencies of ``result`` and simulates nothing.
    """
    spec = result.spec
    record = SWEEPS[spec.name]
    if len(spec.algorithms) > 1:
        data = result.by_size_algorithm()
        renames = dict(record.renames)
        series = {alg: renames.get(alg, alg) for alg in spec.algorithms}
    else:
        data = result.by_size_leaders()
        series = {l: f"l={l}" for l in spec.effective_leader_counts}
    rows = []
    for size in spec.sizes:
        times = data[size]
        best = min(times, key=times.get)
        row = {"size": format_size(size)}
        row.update((label, format_us(times[key])) for key, label in series.items())
        if record.best:
            row["best"] = best
        for column, num, den in record.speedups:
            row[column] = f"{times[num] / times[best if den == 'best' else den]:.2f}x"
        rows.append(row)
    return FigureResult(
        name=record.title.format(ppn=spec.ppn),
        rows=rows,
        columns=list(rows[0]),  # every row has the same keys, in order
        meta={**_scale_meta(spec.nodes, spec.ppn), "data": data,
              "spec_hash": spec.spec_hash()},
    )


def sweep_figure(
    name: str,
    *,
    ppn: Optional[int] = None,
    iterations: Optional[int] = None,
    sizes: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Run the named sweep ``name`` (:data:`~repro.bench.spec.SWEEPS`)
    and render its table."""
    spec = named_sweep(name, ppn=ppn, iterations=iterations, sizes=sizes)
    return render_sweep(run_sweep(spec))


# ------------------------------------------------------------ Figure 11


def fig11a_hpcg(iterations: int = 20) -> FigureResult:
    """Fig. 11(a): HPCG DDOT time, host vs SHArP designs (Cluster A)."""
    data = {
        nranks: {
            alg: run_hpcg(cluster_a(nranks // 28), nranks=nranks, ppn=28,
                          local_grid=(8, 8, 8), iterations=iterations,
                          allreduce_algorithm=alg).ddot_time
            for alg in ("mvapich2", "sharp_node_leader", "sharp_socket_leader")
        }
        for nranks in (56, 224, 448)
    }
    cells = {
        nranks: {
            "host-ddot(us)": d["mvapich2"],
            "node-leader(us)": d["sharp_node_leader"],
            "socket-leader(us)": d["sharp_socket_leader"],
            "nl-improvement": (d["mvapich2"] - d["sharp_node_leader"]) / d["mvapich2"],
            "sl-improvement": (d["mvapich2"] - d["sharp_socket_leader"]) / d["mvapich2"],
        }
        for nranks, d in data.items()
    }
    return _table("Figure 11(a): HPCG DDOT time, Cluster A, 28 ppn", cells,
                  "ranks", {"data": data, "scale": "paper scale (56-448 ranks)"},
                  formats={"nl-improvement": _gain, "sl-improvement": _gain})


def fig11bc_miniamr(steps: int = 6) -> FigureResult:
    """Fig. 11(b,c): miniAMR mesh-refinement time (Clusters C and D)."""
    if paper_scale():
        setups = [("C", cluster_c(64), 28), ("D", cluster_d(64), 64)]
    else:
        setups = [("C", cluster_c(16), 28), ("D", cluster_d(16), 32)]
    data: dict[str, dict[str, float]] = {}
    cells = {}
    for label, cfg, ppn in setups:
        data[label] = {
            alg: run_miniamr(cfg, nranks=cfg.nodes * ppn, ppn=ppn, steps=steps,
                             initial_blocks=64, allreduce_algorithm=alg).refine_time
            for alg in ("mvapich2", "intel_mpi", "dpml_tuned")
        }
        mv, im, dp = data[label].values()
        cells[label] = {"ranks": cfg.nodes * ppn, "mvapich2(ms)": mv,
                        "intel(ms)": im, "dpml(ms)": dp,
                        "vs-mvapich2": (mv - dp) / mv, "vs-intel": (im - dp) / im}
    return _table(
        "Figure 11(b,c): miniAMR mesh refinement time", cells, "cluster",
        {"data": data, "scale": "paper scale" if paper_scale() else "reduced scale"},
        formats={"ranks": str, "mvapich2(ms)": _ms, "intel(ms)": _ms,
                 "dpml(ms)": _ms, "vs-mvapich2": _gain, "vs-intel": _gain},
    )


# ----------------------------------------------- Model validation & ablation


def model_validation(iterations: int = 2) -> FigureResult:
    """Section 5 check: Eq. 7 vs simulated DPML latency.

    The model is contention-free and charges (ppn/l - 1) combines where
    the simulator performs (ppn - 1) combines of n/l bytes, so we
    expect order-of-magnitude agreement and identical *trends* (both
    monotone decreasing in l for large n), not equality.
    """
    spec = SweepSpec(
        name="model-validation", cluster="b", nodes=16, ppn=28,
        sizes=(16384, 131072, 1048576), leader_counts=(1, 4, 16),
        iterations=iterations,
    )
    simulated = run_sweep(spec).by_size_leaders()
    model = CostModel.from_machine(resolve_config(spec.cluster, spec.nodes))
    rows = []
    data = []
    for size in spec.sizes:
        for l in spec.leader_counts:
            sim_t = simulated[size][l]
            model_t = model.t_dpml(p=spec.nodes * spec.ppn, h=spec.nodes, l=l, n=size)
            rows.append(
                {
                    "size": format_size(size),
                    "leaders": l,
                    "model(us)": format_us(model_t),
                    "simulated(us)": format_us(sim_t),
                    "ratio": f"{sim_t / model_t:.2f}",
                }
            )
            data.append((size, l, model_t, sim_t))
    return FigureResult(
        name="Section 5: analytical model (Eq. 7) vs simulation, Cluster B",
        rows=rows,
        columns=["size", "leaders", "model(us)", "simulated(us)", "ratio"],
        meta={"data": data, "scale": f"{spec.nodes} nodes x {spec.ppn} ppn"},
    )


def latency_series(name: str, series: dict, meta: dict) -> FigureResult:
    """One column per ``label: spec`` of ``series``, one row per size:
    each spec, run through :func:`~repro.bench.executor.run_sweep`,
    sweeps one algorithm at one leader count."""
    data: dict[int, dict[str, float]] = {}
    for label, spec in series.items():
        for size, times in run_sweep(spec).by_size_algorithm().items():
            (latency,) = times.values()
            data.setdefault(size, {})[label] = latency
    return _table(name, dict(sorted(data.items())), "size", meta, format_size)


def ablation_pipeline(iterations: int = 1) -> FigureResult:
    """E13: DPML vs DPML-Pipelined (and k sweep) on Omni-Path.

    On this substrate pipelining is roughly neutral, consistent with the
    paper's own Equation 5 (the serialized cost *rises* by (k-1)·a·lg h;
    any gain must come from overlap, which only matters once phase 3
    dominates — see EXPERIMENTS.md).
    """
    plain = SweepSpec(
        name="ablation-pipeline", cluster="c",
        nodes=64 if paper_scale() else 32, ppn=28,
        sizes=(524288, 2097152), leader_counts=(16,), iterations=iterations,
    )
    series = {"plain": plain} | {
        f"k-unit={format_size(unit)}": plain.with_overrides(
            algorithms=("dpml_pipelined",), extra={"pipeline_unit": unit}
        )
        for unit in (8192, 16384, 65536)
    }
    return latency_series("Ablation: DPML vs DPML-Pipelined, Cluster C (us)",
                          series, _scale_meta(plain.nodes, plain.ppn))


def ablation_design() -> FigureResult:
    """E14: every message eager vs every message rendezvous (recursive
    doubling, Cluster B at 8 x 8), and the tuned selector vs a fixed
    16-leader DPML (16 x 28)."""
    base = cluster_b(8)
    eager, rendezvous = (
        SweepSpec(name="ablation-eager", nodes=8, ppn=8, sizes=(32768, 131072),
                  cluster=replace(base, fabric=replace(base.fabric, eager_threshold=n)),
                  algorithms=("recursive_doubling",))
        for n in (1 << 22, 0)
    )
    fixed = SweepSpec(name="ablation-tuning", cluster="b", nodes=16, ppn=28,
                      sizes=(64, 1024, 65536, 524288), leader_counts=(16,))
    tuned = fixed.with_overrides(algorithms=("dpml_tuned",), leader_counts=(None,))
    return latency_series(
        "Ablation: eager vs rendezvous, tuned vs fixed leaders, Cluster B (us)",
        {"eager": eager, "rendezvous": rendezvous, "dpml l=16": fixed,
         "dpml_tuned": tuned},
        {"scale": "8 nodes x 8 ppn (eager, rendezvous), 16 x 28 (dpml)"},
    )


def sharp_v2() -> FigureResult:
    """E19: the socket-leader design on SHArP v2 streaming aggregation
    (``SharpConfig(streaming=True)``, no 256-byte segments) vs v1, and
    both vs host-based MVAPICH2 and 16-leader DPML (Cluster A, 16 x 28)."""
    v1 = SweepSpec(name="sharp-v2", cluster="a", nodes=16, ppn=28,
                   sizes=(2048, 65536, 1048576),
                   algorithms=("sharp_socket_leader",))
    base = cluster_a(16)
    v2 = replace(base, sharp=replace(base.sharp, streaming=True))
    return latency_series(
        "SHArP v1 vs v2 streaming vs host-based designs, Cluster A (us)",
        {"sharp v1": v1, "sharp v2": v1.with_overrides(cluster=v2),
         "mvapich2": v1.with_overrides(algorithms=("mvapich2",)),
         "dpml l=16": v1.with_overrides(algorithms=("dpml",), leader_counts=(16,))},
        {"scale": "16 nodes x 28 ppn"},
    )


#: E15's host work (seconds) beside a non-blocking SHArP allreduce.
_COMPUTE = 30e-6


def _overlap_job(comm, overlap: bool):
    """A 256-byte SHArP allreduce and :data:`_COMPUTE` of host work,
    overlapped (non-blocking) or one after the other."""
    payload = SymbolicPayload(64, 4)
    t0 = comm.now
    if overlap:
        request = comm.iallreduce(payload, SUM, algorithm="sharp_node_leader")
        yield comm.sim.timeout(_COMPUTE)
        yield from comm.wait(request)
    else:
        yield from comm.allreduce(payload, SUM, algorithm="sharp_node_leader")
        yield comm.sim.timeout(_COMPUTE)
    return comm.now - t0


def future_work() -> FigureResult:
    """E15: Section 8's future work.  DPML reduce and bcast vs the
    binomial trees (Cluster B, 16 nodes x 8 ppn), and a non-blocking
    SHArP allreduce overlapping host work (Cluster A, 8 nodes x 4 ppn)."""
    data: dict[str, dict[str, float]] = {
        f"{kind} {format_size(size)}": {
            alg: osu_collective_latency(cluster_b(16), kind, size, nranks=128,
                                        ppn=8, algorithm=alg, iterations=2)
            for alg in ("binomial", "dpml")
        }
        for kind, size in product(("reduce", "bcast"), (64, 1 << 20))
    }
    data["sharp iallreduce"] = {"compute": _COMPUTE} | {
        mode: max(run_job(cluster_a(8), 32, _overlap_job, ppn=4,
                          args=(mode == "overlapped",)).values)
        for mode in ("serial", "overlapped")
    }
    return _table("Section 8 future work: rooted DPML, non-blocking SHArP (us)",
                  data, "case", {"scale": "128 ranks (reduce, bcast), 32 (SHArP)"})


def _peak_util(result) -> float:
    """The scraper's peak link utilisation over a traffic run."""
    return max(
        (s["links"]["util_max"] for s in result.series if s["links"]),
        default=0.0,
    )


def fattree_congestion() -> FigureResult:
    """E16: what Cluster D's fat tree adds to the endpoint-only fabric.

    Four 2 x 2 tenants stream 1 MB DPML allreduces through one thin
    spine link, packed in one leaf or spread across leaves (time: the
    run's elapsed); a 16 x 16 DPML job runs alone at 256 B on the flat
    fabric and a routed tree, and at 512 KB with 1 and 16 leaders on a
    congested tree (time: its p50).  Each row has the peak link use.
    """
    def tree(nodes: int, **kw):
        return replace(cluster_d(nodes), topology=FatTreeConfig(**kw))

    def solo(config, nbytes: int, leaders: int) -> dict:
        job = JobSpec(app="osu", arrival=0.0, nodes=16, ppn=16, nbytes=nbytes,
                      iterations=1, algorithm="dpml", leaders=leaders)
        result = run_traffic(TrafficTrace(jobs=(job,)), config=config,
                             interval=1e-4)
        p50 = result.jobs[0].latency_summary()["p50"]
        return {"time": p50, "peak-util": _peak_util(result)}

    tenants = TrafficTrace(jobs=tuple(
        JobSpec(app="osu", arrival=0.0, nodes=2, ppn=2, nbytes=1 << 20,
                iterations=1, algorithm="dpml")
        for _ in range(4)
    ))
    thin = tree(8, nodes_per_leaf=4, spines=1, link_byte_time=3.2e-10)
    cells = {}
    for placement in ("packed", "spread"):
        result = run_traffic(tenants, config=thin, placement=placement)
        cells[placement] = {"time": result.elapsed,
                            "peak-util": _peak_util(result)}
    routed = tree(16, nodes_per_leaf=4, spines=2, link_byte_time=8e-11,
                  hop_latency=1.5e-7)
    congested = tree(16, nodes_per_leaf=8, spines=2, link_byte_time=8e-11)
    cells["flat 256B"] = solo(cluster_d(16), 256, 1)
    cells["routed 256B"] = solo(routed, 256, 1)
    cells["l=1 512KB"] = solo(congested, 524288, 1)
    cells["l=16 512KB"] = solo(congested, 524288, 16)
    return _table("Fat-tree ablation, Cluster D: time (us) and peak link use",
                  cells, "case",
                  {"scale": "4 x (2 x 2) tenants on 8 nodes; 16 x 16 solo jobs"},
                  formats={"peak-util": "{:.2f}".format})


#: E20's panel: DPML, the library baseline, the literature families
#: and the adaptive selector.
PAP_ALGORITHMS = ("dpml", "rabenseifner", "dualroot_pipelined",
                  "optimal_rsag", "generalized", "adaptive")


def _bare_allreduces(comm, algorithm: str, iterations: int):
    """``iterations`` 16 KB allreduces, no fence before them."""
    payload = SymbolicPayload(4096, 4)
    for _ in range(iterations):
        yield from comm.allreduce(payload, SUM, algorithm=algorithm)


def pap_imbalance(
    nodes: int = 4,
    ppn: int = 4,
    skews: Sequence[float] = (0.0, 5e-5, 2e-4, 1e-3),
    algorithms: Sequence[str] = PAP_ALGORITHMS,
    iterations: int = 3,
) -> FigureResult:
    """E20: allreduce time vs process-arrival skew (Proficz,
    arXiv:1804.05349), 16 KB, Cluster B.

    Each point is a bare job of ``iterations`` allreduces whose ranks
    arrive ``sorted`` over ``skew`` seconds, timed as its elapsed time
    over ``iterations``: the latency harness's idle fence would release
    every rank at once and absorb the skew.
    """
    session = SimSession(cluster_b(nodes), nodes * ppn, ppn)
    data: dict[str, dict[float, float]] = {}
    for algorithm, skew in product(algorithms, skews):
        plan = FaultPlan(faults=(
            (ArrivalSkew(magnitude=skew, pattern="sorted"),) if skew else ()
        ))
        job = session.run(_bare_allreduces, faults=plan,
                          args=(algorithm, iterations))
        data.setdefault(algorithm, {})[skew] = job.elapsed / iterations
    return _table(
        "Allreduce time per call (us) vs arrival skew (s), Cluster B, 16KB",
        data, "algorithm", {"scale": f"{nodes} nodes x {ppn} ppn"},
    )


def traffic_tenancy(
    tenant_counts: Sequence[int] = (1, 2, 4),
    algorithms: Sequence[str] = ("dpml", "rabenseifner", "adaptive"),
    nbytes: int = 262144,
) -> FigureResult:
    """E18: allreduce algorithms under rising multi-tenant load.

    Not a paper figure: the paper benchmarks one job on an idle
    cluster, but its motivating deployments are shared.  Each cell runs
    ``T`` identical OSU-style tenants concurrently on one shared
    8-node fabric with a deliberately thin single-spine fat tree
    (``spread`` placement, so every tenant's leader traffic crosses the
    contended spine links) via :mod:`repro.traffic`, and reports the
    mean per-tenant p50 collective latency plus the scraper's peak link
    utilisation.  The claim under test: DPML's partitioned leaders keep
    both the absolute latency and the degradation slope below the
    single-stream rabenseifner as tenancy rises, and ``adaptive``
    tracks the better design.
    """
    config = replace(cluster_b(8), topology=FatTreeConfig(
        nodes_per_leaf=4, spines=1, link_byte_time=3.2e-10))
    data: dict[int, dict[str, float]] = {}
    utils: dict[int, float] = {}
    for tenants, alg in product(tenant_counts, algorithms):
        trace = TrafficTrace(jobs=tuple(
            JobSpec(app="osu", arrival=0.0, nodes=2, ppn=2, nbytes=nbytes,
                    iterations=2, algorithm=alg)
            for _ in range(tenants)
        ))
        result = run_traffic(trace, config=config, placement="spread")
        p50s = [job.latency_summary()["p50"] for job in result.jobs]
        data.setdefault(tenants, {})[alg] = sum(p50s) / len(p50s)
        utils[tenants] = max(utils.get(tenants, 0.0), _peak_util(result))
    cells = {
        tenants: {**times, "best": min(times, key=times.get),
                  "peak-util": utils[tenants]}
        for tenants, times in data.items()
    }
    return _table(
        f"Tenant load vs allreduce design, shared thin-spine fabric "
        f"({format_size(nbytes)} payload, us)", cells, "tenants",
        {"data": data, "peak_utils": utils,
         "scale": "8 shared nodes, 2x2-rank tenants, spread placement"},
        formats={"best": str, "peak-util": "{:.2f}".format},
    )


#: CLI registry: name -> callable.  Every argument has a default; the
#: named sweeps take ``ppn``, ``iterations`` and ``sizes``.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig1a": lambda: fig1_throughput("a"),
    "fig1b": lambda: fig1_throughput("b"),
    "fig1c": lambda: fig1_throughput("c"),
    "fig1d": lambda: fig1_throughput("d"),
    **{name: partial(sweep_figure, name) for name in SWEEPS},
    "fig11a": fig11a_hpcg,
    "fig11bc": fig11bc_miniamr,
    "model": model_validation,
    "ablation": ablation_pipeline,
    "traffic": traffic_tenancy,
    "design": ablation_design,
    "future": future_work,
    "fattree": fattree_congestion,
    "sharp-v2": sharp_v2,
    "pap": pap_imbalance,
}
