"""One entry point per figure of the paper's evaluation section.

Every :data:`FIGURES` entry runs the corresponding experiment and
returns a :class:`FigureResult` whose ``rows`` hold the same series the
paper plots and whose ``table`` is a printable rendition.  Figures
4-10 and ``families`` are records of :data:`repro.bench.spec.SWEEPS`,
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

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from repro.apps.hpcg import run_hpcg
from repro.apps.miniamr import run_miniamr
from repro.apps.osu import relative_throughput
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
from repro.machine.clusters import cluster_a, cluster_b, cluster_c, cluster_d

__all__ = [
    "FigureResult",
    "paper_scale",
    "fig1_throughput",
    "render_sweep",
    "sweep_figure",
    "fig11a_hpcg",
    "fig11bc_miniamr",
    "model_validation",
    "ablation_pipeline",
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
    if spec.leader_counts == (None,):
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
    algorithms = ["mvapich2", "sharp_node_leader", "sharp_socket_leader"]
    rows = []
    data: dict[int, dict[str, float]] = {}
    for nranks in (56, 224, 448):
        nodes = nranks // 28
        data[nranks] = {}
        for alg in algorithms:
            res = run_hpcg(
                cluster_a(nodes),
                nranks=nranks,
                ppn=28,
                local_grid=(8, 8, 8),
                iterations=iterations,
                allreduce_algorithm=alg,
            )
            data[nranks][alg] = res.ddot_time
        host = data[nranks]["mvapich2"]
        rows.append(
            {
                "ranks": nranks,
                "host-ddot(us)": format_us(host),
                "node-leader(us)": format_us(data[nranks]["sharp_node_leader"]),
                "socket-leader(us)": format_us(data[nranks]["sharp_socket_leader"]),
                "nl-improvement": f"{(host - data[nranks]['sharp_node_leader']) / host:+.0%}",
                "sl-improvement": f"{(host - data[nranks]['sharp_socket_leader']) / host:+.0%}",
            }
        )
    return FigureResult(
        name="Figure 11(a): HPCG DDOT time, Cluster A, 28 ppn",
        rows=rows,
        columns=["ranks", "host-ddot(us)", "node-leader(us)", "socket-leader(us)",
                 "nl-improvement", "sl-improvement"],
        meta={"data": data, "scale": "paper scale (56-448 ranks)"},
    )


def fig11bc_miniamr(steps: int = 6) -> FigureResult:
    """Fig. 11(b,c): miniAMR mesh-refinement time (Clusters C and D)."""
    if paper_scale():
        setups = [("C", cluster_c(64), 28), ("D", cluster_d(64), 64)]
    else:
        setups = [("C", cluster_c(16), 28), ("D", cluster_d(16), 32)]
    algorithms = ["mvapich2", "intel_mpi", "dpml_tuned"]
    rows = []
    data: dict[str, dict[str, float]] = {}
    for label, cfg, ppn in setups:
        data[label] = {}
        for alg in algorithms:
            res = run_miniamr(
                cfg,
                nranks=cfg.nodes * ppn,
                ppn=ppn,
                steps=steps,
                initial_blocks=64,
                allreduce_algorithm=alg,
            )
            data[label][alg] = res.refine_time
        mv, im, dp = (data[label][a] for a in algorithms)
        rows.append(
            {
                "cluster": label,
                "ranks": cfg.nodes * ppn,
                "mvapich2(ms)": f"{mv * 1e3:.2f}",
                "intel(ms)": f"{im * 1e3:.2f}",
                "dpml(ms)": f"{dp * 1e3:.2f}",
                "vs-mvapich2": f"{(mv - dp) / mv:+.0%}",
                "vs-intel": f"{(im - dp) / im:+.0%}",
            }
        )
    return FigureResult(
        name="Figure 11(b,c): miniAMR mesh refinement time",
        rows=rows,
        columns=["cluster", "ranks", "mvapich2(ms)", "intel(ms)", "dpml(ms)",
                 "vs-mvapich2", "vs-intel"],
        meta={"data": data,
              "scale": "paper scale" if paper_scale() else "reduced scale"},
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


#: Pipeline unit sizes of the E13 ablation.
_PIPELINE_UNITS = (8192, 16384, 65536)


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
        unit: plain.with_overrides(
            algorithms=("dpml_pipelined",), extra={"pipeline_unit": unit}
        )
        for unit in _PIPELINE_UNITS
    }
    measured = {key: run_sweep(spec).by_size_leaders() for key, spec in series.items()}
    data = {
        size: {key: measured[key][size][16] for key in series}
        for size in plain.sizes
    }
    columns = ["plain"] + [f"k-unit={format_size(u)}" for u in _PIPELINE_UNITS]
    rows = [
        {
            "size": format_size(size),
            **{col: format_us(data[size][key]) for col, key in zip(columns, series)},
        }
        for size in plain.sizes
    ]
    return FigureResult(
        name="Ablation: DPML vs DPML-Pipelined, Cluster C (us)",
        rows=rows,
        columns=["size"] + columns,
        meta={"data": data, **_scale_meta(plain.nodes, plain.ppn)},
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
    import dataclasses as _dc

    from repro.machine.fattree import FatTreeConfig
    from repro.traffic.runner import run_traffic
    from repro.traffic.workload import JobSpec, TrafficTrace

    config = _dc.replace(
        cluster_b(8),
        topology=FatTreeConfig(
            nodes_per_leaf=4, spines=1, link_byte_time=3.2e-10
        ),
    )
    data: dict[int, dict[str, float]] = {}
    utils: dict[int, float] = {}
    for tenants in tenant_counts:
        data[tenants] = {}
        for alg in algorithms:
            trace = TrafficTrace(
                jobs=tuple(
                    JobSpec(
                        app="osu", arrival=0.0, nodes=2, ppn=2,
                        nbytes=nbytes, iterations=2, algorithm=alg,
                    )
                    for _ in range(tenants)
                )
            )
            result = run_traffic(trace, config=config, placement="spread")
            p50s = [job.latency_summary()["p50"] for job in result.jobs]
            data[tenants][alg] = sum(p50s) / len(p50s)
            utils[tenants] = max(
                utils.get(tenants, 0.0),
                max(
                    (s["links"]["util_max"] for s in result.series if s["links"]),
                    default=0.0,
                ),
            )
    rows = []
    for tenants in tenant_counts:
        best = min(data[tenants], key=data[tenants].get)
        rows.append(
            {
                "tenants": str(tenants),
                **{alg: format_us(data[tenants][alg]) for alg in algorithms},
                "best": best,
                "peak-util": f"{utils[tenants]:.2f}",
            }
        )
    return FigureResult(
        name=f"Tenant load vs allreduce design, shared thin-spine fabric "
        f"({format_size(nbytes)} payload, us)",
        rows=rows,
        columns=["tenants"] + list(algorithms) + ["best", "peak-util"],
        meta={
            "data": data,
            "peak_utils": utils,
            "scale": "8 shared nodes, 2x2-rank tenants, spread placement",
        },
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
}
