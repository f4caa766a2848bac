"""One entry point per figure of the paper's evaluation section.

Every ``fig*`` function runs the corresponding experiment and returns a
:class:`FigureResult` whose ``rows`` hold the same series the paper
plots and whose ``table`` is a printable rendition.  The claim records
of :mod:`repro.bench.experiments` check the paper's numbers against
the results' ``meta["data"]``; the CLI (``python -m repro bench``)
prints them.

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
from typing import Callable, Optional, Sequence

from repro.apps.hpcg import run_hpcg
from repro.apps.miniamr import run_miniamr
from repro.apps.osu import relative_throughput
from repro.bench.executor import run_sweep
from repro.bench.report import format_size, format_table, format_us
from repro.bench.spec import (
    SweepSpec,
    algorithm_sweep_spec,
    leader_sweep_spec,
    paper_scale,
    resolve_config,
)
from repro.core.model import CostModel
from repro.machine.clusters import cluster_a, cluster_b, cluster_c, cluster_d

__all__ = [
    "FigureResult",
    "paper_scale",
    "fig1_throughput",
    "fig4_to_7_leaders",
    "fig8_sharp",
    "fig9_libraries",
    "fig10_scale",
    "families_comparison",
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


# ------------------------------------------------------- Figures 4-7


_LEADER_TITLES = {
    "fig4": "Figure 4 (Cluster A)",
    "fig5": "Figure 5 (Cluster B)",
    "fig6": "Figure 6 (Cluster C)",
    "fig7": "Figure 7 (Cluster D)",
}


def fig4_to_7_leaders(
    which: str = "fig5",
    iterations: int = 2,
    sizes: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Figs. 4-7: DPML latency vs leader count per message size."""
    spec = leader_sweep_spec(which, sizes=sizes, iterations=iterations)
    result = run_sweep(spec)
    data = result.by_size_leaders()
    leader_counts = list(spec.effective_leader_counts)
    rows = [
        {
            "size": format_size(s),
            **{f"l={l}": format_us(data[s][l]) for l in leader_counts},
            "best": min(data[s], key=data[s].get),
        }
        for s in spec.sizes
    ]
    return FigureResult(
        name=f"{_LEADER_TITLES[which]}: DPML allreduce latency (us) vs leaders",
        rows=rows,
        columns=["size"] + [f"l={l}" for l in leader_counts] + ["best"],
        meta={**_scale_meta(spec.nodes, spec.ppn), "data": data,
              "spec_hash": spec.spec_hash()},
    )


# ------------------------------------------------------------- Figure 8


def fig8_sharp(
    ppn: int = 28, iterations: int = 2, sizes: Optional[Sequence[int]] = None
) -> FigureResult:
    """Fig. 8: host-based vs SHArP node-/socket-leader (Cluster A, 16 nodes)."""
    spec = algorithm_sweep_spec(
        "fig8", sizes=sizes, iterations=iterations
    ).with_overrides(ppn=ppn)
    result = run_sweep(spec)
    data = result.by_size_algorithm()
    rows = []
    for s in spec.sizes:
        host = data[s]["mvapich2"]
        rows.append(
            {
                "size": format_size(s),
                "host": format_us(host),
                "node-leader": format_us(data[s]["sharp_node_leader"]),
                "socket-leader": format_us(data[s]["sharp_socket_leader"]),
                "nl-speedup": f"{host / data[s]['sharp_node_leader']:.2f}x",
                "sl-speedup": f"{host / data[s]['sharp_socket_leader']:.2f}x",
            }
        )
    return FigureResult(
        name=f"Figure 8: SHArP designs vs host-based, {ppn} ppn (us)",
        rows=rows,
        columns=["size", "host", "node-leader", "socket-leader",
                 "nl-speedup", "sl-speedup"],
        meta={**_scale_meta(spec.nodes, spec.ppn), "data": data,
              "spec_hash": spec.spec_hash()},
    )


# ------------------------------------------------------------- Figure 9


_LIBRARY_TITLES = {
    "a": "Figure 9(a) Cluster A",
    "b": "Figure 9(b) Cluster B",
    "c": "Figure 9(c) Cluster C",
    "d": "Figure 9(d) Cluster D",
}


def fig9_libraries(
    variant: str = "b",
    iterations: int = 2,
    sizes: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Fig. 9: proposed DPML-tuned vs MVAPICH2 (and Intel MPI on C/D)."""
    variant = variant.lower()
    title = _LIBRARY_TITLES[variant]
    spec = algorithm_sweep_spec(f"fig9{variant}", sizes=sizes, iterations=iterations)
    result = run_sweep(spec)
    data = result.by_size_algorithm()
    algorithms = list(spec.algorithms)
    with_intel = "intel_mpi" in algorithms
    rows = []
    for s in spec.sizes:
        row = {"size": format_size(s)}
        for alg in algorithms:
            row[alg] = format_us(data[s][alg])
        row["vs-mvapich2"] = f"{data[s]['mvapich2'] / data[s]['dpml_tuned']:.2f}x"
        if with_intel:
            row["vs-intel"] = f"{data[s]['intel_mpi'] / data[s]['dpml_tuned']:.2f}x"
        rows.append(row)
    columns = ["size"] + algorithms + ["vs-mvapich2"] + (
        ["vs-intel"] if with_intel else []
    )
    return FigureResult(
        name=f"{title}: MPI_Allreduce latency (us)",
        rows=rows,
        columns=columns,
        meta={**_scale_meta(spec.nodes, spec.ppn), "data": data,
              "spec_hash": spec.spec_hash()},
    )


# ------------------------------------------------------------ Figure 10


def fig10_scale(
    iterations: int = 1, sizes: Optional[Sequence[int]] = None
) -> FigureResult:
    """Fig. 10: large-scale comparison on Cluster D.

    Paper scale: 160 nodes x 64 ppn = 10,240 ranks.  Reduced: 64 x 32.
    """
    spec = algorithm_sweep_spec("fig10", sizes=sizes, iterations=iterations)
    result = run_sweep(spec)
    data = result.by_size_algorithm()
    algorithms = list(spec.algorithms)
    rows = []
    for s in spec.sizes:
        rows.append(
            {
                "size": format_size(s),
                **{alg: format_us(data[s][alg]) for alg in algorithms},
                "vs-mvapich2": f"{data[s]['mvapich2'] / data[s]['dpml_tuned']:.2f}x",
                "vs-intel": f"{data[s]['intel_mpi'] / data[s]['dpml_tuned']:.2f}x",
            }
        )
    return FigureResult(
        name="Figure 10: MPI_Allreduce latency at scale, Cluster D (us)",
        rows=rows,
        columns=["size"] + algorithms + ["vs-mvapich2", "vs-intel"],
        meta={**_scale_meta(spec.nodes, spec.ppn), "data": data,
              "spec_hash": spec.spec_hash()},
    )


# --------------------------------------------- literature family comparison


def families_comparison(
    iterations: int = 2, sizes: Optional[Sequence[int]] = None
) -> FigureResult:
    """DPML vs the competing literature allreduce families (Cluster B).

    Not a paper figure: runs the ``families`` named sweep — the Figure
    9(b) layout with Träff's doubly-pipelined dual-root tree, the
    optimal non-pipelined reduce-scatter/allgather construction, and
    Kolmakov & Zhang's generalized allreduce next to MVAPICH2 and the
    tuned DPML — so EXPERIMENTS.md records how the paper's design
    fares against the designs it competes with in the literature.
    """
    spec = algorithm_sweep_spec("families", sizes=sizes, iterations=iterations)
    result = run_sweep(spec)
    data = result.by_size_algorithm()
    algorithms = list(spec.algorithms)
    rows = []
    for s in spec.sizes:
        best = min(data[s], key=data[s].get)
        rows.append(
            {
                "size": format_size(s),
                **{alg: format_us(data[s][alg]) for alg in algorithms},
                "best": best,
                "vs-dpml": f"{data[s]['dpml_tuned'] / data[s][best]:.2f}x",
            }
        )
    return FigureResult(
        name="Literature families vs DPML, Cluster B (us)",
        rows=rows,
        columns=["size"] + algorithms + ["best", "vs-dpml"],
        meta={**_scale_meta(spec.nodes, spec.ppn), "data": data,
              "spec_hash": spec.spec_hash()},
    )


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


#: CLI registry: name -> callable (every argument has a default;
#: ``fig8`` takes ``ppn``).
FIGURES: dict[str, Callable[[], FigureResult]] = {
    "fig1a": lambda: fig1_throughput("a"),
    "fig1b": lambda: fig1_throughput("b"),
    "fig1c": lambda: fig1_throughput("c"),
    "fig1d": lambda: fig1_throughput("d"),
    "fig4": lambda: fig4_to_7_leaders("fig4"),
    "fig5": lambda: fig4_to_7_leaders("fig5"),
    "fig6": lambda: fig4_to_7_leaders("fig6"),
    "fig7": lambda: fig4_to_7_leaders("fig7"),
    "fig8": fig8_sharp,
    "fig9a": lambda: fig9_libraries("a"),
    "fig9b": lambda: fig9_libraries("b"),
    "fig9c": lambda: fig9_libraries("c"),
    "fig9d": lambda: fig9_libraries("d"),
    "fig10": fig10_scale,
    "families": families_comparison,
    "fig11a": fig11a_hpcg,
    "fig11bc": fig11bc_miniamr,
    "model": model_validation,
    "ablation": ablation_pipeline,
    "traffic": traffic_tenancy,
}
