"""Command-line interface: ``python -m repro.bench <command>``.

Commands
--------
``list``
    Show available figure regenerators and named sweeps.
``fig1a`` .. ``fig11bc``, ``model``, ``ablation``
    Run one figure and print its table.
``all``
    Run every figure (slow; respects ``REPRO_PAPER_SCALE``).
``run <sweep> [--jobs N] [--output out.json]``
    Run a named sweep (``fig4`` .. ``fig10``) through the sweep engine —
    serial with ``--jobs 1`` (default), process-parallel otherwise —
    and print its table / write its JSON record.  ``--canonical``
    strips the volatile metadata (executor, wall time) so two runs of
    the same spec diff clean.  ``--store DIR`` (or the
    ``REPRO_RESULT_STORE`` environment variable) reads the sweep through
    the content-addressed result store so only missing points simulate;
    ``--no-store`` disables it.
``cache <stats|verify|gc> [--store DIR]``
    Inspect or maintain a result store: entry/byte totals and hit
    counters, full integrity re-hash, or eviction by ``--older-than``
    age and/or ``--max-bytes`` budget.  Output is canonical JSON.
``autotune --cluster c [--ppn 28]``
    Regenerate the DPML tuning table for one cluster preset.
``experiments [--output EXPERIMENTS.md]``
    Regenerate the experiments report (every figure and ablation; slow).
``validate``
    Run the collective validation matrix; exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.figures import FIGURES
from repro.core.autotune import autotune_cluster
from repro.errors import ReproError
from repro.machine.clusters import get_cluster

__all__ = ["main"]


def _run_figures(names: list[str], plot: bool = False) -> int:
    for name in names:
        fn = FIGURES[name]
        t0 = time.time()
        result = fn()
        print(result.table)
        if plot:
            chart = _chart_for(result)
            if chart:
                print()
                print(chart)
        print(f"[{name} completed in {time.time() - t0:.1f}s wall]\n")
    return 0


def _chart_for(result):
    """ASCII chart when the figure's data is {size: {series: latency}}."""
    from repro.bench.plotting import ascii_chart

    data = result.meta.get("data")
    if not isinstance(data, dict) or not data:
        return None
    first = next(iter(data.values()))
    if not isinstance(first, dict):
        return None
    try:
        series = {}
        for size, by_series in data.items():
            for label, value in by_series.items():
                series.setdefault(str(label), {})[size] = value
        return ascii_chart(
            series,
            title=result.name,
            ylabel=result.meta.get("ylabel", "latency (us)"),
            yscale=result.meta.get("yscale", 1e6),
        )
    except (TypeError, ValueError):
        return None


def _run_sweep(args) -> int:
    """The ``run`` command: named sweep -> executor -> table/JSON."""
    from repro.bench.executor import get_executor
    from repro.bench.spec import SWEEPS, named_sweep
    from repro.bench.store import resolve_store

    if not args.target:
        print("run needs a sweep name; available sweeps:", file=sys.stderr)
        for name in sorted(SWEEPS):
            print(f"  {name}", file=sys.stderr)
        return 2
    try:
        sizes = (
            tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None
        )
    except ValueError:
        print(
            f"--sizes wants a comma-separated list of byte counts, "
            f"got {args.sizes!r}",
            file=sys.stderr,
        )
        return 2
    faults = None
    if args.faults:
        from repro.errors import FaultError
        from repro.faults.plan import FaultPlan

        try:
            faults = FaultPlan.load(args.faults)
        except FileNotFoundError:
            print(f"no such fault plan: {args.faults}", file=sys.stderr)
            return 2
        except FaultError as e:
            print(f"invalid fault plan {args.faults}: {e}", file=sys.stderr)
            return 2
    try:
        spec = named_sweep(
            args.target,
            sizes=sizes,
            repeats=args.repeats,
            sigma=args.sigma,
            base_seed=args.seed,
            faults=faults,
            fidelity=args.fidelity,
        )
        executor = get_executor(args.jobs)
    except ReproError as e:
        print(str(e), file=sys.stderr)
        return 2
    store = resolve_store(args.store, args.no_store)
    print(
        f"running sweep {spec.name!r} ({spec.n_points} points, "
        f"spec {spec.spec_hash()}) with {executor.kind} executor"
        + (f" x{executor.jobs}" if executor.kind == "parallel" else "")
        + (f", store {store.root}" if store is not None else ""),
        file=sys.stderr,
    )

    def progress(done, total, result):
        status = "ok" if result.ok else "ERROR"
        print(
            f"  [{done}/{total}] {result.point.label()}: {status}",
            file=sys.stderr,
        )

    result = executor.run(
        spec, progress=progress if args.progress else None, store=store
    )
    print(result.table())
    wall = result.meta["wall_seconds"]
    errors = result.meta["n_errors"]
    store_meta = result.meta.get("store")
    print(
        f"[{spec.name}: {result.meta['n_points']} points in {wall:.1f}s wall"
        + (f", {errors} errors" if errors else "")
        + (
            f", store hits {store_meta['hits']}/"
            f"{result.meta['n_points']} stored {store_meta['stored']}"
            if store_meta is not None
            else ""
        )
        + "]",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(result.to_json(include_meta=not args.canonical))
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0 if result.ok else 1


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"2h"``/``"7d"`` -> seconds."""
    raw = text.strip().lower()
    unit = 1.0
    if raw and raw[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * unit
    except ValueError:
        raise ReproError(
            f"--older-than wants a duration like 90s/15m/2h/7d, got {text!r}"
        ) from None
    if seconds < 0:
        raise ReproError(f"--older-than must be non-negative, got {text!r}")
    return seconds


def _cache(args) -> int:
    """The ``cache`` command: stats / verify / gc over a result store."""
    from repro import canonical
    from repro.bench.store import resolve_store

    store = resolve_store(args.store, args.no_store)
    if store is None:
        print(
            "cache needs a store: pass --store DIR or set REPRO_RESULT_STORE",
            file=sys.stderr,
        )
        return 2
    action = (args.target or "stats").lower()
    if action == "stats":
        report = store.stats()
    elif action == "verify":
        report = store.verify()
    elif action == "gc":
        try:
            older_than = (
                parse_duration(args.older_than) if args.older_than else None
            )
            report = store.gc(
                older_than=older_than,
                max_bytes=args.max_bytes,
                dry_run=args.dry_run,
            )
        except ReproError as e:
            print(str(e), file=sys.stderr)
            return 2
    else:
        print(
            f"unknown cache action {args.target!r}; "
            "try 'stats', 'verify', or 'gc'",
            file=sys.stderr,
        )
        return 2
    print(canonical.dumps(report))
    if action == "verify" and report["corrupt"]:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the SC'17 DPML paper's evaluation figures "
        "on the simulated cluster substrate.",
    )
    parser.add_argument(
        "command",
        help="'list', 'all', 'run', 'cache', 'experiments', "
        "'autotune', 'validate', or a figure name (e.g. fig9b)",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="sweep name for 'run' (e.g. fig5) or experiment ids",
    )
    parser.add_argument("--cluster", default="b", help="cluster preset for autotune")
    parser.add_argument("--ppn", type=int, default=28, help="ppn for autotune")
    parser.add_argument(
        "--nodes", type=int, default=16, help="node count for autotune"
    )
    parser.add_argument(
        "--output", default=None, help="output path for 'experiments' / 'run'"
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="also render figures as ASCII log-log charts",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for 'run' (1 = in-process serial)",
    )
    parser.add_argument(
        "--sizes", default=None,
        help="comma-separated message sizes for 'run' (bytes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="noisy repeats per point for 'run'",
    )
    parser.add_argument(
        "--sigma", type=float, default=0.0,
        help="noise level for 'run' repeats",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for 'run' (noise streams and fault realisation)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="fault plan JSON for 'run' (see python -m repro.faults); "
        "the plan is serialised into the sweep's spec hash",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-point progress for 'run' (stderr)",
    )
    parser.add_argument(
        "--canonical", action="store_true",
        help="write 'run' JSON without volatile metadata (diff-friendly)",
    )
    parser.add_argument(
        "--fidelity", default="exact", choices=("exact", "hybrid"),
        help="collective execution fidelity for 'run' sweeps (hybrid "
        "macro-charges validated collectives through the cost model)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run every simulation under the invariant sanitizer "
        "(sets REPRO_SANITIZE=1, inherited by parallel sweep workers)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed result store directory for 'run' / "
        "'cache' (default: the REPRO_RESULT_STORE environment "
        "variable; cached points are answered without simulating)",
    )
    parser.add_argument(
        "--no-store", action="store_true", dest="no_store",
        help="ignore --store and REPRO_RESULT_STORE; simulate every point",
    )
    parser.add_argument(
        "--older-than", default=None, metavar="AGE", dest="older_than",
        help="for 'cache gc': evict blobs older than AGE (90s/15m/2h/7d)",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, dest="max_bytes",
        help="for 'cache gc': evict oldest-first until the store fits",
    )
    parser.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="for 'cache gc': report what would be evicted, unlink nothing",
    )
    args = parser.parse_args(argv)
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"

    command = args.command.lower()
    if command == "list":
        from repro.bench.spec import SWEEPS

        print("available figures:")
        for name in FIGURES:
            print(f"  {name}")
        print("named sweeps (for 'run'):")
        for name in sorted(SWEEPS):
            print(f"  {name}")
        return 0
    if command == "all":
        return _run_figures(list(FIGURES), plot=args.plot)
    if command == "run":
        return _run_sweep(args)
    if command == "cache":
        return _cache(args)
    if command == "experiments":
        from repro.bench.experiments import generate_experiments_report

        report = generate_experiments_report(out=args.output)
        if args.output:
            print(f"wrote {args.output} ({len(report.splitlines())} lines)")
        else:
            print(report)
        return 0
    if command == "autotune":
        config = get_cluster(args.cluster, args.nodes)
        ppn = min(args.ppn, config.node.cores)
        print(f"autotuning {config.name} at {args.nodes} nodes x {ppn} ppn ...")
        table = autotune_cluster(config, ppn=ppn, verbose=True)
        print("\ntuning table:")
        for max_bytes, spec in table:
            bound = "inf" if max_bytes == float("inf") else f"{int(max_bytes)}B"
            print(f"  <= {bound:>9}: {spec.algorithm} (leaders={spec.leaders})")
        return 0
    if command == "validate":
        from repro.mpi.validate import validate_all

        report = validate_all(verbose=True)
        print(report.summary())
        return 0 if report.ok else 1
    if command in FIGURES:
        return _run_figures([command], plot=args.plot)
    print(f"unknown command {args.command!r}; try 'list'", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
