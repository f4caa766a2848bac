"""The command line: ``python -m repro <group> <command> [flags]``.

``bench``
    ``list``; one figure (``fig1a`` .. ``fig11bc``, ``model``,
    ``ablation``, ...) or ``all`` of them; ``run <sweep>`` through the
    sweep engine and the result store; ``cache stats|verify|gc``;
    ``autotune``; ``experiments``; ``validate``.
``check``
    The sanitized validation matrix and the differential oracle (numpy
    results and the Section 5 cost model) over every allreduce.
``faults``
    Fault plans: ``example``, ``validate``, ``describe`` and ``sample``
    (realise a plan for one layout and print what each rank sees).
``resilience``
    Recovery policies (``example``, ``validate``, ``describe``) and
    ``soak``, the seeded chaos harness.
``traffic``
    Traffic traces (``example``, ``describe``) and ``run``, which drives
    a trace onto one shared fabric.

Each flag is declared on the command that reads it.  A usage error or
any :class:`~repro.errors.ReproError` prints one ``error: ...`` line and
exits 2; exit 1 means a check, soak or sweep ran and failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.bench.figures import FIGURES
from repro.errors import ConfigError, ReproError
from repro.faults.plan import FaultPlan
from repro.resilience.policy import RecoveryPolicy
from repro.traffic.placement import PLACEMENT_POLICIES
from repro.traffic.runner import DEFAULT_INTERVAL
from repro.traffic.workload import TrafficTrace

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are typed: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants comma-separated integers, got {text!r}"
        ) from None


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants 'low,high' (e.g. '0.2,15'), got {text!r}"
        ) from None
    if not 0 < lo < hi:
        raise argparse.ArgumentTypeError(f"needs 0 < low < high, got {text!r}")
    return lo, hi


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# -- bench -------------------------------------------------------------------


def _figures(args) -> int:
    for name in args.names:
        t0 = time.time()
        result = FIGURES[name]()
        print(result.table)
        if args.plot:
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


def _list(args) -> int:
    from repro.bench.spec import SWEEPS

    print("available figures:")
    for name in FIGURES:
        print(f"  {name}")
    print("named sweeps (for 'run'):")
    for name in sorted(SWEEPS):
        print(f"  {name}")
    return 0


def _run_sweep(args) -> int:
    """``bench run``: named sweep -> executor -> table/JSON."""
    from repro.bench.executor import get_executor
    from repro.bench.spec import named_sweep
    from repro.bench.store import resolve_store

    spec = named_sweep(
        args.sweep,
        sizes=args.sizes,
        repeats=args.repeats,
        sigma=args.sigma,
        base_seed=args.seed,
        faults=FaultPlan.load(args.faults) if args.faults else None,
        fidelity=args.fidelity,
    )
    executor = get_executor(args.jobs)
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
        _write(args.output, result.to_json(include_meta=not args.canonical) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0 if result.ok else 1


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _duration(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"2h"``/``"7d"`` -> seconds."""
    raw = text.strip().lower()
    unit = 1.0
    if raw and raw[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * unit
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants a duration like 90s/15m/2h/7d, got {text!r}"
        ) from None
    if seconds < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return seconds


def _cache(args) -> int:
    """``bench cache``: stats / verify / gc over a result store."""
    from repro import canonical
    from repro.bench.store import resolve_store

    store = resolve_store(args.store, args.no_store)
    if store is None:
        raise ConfigError(
            "cache needs a store: pass --store DIR or set REPRO_RESULT_STORE"
        )
    if args.action == "stats":
        report = store.stats()
    elif args.action == "verify":
        report = store.verify()
    else:
        report = store.gc(
            older_than=args.older_than,
            max_bytes=args.max_bytes,
            dry_run=args.dry_run,
        )
    print(canonical.dumps(report))
    return 1 if args.action == "verify" and report["corrupt"] else 0


def _experiments(args) -> int:
    from repro.bench.experiments import generate_experiments_report

    report, bad = generate_experiments_report(out=args.output)
    if args.output:
        print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    else:
        print(report)
    for line in bad:
        print(f"claim {line}", file=sys.stderr)
    return 1 if bad else 0


def _autotune(args) -> int:
    from repro.core.autotune import autotune_cluster
    from repro.machine.clusters import get_cluster

    config = get_cluster(args.cluster, args.nodes)
    table = autotune_cluster(config, ppn=args.ppn, verbose=True)
    print("\ntuning table:")
    for rule in table:
        bound = "inf" if rule.max_bytes == float("inf") else f"{rule.max_bytes}B"
        print(f"  <= {bound:>9}: {rule.label}")
    return 0


def _validate(args) -> int:
    from repro.mpi.validate import validate_all

    report = validate_all(verbose=True)
    print(report.summary())
    return 0 if report.ok else 1


def _add_bench(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="regenerate the paper's figures; sweeps and the result store",
        description="Regenerate the SC'17 DPML paper's evaluation figures "
        "on the simulated cluster substrate.",
    ).add_subparsers(dest="command", required=True, metavar="command")
    sanitize = _Parser(add_help=False)
    sanitize.add_argument(
        "--sanitize", action="store_true", dest="sanitize_env",
        help="run every simulation under the invariant sanitizer "
        "(sets REPRO_SANITIZE=1, inherited by parallel sweep workers)",
    )
    store = _Parser(add_help=False)
    store.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed result store directory (default: the "
        "REPRO_RESULT_STORE environment variable; cached points are "
        "answered without simulating)",
    )
    store.add_argument(
        "--no-store", action="store_true",
        help="ignore --store and REPRO_RESULT_STORE; simulate every point",
    )

    bench.add_parser("list", help="show figures and named sweeps").set_defaults(
        func=_list
    )
    for name, names in [("all", list(FIGURES))] + [(n, [n]) for n in FIGURES]:
        p = bench.add_parser(
            name, parents=[sanitize],
            help="run every figure (slow)" if name == "all" else "one figure",
        )
        p.add_argument(
            "--plot", action="store_true",
            help="also render figures as ASCII log-log charts",
        )
        p.set_defaults(func=_figures, names=names)

    p = bench.add_parser(
        "run", parents=[sanitize, store],
        help="run a named sweep through the sweep engine",
    )
    p.add_argument("sweep", help="sweep name (e.g. fig5; see 'list')")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process serial)",
    )
    p.add_argument(
        "--sizes", type=_ints, default=None,
        help="comma-separated message sizes (bytes)",
    )
    p.add_argument("--repeats", type=int, default=1, help="noisy repeats per point")
    p.add_argument(
        "--sigma", type=float, default=0.0, help="noise level for repeats"
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed (noise streams and fault realisation)",
    )
    p.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="fault plan JSON (see 'python -m repro faults'); the plan is "
        "serialised into the sweep's spec hash",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="print per-point progress (stderr)",
    )
    p.add_argument(
        "--canonical", action="store_true",
        help="write JSON without volatile metadata (diff-friendly)",
    )
    p.add_argument(
        "--fidelity", default="exact", choices=("exact", "hybrid"),
        help="collective execution fidelity (hybrid macro-charges "
        "validated collectives through the cost model)",
    )
    p.add_argument("--output", default=None, help="write the sweep's JSON here")
    p.set_defaults(func=_run_sweep)

    p = bench.add_parser(
        "cache", parents=[store],
        help="inspect or maintain a result store (canonical JSON)",
    )
    p.add_argument(
        "action", nargs="?", default="stats", choices=("stats", "verify", "gc")
    )
    p.add_argument(
        "--older-than", type=_duration, default=None, metavar="AGE",
        help="for 'gc': evict blobs older than AGE (90s/15m/2h/7d)",
    )
    p.add_argument(
        "--max-bytes", type=int, default=None,
        help="for 'gc': evict oldest-first until the store fits",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="for 'gc': report what would be evicted, unlink nothing",
    )
    p.set_defaults(func=_cache)

    p = bench.add_parser(
        "autotune", parents=[sanitize],
        help="regenerate the DPML tuning table for one cluster preset",
    )
    p.add_argument("--cluster", default="b", help="cluster preset")
    p.add_argument("--ppn", type=int, default=28, help="processes per node")
    p.add_argument("--nodes", type=int, default=16, help="node count")
    p.set_defaults(func=_autotune)

    p = bench.add_parser(
        "experiments", parents=[sanitize],
        help="regenerate the experiments report and check the paper's "
        "claims; exits 1 if a claim fails (slow)",
    )
    p.add_argument("--output", default=None, help="write the report here")
    p.set_defaults(func=_experiments)

    bench.add_parser(
        "validate", parents=[sanitize],
        help="run the collective validation matrix; exits 1 on any failure",
    ).set_defaults(func=_validate)


# -- check -------------------------------------------------------------------


def _check(args) -> int:
    from repro.check.oracle import DEFAULT_BAND, check_allreduce
    from repro.check.sanitizer import Sanitizer
    from repro.mpi.collectives.registry import available_algorithms
    from repro.mpi.validate import DEFAULT_LAYOUTS, _config_for, validate_all

    if min(args.counts) < 0:
        raise ConfigError(f"--counts must be non-negative, got {min(args.counts)}")
    band = args.band or DEFAULT_BAND
    failures = 0
    findings: dict = {"validate": None, "oracle": []}
    t0 = time.time()

    if not args.skip_validate:
        print("== sanitized validation matrix ==", file=sys.stderr)
        report = validate_all(sanitize=True, verbose=args.verbose)
        print(f"validate: {report.summary()}")
        findings["validate"] = {
            "passed": report.passed,
            "failed": report.failed,
            "skipped": report.skipped,
        }
        failures += len(report.failed)

    if not args.skip_oracle:
        print("== differential oracle ==", file=sys.stderr)
        sanitizer = Sanitizer(strict=False)
        checked = divergent = 0
        for algorithm in available_algorithms():
            for nranks, ppn, nodes in DEFAULT_LAYOUTS:
                for count in args.counts:
                    outcome = check_allreduce(
                        _config_for("allreduce", algorithm),
                        algorithm,
                        nranks=nranks,
                        ppn=ppn,
                        count=count,
                        seed=args.seed,
                        band=band,
                        sanitizer=sanitizer,
                    )
                    checked += 1
                    if not outcome.ok:
                        divergent += 1
                    if args.verbose or not outcome.ok:
                        status = "ok" if outcome.ok else "FAIL"
                        ratio = (
                            f" ratio={outcome.ratio:.3g}"
                            if outcome.ratio is not None
                            else ""
                        )
                        print(
                            f"  {status} {algorithm} p={nranks} ppn={ppn} "
                            f"n={count}{ratio}",
                            file=sys.stderr,
                        )
                    findings["oracle"].append(outcome.to_dict())
        print(
            f"oracle: {checked} runs, {divergent} divergent, "
            f"{len(sanitizer.reports)} sanitizer report(s)"
        )
        for report_ in sanitizer.reports:
            print(f"  {report_}", file=sys.stderr)
        failures += len(sanitizer.reports)

    print(f"[repro check finished in {time.time() - t0:.1f}s wall]")
    if args.json:
        _write(args.json, json.dumps(findings, indent=2, default=str) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 1 if failures else 0


def _add_check(sub) -> None:
    p = sub.add_parser(
        "check",
        help="sanitized validation matrix and differential oracle",
        description="Run the sanitized validation matrix and the "
        "differential oracle (numpy + cost model).  Exits 0 only when "
        "every case passes and no sanitizer report was produced.",
    )
    p.add_argument(
        "--skip-validate", action="store_true",
        help="skip the sanitized correctness validation matrix",
    )
    p.add_argument(
        "--skip-oracle", action="store_true",
        help="skip the differential-oracle allreduce grid",
    )
    p.add_argument(
        "--counts", type=_ints, default=(1, 13, 64, 4096),
        help="comma-separated element counts for the oracle grid",
    )
    p.add_argument(
        "--band", type=_band, default=None, metavar="LOW,HIGH",
        help="acceptance band on simulated/predicted time "
        "(default: oracle DEFAULT_BAND)",
    )
    p.add_argument("--seed", type=int, default=0, help="input data seed")
    p.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the structured findings to PATH",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print every case, not a summary"
    )
    p.set_defaults(func=_check)


# -- typed JSON records: faults, resilience, traffic ---------------------------


def _add_path(p) -> None:
    p.add_argument("path", help="the record's JSON file")


def _add_records(sub, record, example, hash_of=None, source=None):
    """``example``, ``describe`` and, given ``hash_of``, ``validate PATH``
    for one :class:`~repro.canonical.JsonRecord` type.

    ``example(args)`` builds the record ``example`` prints.  ``describe``
    reads a PATH unless ``source`` is ``(add_flags, load)``.  Returns the
    ``example`` parser, for its own flags.
    """
    add_flags, load = source or (_add_path, lambda args: record.load(args.path))
    p = sub.add_parser("describe", help=f"summarise a {record.noun}")
    add_flags(p)
    p.set_defaults(func=lambda args: print(load(args).describe()))
    if hash_of is not None:
        p = sub.add_parser("validate", help=f"schema-check a {record.noun} file")
        _add_path(p)
        p.set_defaults(
            func=lambda args: print(
                f"ok: {args.path} is a valid {record.noun} "
                f"(hash {hash_of(record.load(args.path))})"
            )
        )
    p = sub.add_parser("example", help=f"print an example {record.noun} JSON")
    p.set_defaults(func=lambda args: print(example(args).to_json()))
    return p


_FAULT_EXAMPLES = {
    "straggler": {"kind": "straggler", "rank": 3, "factor": 4.0,
                  "start": 0.0, "duration": 0.002},
    "arrival-skew": {"kind": "arrival-skew", "magnitude": 2e-4,
                     "pattern": "exponential"},
    "link-degrade": {"kind": "link-degrade", "src": 0, "dst": 1,
                     "latency_factor": 3.0, "bandwidth_factor": 0.5,
                     "start": 0.0, "duration": 0.01},
    "link-outage": {"kind": "link-outage", "src": 0, "dst": 1,
                    "start": 0.0, "duration": 5e-5},
    "node-slowdown": {"kind": "node-slowdown", "node": 1, "factor": 2.0,
                      "start": 0.0, "duration": 0.005},
}


def _fault_example(args) -> FaultPlan:
    kinds = [args.kind] if args.kind else sorted(_FAULT_EXAMPLES)
    return FaultPlan.from_dict({"faults": [_FAULT_EXAMPLES[k] for k in kinds]})


def _sample(args) -> int:
    """``faults sample``: realise a plan for a block layout (rank ``r``
    on node ``r // ppn``, as :class:`~repro.machine.topology.Placement`)."""
    from repro.faults.inject import FaultInjector

    if args.nranks <= 0:
        raise ConfigError(f"--nranks must be positive, got {args.nranks}")
    if args.ppn is not None and args.ppn < 1:
        raise ConfigError(f"--ppn must be at least 1, got {args.ppn}")
    plan = FaultPlan.load(args.plan)
    ppn = args.ppn or args.nranks
    injector = FaultInjector(plan, args.nranks, lambda r: r // ppn, seed=args.seed)
    print(plan.describe())
    print(f"realised for nranks={args.nranks} ppn={ppn} seed={args.seed}:")
    at = args.at
    for rank in range(args.nranks):
        parts = [f"arrival +{injector.arrival_delay(rank):.3e}s"]
        cf = injector.compute_factor(rank, at)
        if cf != 1.0:
            parts.append(f"compute x{cf:g} at t={at:g}")
        print(f"  rank {rank:3d} (node {rank // ppn}): " + ", ".join(parts))
    if injector.has_link_faults:
        nodes = args.nranks // ppn + (1 if args.nranks % ppn else 0)
        for src in range(nodes):
            for dst in range(nodes):
                if src == dst:
                    continue
                lat, svc = injector.link_factors(src, dst, at)
                blocked = injector.link_blocked_until(src, dst, at)
                if lat != 1.0 or svc != 1.0 or blocked is not None:
                    state = (
                        f"DOWN until t={blocked:g}" if blocked is not None
                        else f"latency x{lat:g}, service x{svc:g}"
                    )
                    print(f"  edge {src}->{dst} at t={at:g}: {state}")
    return 0


def _add_faults(sub) -> None:
    faults = sub.add_parser(
        "faults", help="validate, describe and sample fault-injection plans"
    ).add_subparsers(dest="command", required=True, metavar="command")
    p = _add_records(faults, FaultPlan, _fault_example, FaultPlan.plan_hash)
    p.add_argument(
        "kind", nargs="?", default=None, choices=sorted(_FAULT_EXAMPLES),
        help="one fault kind (default: one of each)",
    )
    p = faults.add_parser(
        "sample", help="realise a plan for a layout and print the schedule"
    )
    p.add_argument("plan", help="fault plan JSON file")
    p.add_argument("--nranks", type=int, required=True, help="job size")
    p.add_argument(
        "--ppn", type=int, default=None,
        help="processes per node (default: all on one node)",
    )
    p.add_argument("--seed", type=int, default=0, help="realisation seed")
    p.add_argument(
        "--at", type=float, default=0.0,
        help="simulated time at which to report active windows",
    )
    p.set_defaults(func=_sample)


def _soak(args) -> int:
    from repro.resilience.soak import canonical_json, soak

    record = soak(
        seed=args.seed,
        scenarios=args.scenarios,
        nodes=args.nodes,
        ppn=args.ppn,
        nbytes=args.nbytes,
        sanitize=args.sanitize,
    )
    text = canonical_json(record)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    summary = record["summary"]
    print(
        f"soak: {summary['ok']}/{summary['total']} scenarios ok "
        f"({', '.join(f'{k}={v}' for k, v in summary['outcomes'].items())})",
        file=sys.stderr,
    )
    return 0 if summary["failures"] == 0 else 1


def _add_resilience(sub) -> None:
    resilience = sub.add_parser(
        "resilience", help="recovery policies and the seeded chaos harness"
    ).add_subparsers(dest="command", required=True, metavar="command")
    _add_records(
        resilience, RecoveryPolicy, lambda args: RecoveryPolicy(),
        RecoveryPolicy.policy_hash,
    )
    p = resilience.add_parser(
        "soak",
        help="run the seeded chaos harness; exits 1 if any scenario "
        "breaks the recover-or-abort contract",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenarios", type=int, default=6)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--ppn", type=int, default=2)
    p.add_argument("--nbytes", type=int, default=1024)
    p.add_argument(
        "--sanitize", action="store_true",
        help="run every job under the strict sanitizer",
    )
    p.add_argument(
        "--output", default=None,
        help="write the canonical JSON record here instead of stdout",
    )
    p.set_defaults(func=_soak)


def _add_trace_flags(p) -> None:
    p.add_argument(
        "--trace", default=None, help="path to a traffic trace JSON file"
    )
    p.add_argument(
        "--poisson", type=int, default=8, metavar="JOBS",
        help="generate a Poisson stream of this many jobs instead "
        "(ignored when --trace is given; default 8)",
    )
    p.add_argument(
        "--rate", type=float, default=20000.0,
        help="Poisson arrival rate, jobs per simulated second",
    )
    p.add_argument(
        "--trace-seed", type=int, default=0,
        help="seed for the generated Poisson stream",
    )


def _load_trace(args) -> TrafficTrace:
    from repro.traffic.workload import poisson_trace

    if args.trace is not None:
        return TrafficTrace.load(args.trace)
    return poisson_trace(jobs=args.poisson, rate=args.rate, seed=args.trace_seed)


def _traffic_example(args) -> TrafficTrace:
    from repro.traffic.workload import default_mix

    jobs = []
    arrival = 0.0
    for template in default_mix():
        jobs.append({"arrival": round(arrival, 9), **template})
        arrival += args.gap
    return TrafficTrace.from_dict({"jobs": jobs})


def _traffic_run(args) -> int:
    from repro.machine.clusters import get_cluster
    from repro.machine.fattree import FatTreeConfig
    from repro.traffic.runner import run_traffic

    trace = _load_trace(args)
    nodes = args.nodes if args.nodes is not None else max(1, 2 * trace.max_nodes())
    config = get_cluster(args.cluster, nodes=nodes)
    if args.leaf_nodes is not None:
        config = dataclasses.replace(
            config,
            topology=FatTreeConfig(
                nodes_per_leaf=args.leaf_nodes, spines=args.spines
            ),
        )
    result = run_traffic(
        trace,
        config=config,
        placement=args.placement,
        seed=args.seed,
        interval=args.interval,
        sanitize=True if args.sanitize else None,
        faults=FaultPlan.load(args.faults) if args.faults is not None else None,
        fault_seed=args.fault_seed,
    )
    if args.output is not None:
        _write(args.output, result.to_canonical_json())
        print(f"wrote canonical result to {args.output}")
    print(result.describe())
    return 0


def _add_traffic(sub) -> None:
    traffic = sub.add_parser(
        "traffic", help="run multi-tenant traffic traces on one shared fabric"
    ).add_subparsers(dest="command", required=True, metavar="command")
    p = _add_records(
        traffic, TrafficTrace, _traffic_example,
        source=(_add_trace_flags, _load_trace),
    )
    p.add_argument(
        "--gap", type=float, default=5e-5,
        help="arrival gap between the example jobs (simulated seconds)",
    )
    p = traffic.add_parser(
        "run",
        help="run a trace on a shared fabric (default: the --cluster "
        "preset sized to twice the trace's widest job)",
    )
    _add_trace_flags(p)
    p.add_argument(
        "--cluster", default="b", help="cluster preset (a..d; default b)"
    )
    p.add_argument(
        "--nodes", type=int, default=None,
        help="fabric width (default: twice the trace's widest job)",
    )
    p.add_argument(
        "--leaf-nodes", type=int, default=None, metavar="N",
        help="attach a fat tree with N nodes per leaf switch",
    )
    p.add_argument(
        "--spines", type=int, default=2,
        help="spine switches for --leaf-nodes (default 2)",
    )
    p.add_argument(
        "--placement", default="packed", choices=PLACEMENT_POLICIES,
        help="node placement policy",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="scheduler seed (random placement draws)",
    )
    p.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL,
        help="scraper sampling cadence in simulated seconds",
    )
    p.add_argument(
        "--sanitize", action="store_true",
        help="run under the strict invariant sanitizer",
    )
    p.add_argument(
        "--faults", default=None,
        help="fault plan JSON applied fabric-wide during the run",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="base realisation seed for --faults (job i uses seed+i)",
    )
    p.add_argument(
        "--output", default=None,
        help="write the canonical TrafficResult JSON here (byte-stable)",
    )
    p.set_defaults(func=_traffic_run)


def main(argv: "list[str] | None" = None) -> int:
    parser = _Parser(
        prog="python -m repro",
        description="Reproduce the SC'17 DPML paper on a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    for add in (_add_bench, _add_check, _add_faults, _add_resilience, _add_traffic):
        add(sub)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "sanitize_env", False):
            os.environ["REPRO_SANITIZE"] = "1"
        return args.func(args) or 0
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
