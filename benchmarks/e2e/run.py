"""End-to-end benchmark of the simulator, in calibrated host time.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--quick] [--trace [0|1]] [--json OUT]

One run of one workload, in this one process and thread:

1. **set-up** -- ``setup_probe.py`` times ``import repro`` plus building
   the workload's sessions in several fresh interpreters (``setup_s``
   is their median);
2. **warm-up** -- one untimed pass fills caches and event pools and
   records each operation's reference output and the run's digest;
3. **measure** -- operations run back to back, round robin, for
   ``--seconds``; each is followed by a full ``gc.collect()`` charged to
   it, checked against its reference output, and converted to
   calibrated time by :mod:`calibrate`.

``ops_per_s`` is the operation types of one pass over the sum of their
median calibrated times, ``ranks_per_s`` the simulated ranks of one pass
over the same sum.  With ``--trace 1`` a quarter of the time runs
untraced and the rest under ``cProfile`` with the machine-layer tracers
on; the run prints the per-layer ledger instead of the end-to-end
metrics and writes its spans to ``benchmarks/e2e/out/`` as a Chrome
trace.  Without ``--workload`` every workload runs, each in a fresh
process.  The last line of output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The script replaces
itself with a copy running under ``PYTHONHASHSEED=0`` first, so every run
hashes strings, and lays out its dicts, the same way.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("figures", "scale", "tenants", "verified")

#: Fresh interpreters whose set-up is timed; ``setup_s`` is the median.
SETUP_PROBES = 5
#: Every operation type is timed at least this often in a run.
MIN_SAMPLES = 2
#: ``--quick`` divides the measuring time by this.
QUICK_DIVISOR = 10
#: Share of a traced run's time that runs untraced (the overhead base).
UNTRACED_SHARE = 0.25
#: Failure messages kept in the JSON record.
MAX_FAILURES = 20
#: ``PYTHONHASHSEED`` of every run and set-up probe.
HASH_SEED = "0"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark in calibrated host time."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    # Part of the BENCHMARK.json invocation contract: a harness passes
    # ``--seconds <run_seconds>`` on every run.
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measuring time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke mode: 1/{QUICK_DIVISOR} of the time, one set-up probe",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: print the per-layer ledger from a profiled run",
    )
    parser.add_argument("--json", metavar="OUT", help="write the full record")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def median_sum(records, field: str) -> float:
    """Sum over operation types of the median of ``field``."""
    by_key: dict[str, list] = {}
    for rec in records:
        by_key.setdefault(rec["key"], []).append(rec[field])
    return sum(statistics.median(v) for v in by_key.values())


def probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Time set-up in ``count`` fresh interpreters, one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Times operations of one workload and keeps every record."""

    def __init__(self, workload, spans: ledger.Spans):
        self.workload = workload
        self.ops = workload.ops()
        self.spans = spans
        self.reference: dict = {}
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.sampler = calibrate.Sampler()

    def _call(self, op, profiler=None):
        """Run one operation; returns (outcome, error)."""
        self.attempted += 1
        if profiler is not None:
            self.sampler.profiler = profiler
            profiler.enable()
        try:
            outcome = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = outcome.error
        finally:
            if profiler is not None:
                # Detach first: a sample between these two lines must
                # not switch the profiler back on.
                self.sampler.profiler = None
                profiler.disable()
        if error is None and op.key in self.reference:
            ref = self.reference[op.key]
            if ref is None or outcome.out != ref.out:
                error = "output differs from the warm-up pass"
        if error is not None:
            self.failures.append(f"{op.key}: {error}")
        return outcome, error

    def warm_up(self) -> None:
        t0 = time.perf_counter()
        for op in self.ops:
            outcome, error = self._call(op)
            self.reference[op.key] = None if error else outcome
            gc.collect()
        self.spans.add("warm-up", "phase", t0, time.perf_counter())

    def measure(self, phase: str, seconds: float, min_samples: int,
                profiler=None) -> list[dict]:
        """Round robin over the operations for ``seconds``."""
        records = []
        start = time.perf_counter()
        deadline = start + seconds
        rounds = 0
        while rounds < min_samples or time.perf_counter() < deadline:
            t_round = time.perf_counter()
            for op in self.ops:
                if rounds >= min_samples and time.perf_counter() >= deadline:
                    break
                t0 = time.perf_counter()
                outcome, error = self._call(op, profiler)
                t1 = time.perf_counter()
                gc.collect()
                t2 = time.perf_counter()
                records.append({
                    "key": op.key, "round": rounds, "phase": phase,
                    "error": error,
                    "counters": outcome.counters if outcome else {},
                    "t0": t0, "t1": t1, "t2": t2,
                })
            self.spans.add(f"round {rounds}", "round", t_round,
                           time.perf_counter())
            rounds += 1
        self.spans.add(phase, "phase", start, time.perf_counter())
        self.records.extend(records)
        return records

    def calibrate(self) -> None:
        """Convert every record once the sampler has stopped."""
        for rec in self.records:
            wall, ref_ms = self.sampler.window(rec["t0"], rec["t2"])
            gc_wall, _ = self.sampler.window(rec["t1"], rec["t2"])
            factor = calibrate.scale(ref_ms)
            rec.update(
                wall=wall, ref_ms=ref_ms, cal=wall * factor,
                cal_gc=gc_wall * factor,
            )

    def record_spans(self) -> None:
        for rec in self.records:
            self.spans.add(
                rec["key"], "op", rec["t0"], rec["t2"], phase=rec["phase"],
                round=rec["round"], wall_ms=rec["wall"] * 1e3,
                calibrated_ms=rec["cal"] * 1e3, error=rec["error"],
            )
            self.spans.add("gc.collect", "gc", rec["t1"], rec["t2"])
        sampler = self.sampler
        for t0, t1 in zip(sampler.starts, sampler.ends):
            self.spans.add("reference", "calib", t0, t1)

    def pass_counters(self, workloads) -> dict:
        """Per-pass layer counters: each op type's first clean record,
        with machine-layer tracer counts from its first traced one."""
        first: dict = {}
        traced: dict = {}
        for rec in self.records:
            if rec["error"] is not None:
                continue
            target = traced if rec["phase"] == "profiled" else first
            target.setdefault(rec["key"], rec["counters"])
        per_op = []
        for key, counters in first.items():
            merged = dict(counters)
            for name, value in traced.get(key, {}).items():
                if name.startswith("machine."):
                    merged[name] = value
            per_op.append(merged)
        return workloads.aggregate(per_op)


def run_one(args, spec) -> dict:
    """Run one workload; returns the full record."""
    import workloads

    seconds = args.seconds / (QUICK_DIVISOR if args.quick else 1)
    spans = ledger.Spans()

    t0 = time.perf_counter()
    setup = probe_setup(args.workload, args.seed, 1 if args.quick else SETUP_PROBES)
    spans.add("set-up probes", "phase", t0, time.perf_counter())
    workload = workloads.build(args.workload, args.seed)
    t0 = time.perf_counter()
    workload.prepare()
    spans.add("prepare", "phase", t0, time.perf_counter())

    runner = Runner(workload, spans)
    runner.warm_up()
    outs = {
        key: (ref.out if ref is not None else None)
        for key, ref in runner.reference.items()
    }
    if None not in outs.values():
        runner.failures.extend(
            f"paper shape: {error}" for error in workload.shape_errors(outs)
        )
    digest = hashlib.sha256(workloads.canonical(outs).encode()).hexdigest()

    n_types = len(runner.ops)
    pass_ranks = sum(op.ranks for op in runner.ops)
    metrics: dict = {}
    raw: dict = {}
    profile = None
    with runner.sampler:
        if args.trace:
            untraced = runner.measure("untraced", seconds * UNTRACED_SHARE, 1)
            workload.set_tracing(True)
            profile = cProfile.Profile()
            profiled = runner.measure(
                "profiled", seconds * (1 - UNTRACED_SHARE), 1, profiler=profile
            )
            workload.set_tracing(False)
        else:
            untraced = runner.measure("measure", seconds, MIN_SAMPLES)
    runner.calibrate()

    pass_cal = median_sum(untraced, "cal")
    pass_raw = median_sum(untraced, "wall")
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    raw["setup_s"] = statistics.median(s["raw_s"] for s in setup)
    metrics["ops_per_s"] = n_types / pass_cal
    raw["ops_per_s"] = n_types / pass_raw
    metrics["ranks_per_s"] = pass_ranks / pass_cal
    raw["ranks_per_s"] = pass_ranks / pass_raw
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    counters = runner.pass_counters(workloads)
    diag = runner.sampler.diagnostics()
    events = counters.get("sim.heap_pops", 0) + counters.get("sim.nowq_entries", 0)
    metrics.update(counters)
    metrics["sim.host_us_per_event"] = pass_cal * 1e6 / events if events else 0.0
    metrics["setup.session_build_s"] = statistics.median(
        s["session_build_s"] for s in setup
    )
    metrics["op.gc_s"] = median_sum(untraced, "cal_gc")
    metrics["calib.ref_ms"] = diag["ref_ms"]
    metrics["calib.ref_iqr"] = diag["ref_iqr"]
    if profile is not None:
        metrics["trace.overhead_x"] = median_sum(profiled, "cal") / pass_cal
        self_s = ledger.layer_self_seconds(profile)
        total = sum(self_s.values()) or 1.0
        ms_per_op = pass_cal * 1e3 / n_types
        for layer, seconds_ in self_s.items():
            share = seconds_ / total
            metrics[f"{layer}.self_share"] = share
            metrics[f"{layer}.self_ms_per_op"] = share * ms_per_op
        runner.record_spans()
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        spans.write(str(trace_path), {
            "workload": args.workload, "seed": args.seed, "digest": digest,
        })
    runner.sampler.warn_if_unstable()

    failed = len(runner.failures)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures[:MAX_FAILURES],
        "digest": digest,
        "metrics": metrics,
        "raw": raw,
        "counters": counters,
        "calib": diag,
        "setup": setup,
        "op_medians_ms": {
            key: statistics.median(
                r["cal"] * 1e3 for r in untraced if r["key"] == key
            )
            for key in outs
        },
        "samples": len(runner.records),
        "trace_file": (
            str(OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json")
            if args.trace else None
        ),
    }


def report(record: dict, spec: dict) -> dict:
    """Print the record for humans; return the last line's result object."""
    section = "per_layer" if record["trace"] else "end_to_end"
    print(
        f"{record['workload']} seed {record['seed']}: "
        f"{record['samples']} timed ops in {record['seconds']:g} s, "
        f"{record['attempted']} attempted, {record['failed']} failed"
    )
    for message in record["failures"]:
        print(f"  FAILED {message}")
    out = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        value = record["metrics"].get(name, 0)
        out[name] = {"value": value, "unit": unit}
        raw = record["raw"].get(name)
        suffix = f"   (raw wall: {raw:.6g})" if raw is not None else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{suffix}")
    print(
        f"  calib.ref_ms {record['calib']['ref_ms']:.3f} over "
        f"{record['calib']['ref_samples']} samples, "
        f"spread {record['calib']['ref_iqr']:.1%}"
    )
    if record["trace_file"]:
        print(f"  spans: {record['trace_file']}")
    print(f"digest {record['workload']} {record['digest']}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process; a combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.quick:
            cmd.append("--quick")
        if args.json:
            cmd += ["--json", f"{args.json}.{name}"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
        if args.json:
            with open(f"{args.json}.{name}") as fh:
                records.append(json.load(fh))
            os.remove(f"{args.json}.{name}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    record = run_one(args, spec)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    result = report(record, spec)
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and with it the
        # layout of every str-keyed dict and set: a per-process speed
        # offset of a few percent.  Pin it and start over.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
