"""Compare runs of two commits by the paired-runs rule.

Usage::

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
                                      --change C1.json C2.json ...

Each file is a ``run.py --json`` record (or a list of them, as written
when ``run.py`` runs every workload) of a full, untraced run; ``--quick``
records are refused.  Runs pair up in the order given, so alternate the
two commits while measuring and list the files in that order; both
sides need the same number of runs of each workload.  For every
workload and end-to-end metric the tool prints each side's median and
quartiles, the share of pairs the change won (ties count for neither
side), and a verdict:

* ``improved`` -- the change won at least 9/10 of the pairs, its
  median beats the parent's by more than the parent's interquartile
  range, and its runs failed no more operations than the parent's;
* ``unresolved`` -- the parent's own spread (IQR over median) is wider
  than the metric's bound in ``BENCHMARK.json``, and not every change
  run beats every parent run;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``no worse`` -- otherwise.

It also flags a workload whose ``calib.ref_ms`` medians differ between
the sides by more than either side's interquartile range: the reference
loop is meant to measure the host only, so a shift means the program
under test is perturbing it.  Exit status 1 means some metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(paths) -> dict[str, list[dict]]:
    """Untraced records grouped by workload, in the order given."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for record in data if isinstance(data, list) else [data]:
            if record["quick"]:
                sys.exit(f"{path}: a --quick run measures too little to compare")
            if not record["trace"]:
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float,
            more_failures: bool = False) -> tuple[str, float]:
    """The verdict for one metric, and the share of pairs won.

    ``more_failures``: the change's runs failed more operations than the
    parent's, so no gain counts.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change, strict=True))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if won >= WIN_SHARE and gain > p3 - p1 and not more_failures:
        return "improved", won
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", won
    if pm and -gain / abs(pm) > bound:
        return "regressed", won
    return "no worse", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parents, changes = load(args.parent), load(args.change)
    regressed = False
    for workload in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[workload], changes[workload]
        if len(p_runs) != len(c_runs):
            sys.exit(
                f"{workload}: {len(p_runs)} parent runs but {len(c_runs)} "
                f"change runs; runs must pair up"
            )
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print(
            f"{workload}: {len(p_runs)} runs per side, failed operations "
            f"{p_failed} parent / {c_failed} change"
        )
        for entry in spec["end_to_end"]:
            name = entry["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            result, won = verdict(
                p, c, entry["better"], entry["bound"], c_failed > p_failed
            )
            regressed |= result == "regressed"
            pq, cq = quartiles(p), quartiles(c)
            print(
                f"  {name:<12} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                f"{entry['unit']}  won {won:.0%}  -> {result}"
            )
        p_ref = quartiles([r["metrics"]["calib.ref_ms"] for r in p_runs])
        c_ref = quartiles([r["metrics"]["calib.ref_ms"] for r in c_runs])
        width = max(p_ref[2] - p_ref[0], c_ref[2] - c_ref[0])
        if abs(c_ref[1] - p_ref[1]) > width:
            print(
                f"  FLAG calib.ref_ms median moved {p_ref[1]:.3f} -> "
                f"{c_ref[1]:.3f} ms: the change perturbs the reference loop"
            )
        same_seed = {r["seed"]: r["digest"] for r in p_runs}
        differ = [
            r["seed"] for r in c_runs
            if r["seed"] in same_seed and same_seed[r["seed"]] != r["digest"]
        ]
        if differ:
            print(f"  NOTE simulated outputs differ for seeds {sorted(set(differ))}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
