"""Figure 10 at large scale on Cluster D — and beyond.

Paper: 10,240 processes on 160 nodes; "DPML outperforms MVAPICH2 and
Intel MPI by up to 207% and 48% respectively".  Those claims are the
E8 records of :mod:`repro.bench.experiments`.  This file is a CLI
scaling study::

    PYTHONPATH=src python benchmarks/bench_fig10_scale.py \
        --fidelity both --max-ranks 1024000

It extends the paper's sweep two orders of magnitude past its largest
configuration (10,240 -> ~1M ranks) on hypothetically-scaled Cluster D
(:func:`~repro.machine.clusters.scaled_cluster`).  Hybrid fidelity
carries the large end; the exact coroutine path is also recorded
wherever it is still feasible (``--exact-max-ranks``, default 2,048),
so the two fidelities can be compared side by side on the overlap.
Only the cost-modelled, phase-plan-backed algorithms run at scale —
the library emulations (mvapich2, intel_mpi) have no plan and would
fall back to exact execution, which is exactly what 10k+ ranks cannot
afford.  The largest point (~1M ranks) takes a few minutes and ~5 GB.
"""

import argparse
import json
import sys
import time

from repro.bench.harness import allreduce_latency
from repro.machine.clusters import scaled_cluster

#: Node counts of the CLI sweep at 64 ppn: the paper's 160-node point,
#: then roughly half-decade steps to two orders of magnitude past it.
SWEEP_NODES = (32, 160, 512, 1600, 5120, 16000)
PPN = 64

#: Phase-plan-backed algorithms — the only ones hybrid can macro-charge.
SCALE_ALGORITHMS = ("dpml", "dpml_pipelined", "recursive_doubling")


def _measure(nodes, algorithm, nbytes, fidelity):
    config = scaled_cluster("d", nodes)
    nranks = nodes * PPN
    t0 = time.perf_counter()
    latency = allreduce_latency(
        config, algorithm, nbytes, ppn=PPN,
        iterations=1, warmup=1, fidelity=fidelity,
    )
    wall = time.perf_counter() - t0
    return {
        "nodes": nodes,
        "nranks": nranks,
        "ppn": PPN,
        "algorithm": algorithm,
        "nbytes": nbytes,
        "fidelity": fidelity,
        "latency": latency,
        "wall_seconds": round(wall, 3),
        "ranks_per_second": round(nranks / wall) if wall > 0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Allreduce scaling two orders of magnitude past the "
        "paper's Figure 10, on hypothetically-scaled Cluster D."
    )
    parser.add_argument(
        "--fidelity", default="both", choices=("exact", "hybrid", "both"),
        help="execution mode(s) to record; exact points stop at "
        "--exact-max-ranks (default: both)",
    )
    parser.add_argument(
        "--max-ranks", type=int, default=1_024_000,
        help="largest rank count to sweep (default: 1,024,000 — two "
        "orders past the paper's 10,240)",
    )
    parser.add_argument(
        "--exact-max-ranks", type=int, default=2048,
        help="largest rank count the exact coroutine path records "
        "(default: 2048)",
    )
    parser.add_argument(
        "--nbytes", type=int, default=262144,
        help="message size in bytes (default: 262144)",
    )
    parser.add_argument(
        "--algorithms", default=",".join(SCALE_ALGORITHMS),
        help="comma-separated plan-backed algorithms "
        f"(default: {','.join(SCALE_ALGORITHMS)})",
    )
    parser.add_argument(
        "--output", default=None, help="also write results as JSON"
    )
    args = parser.parse_args(argv)

    algorithms = tuple(a for a in args.algorithms.split(",") if a)
    rows = []
    print(
        f"{'ranks':>9}  {'algorithm':<19} {'fidelity':<7} "
        f"{'latency':>11}  {'wall':>8}  {'ranks/s':>9}"
    )
    for nodes in SWEEP_NODES:
        nranks = nodes * PPN
        if nranks > args.max_ranks:
            break
        for algorithm in algorithms:
            modes = []
            if args.fidelity in ("exact", "both") and nranks <= args.exact_max_ranks:
                modes.append("exact")
            if args.fidelity in ("hybrid", "both"):
                modes.append("hybrid")
            for fidelity in modes:
                row = _measure(nodes, algorithm, args.nbytes, fidelity)
                rows.append(row)
                print(
                    f"{row['nranks']:>9}  {algorithm:<19} {fidelity:<7} "
                    f"{row['latency']:>11.4e}  {row['wall_seconds']:>7.2f}s  "
                    f"{row['ranks_per_second']:>9}"
                )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"ppn": PPN, "nbytes": args.nbytes, "rows": rows}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
