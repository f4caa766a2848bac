"""Perf-regression harness: ``python -m repro.bench perf``.

Runs small, figure-shaped scenarios twice — once with the kernel and
payload layers in **compat** mode (heap-only event kernel, copy-always
payloads: the seed's behaviour) and once in the default **fast** mode
(now-queue, event pools, copy-on-write views) — and records, for each
point:

* the simulated latency (must be bit-identical between the two modes;
  the harness hard-fails on any divergence),
* the deterministic kernel counters (events allocated, heap pushes and
  pops, now-queue entries, pool reuses),
* the deterministic payload counters (bytes copied / viewed / reduced),
* wall-clock time (recorded for humans, never gated: CI machines are
  noisy, counters are not).

The scenarios are shrunken versions of the paper's evaluation sweeps
(see ``repro.bench.spec``): ``fig4``/``fig5`` keep the DPML leaders
grid on clusters A/B at a small node count, ``fig10`` exercises the
tuned selector on cluster D.  Every point runs with ``validate=True``
so real numpy data flows through the copy-on-write paths.

Each (point, mode) measurement uses a **fresh** :class:`SimSession` so
the event pools start cold and the counters are reproducible run to
run (pools survive ``reset()``, so reusing a session would make
``events_allocated`` depend on history).

Alongside the figure-shaped grids, the **scale scenarios**
(``scale10k``/``scale50k``/``scale100k``) exercise the hybrid-fidelity
path at datacenter rank counts on hypothetically-scaled clusters
(:func:`~repro.machine.clusters.scaled_cluster`).  They run hybrid-only
(the exact coroutine path at 10k+ ranks is exactly what hybrid exists
to avoid), with symbolic payloads, and report ranks-simulated-per-
second so the scaling trajectory is visible in CI logs.  Their gate is
a wall-clock ceiling plus counter floors: every collective must have
been macro-charged (``macro_events`` floor) and the kernel must not
have regressed to per-message eventing (``events_allocated`` ceiling
per rank).

The **store scenario** (``store_fig5``) runs a fig5-shaped sweep twice
through a throwaway content-addressed :class:`~repro.bench.store
.ResultStore`: the cold pass simulates and writes back, the warm pass
must answer every point from the store — zero executions, 100% hit
ratio, canonical payload byte-identical to the cold pass.  The warm
wall-clock is recorded (for humans); the hit counters and the
byte-identity bit are deterministic and gated.

``run_perf`` returns a plain dict; ``--output`` writes it as
``BENCH_PERF.json``.  ``--gate`` enforces the improvement floors on the
fig5-shaped scenario (>= 3x fewer events allocated, >= 5x fewer payload
bytes copied) plus the scale ceilings above and the warm-store
requirements.  ``--baseline <path>``
diffs the deterministic portion (latencies, counters, ratios) against a
committed baseline and fails on any drift — wall-clock and throughput
fields are stripped before comparing.  ``--canonical <path>`` writes
that same stripped portion as canonical JSON (sorted keys, no
whitespace), so two runs of a deterministic scenario can be compared
byte-for-byte with ``cmp``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from repro.bench.harness import allreduce_latency
from repro.machine.clusters import get_cluster, scaled_cluster
from repro.mpi.runtime import SimSession
from repro.payload.payload import (
    payload_counters,
    reset_payload_counters,
    set_payload_compat,
)

__all__ = [
    "PerfPoint",
    "ScalePoint",
    "SCENARIOS",
    "SCALE_SCENARIOS",
    "STORE_SCENARIOS",
    "TRAFFIC_SCENARIOS",
    "TRAFFIC_MAX_WALL",
    "SCALE_MAX_WALL",
    "SCALE_MIN_MACRO_PER_POINT",
    "SCALE_MAX_EVENTS_PER_RANK",
    "GATE_SCENARIO",
    "MIN_EVENTS_RATIO",
    "MIN_BYTES_COPIED_RATIO",
    "run_perf",
    "gate_failures",
    "baseline_mismatches",
    "strip_volatile",
    "canonical_json",
    "main",
]

#: Scenario whose aggregate ratios the ``--gate`` flag enforces.
GATE_SCENARIO = "fig5"
#: Floor on compat/fast events-allocated ratio for the gate scenario.
MIN_EVENTS_RATIO = 3.0
#: Floor on compat/fast bytes-copied ratio for the gate scenario.
MIN_BYTES_COPIED_RATIO = 5.0


@dataclass(frozen=True)
class PerfPoint:
    """One benchmark layout, run in both compat and fast mode."""

    cluster: str
    nodes: int
    ppn: int
    algorithm: str
    nbytes: int
    leaders: Optional[int] = None
    iterations: int = 2
    warmup: int = 1

    def label(self) -> str:
        lead = f"l{self.leaders}" if self.leaders is not None else "tuned"
        return (
            f"{self.cluster}/n{self.nodes}/ppn{self.ppn}/"
            f"{self.algorithm}/{self.nbytes}B/{lead}"
        )


def _dpml_grid(cluster: str, leaders: tuple[int, ...]) -> tuple[PerfPoint, ...]:
    return tuple(
        PerfPoint(cluster, nodes=4, ppn=8, algorithm="dpml", nbytes=nbytes,
                  leaders=lead)
        for nbytes in (4096, 65536)
        for lead in leaders
    )


#: Figure-shaped scenario grids (small node counts, real data).
SCENARIOS: dict[str, tuple[PerfPoint, ...]] = {
    # Fig 4/5: DPML across the leaders grid (clusters A and B).
    "fig4": _dpml_grid("a", (1, 4)),
    "fig5": _dpml_grid("b", (1, 2, 4, 8)),
    # Fig 10: the tuned selector picks algorithm + leaders per size.
    "fig10": tuple(
        PerfPoint("d", nodes=4, ppn=8, algorithm="dpml_tuned", nbytes=nbytes,
                  iterations=1)
        for nbytes in (16384, 262144)
    ),
}

@dataclass(frozen=True)
class ScalePoint:
    """One hybrid-fidelity layout at datacenter rank counts.

    Runs once, hybrid-only, with a symbolic payload: the point of the
    scale tier is wall-clock and kernel-counter behaviour, and at
    10k-100k ranks the float32 harness checksum overflows the mantissa
    anyway (numeric bit-identity between fidelities is enforced at
    tractable scale by the golden-determinism tests and the oracle
    spot-check).
    """

    cluster: str
    nodes: int
    ppn: int
    algorithm: str
    nbytes: int
    iterations: int = 1
    warmup: int = 1

    @property
    def nranks(self) -> int:
        return self.nodes * self.ppn

    def label(self) -> str:
        return (
            f"{self.cluster}-x{self.nodes}/ppn{self.ppn}/"
            f"{self.algorithm}/{self.nbytes}B/hybrid"
        )


#: Hybrid-fidelity scale tier: 10k ranks gates CI; 50k/100k track the
#: trajectory two orders of magnitude past the exact kernel's ~450-rank
#: comfort zone.
SCALE_SCENARIOS: dict[str, tuple[ScalePoint, ...]] = {
    "scale10k": (ScalePoint("b", nodes=1250, ppn=8, algorithm="dpml",
                            nbytes=4096),),
    "scale50k": (ScalePoint("b", nodes=6250, ppn=8, algorithm="dpml",
                            nbytes=65536),),
    "scale100k": (ScalePoint("b", nodes=12500, ppn=8,
                             algorithm="dpml_pipelined", nbytes=65536),),
}

def _store_spec():
    """The fig5-shaped sweep the ``store_fig5`` scenario runs twice."""
    from repro.bench.spec import SweepSpec

    return SweepSpec(
        name="perf-store-fig5",
        cluster="b",
        nodes=4,
        ppn=8,
        sizes=(4096, 65536),
        algorithms=("dpml",),
        leader_counts=(1, 2, 4, 8),
        iterations=2,
    )


#: Result-store scenarios: name -> spec factory.  Each runs its sweep
#: cold then warm through a throwaway store; the warm pass is gated to
#: execute zero points.
STORE_SCENARIOS = {"store_fig5": _store_spec}


def _traffic_trace():
    """The tiny Poisson stream the ``traffic_smoke`` scenario replays."""
    from repro.traffic.workload import poisson_trace

    return poisson_trace(jobs=6, rate=3e4, seed=11)


#: Multi-tenant traffic scenarios: name -> trace factory.  Each trace
#: runs once on a fresh fabric and once on a reused (reset) one; the
#: canonical TrafficResult JSON of the two passes is gated to be
#: byte-identical, and each pass must finish under TRAFFIC_MAX_WALL.
TRAFFIC_SCENARIOS = {"traffic_smoke": _traffic_trace}

#: Wall-clock ceilings (seconds) per traffic pass.  Measured well under
#: a second on a dev box; generous headroom for noisy CI runners.
TRAFFIC_MAX_WALL = {"traffic_smoke": 30.0}


def _run_traffic_scenario(trace) -> dict:
    """Fresh + reused-fabric traffic runs; deterministic replay record."""
    import dataclasses

    from repro.machine.fattree import FatTreeConfig
    from repro.traffic.fabric import SharedFabric
    from repro.traffic.runner import run_traffic

    nodes = max(1, 2 * trace.max_nodes())
    config = dataclasses.replace(
        get_cluster("a", nodes),
        topology=FatTreeConfig(nodes_per_leaf=2, spines=2),
    )
    t0 = time.perf_counter()
    fresh = run_traffic(
        trace, config=config, placement="spread", sanitize=True
    )
    wall_fresh = time.perf_counter() - t0
    fabric = SharedFabric(config, sanitize=True)
    run_traffic(trace, fabric=fabric, placement="spread")  # dirty the fabric
    t0 = time.perf_counter()
    reused = run_traffic(trace, fabric=fabric, placement="spread")
    wall_reused = time.perf_counter() - t0
    return {
        "trace_hash": trace.trace_hash(),
        "n_jobs": fresh.n_jobs,
        "nodes": fresh.nodes,
        "placement": fresh.placement,
        "elapsed": fresh.elapsed,
        "n_samples": len(fresh.series),
        "total_queue_wait": round(
            sum(job.queue_wait for job in fresh.jobs), 12
        ),
        "fresh": {"wall_seconds": round(wall_fresh, 6)},
        "reused": {"wall_seconds": round(wall_reused, 6)},
        "byte_identical": (
            fresh.to_canonical_json() == reused.to_canonical_json()
        ),
    }


def _run_store_scenario(spec) -> dict:
    """Cold + warm store-backed runs of ``spec``; deterministic counters
    plus the (volatile, human-facing) wall clocks of both passes."""
    import tempfile

    from repro.bench.executor import SerialExecutor
    from repro.bench.store import ResultStore

    executor = SerialExecutor()
    with tempfile.TemporaryDirectory(prefix="repro-perf-store-") as tmp:
        store = ResultStore(tmp)
        cold = executor.run(spec, store=store)
        warm = executor.run(spec, store=store)
    n = cold.meta["n_points"]
    cold_store = cold.meta["store"]
    warm_store = warm.meta["store"]
    return {
        "spec_hash": spec.spec_hash(),
        "n_points": n,
        "cold": {
            "wall_seconds": round(cold.meta["wall_seconds"], 6),
            "hits": cold_store["hits"],
            "misses": cold_store["misses"],
            "stored": cold_store["stored"],
        },
        "warm": {
            "wall_seconds": round(warm.meta["wall_seconds"], 6),
            "hits": warm_store["hits"],
            "misses": warm_store["misses"],
            "stored": warm_store["stored"],
        },
        "warm_executed": warm_store["misses"],
        "warm_hit_ratio": round(warm_store["hits"] / n, 4) if n else None,
        "byte_identical": (
            cold.to_json(include_meta=False) == warm.to_json(include_meta=False)
        ),
    }


#: Wall-clock ceilings (seconds) per scale scenario.  A per-rank hybrid
#: launch measured ~1s / ~9s / ~16s and a fleet launch well under 0.1s
#: each on a 2-vCPU box; the ceilings catch an accidental fall-back to
#: per-message eventing (which would be many minutes at these rank
#: counts), not CI noise.
SCALE_MAX_WALL = {"scale10k": 30.0, "scale50k": 120.0, "scale100k": 240.0}
#: Every scale point issues warmup + timed allreduces plus one barrier;
#: each must land as a macro charge.
SCALE_MIN_MACRO_PER_POINT = 3
#: Kernel-event ceiling per rank.  A fleet launch needs a constant
#: handful of events per job (one process plus the macro gates), and a
#: per-rank hybrid launch ~1 per rank; per-message eventing would be
#: hundreds.
SCALE_MAX_EVENTS_PER_RANK = 4.0

_KERNEL_KEYS = (
    "events_allocated",
    "heap_pushes",
    "heap_pops",
    "nowq_entries",
    "pool_reuses",
)
_SCALE_KERNEL_KEYS = _KERNEL_KEYS + ("macro_events", "pool_evictions")
_PAYLOAD_KEYS = ("bytes_copied", "bytes_viewed", "bytes_reduced")


def _run_mode(point: PerfPoint, compat: bool) -> dict:
    """One measurement on a fresh session (cold pools, zeroed counters)."""
    set_payload_compat(compat)
    reset_payload_counters()
    try:
        config = get_cluster(point.cluster, point.nodes)
        session = SimSession(
            config, point.nodes * point.ppn, ppn=point.ppn
        )
        session.machine.sim._compat = compat
        kwargs = {} if point.leaders is None else {"leaders": point.leaders}
        t0 = time.perf_counter()
        latency = allreduce_latency(
            config,
            point.algorithm,
            point.nbytes,
            ppn=point.ppn,
            iterations=point.iterations,
            warmup=point.warmup,
            validate=True,
            session=session,
            **kwargs,
        )
        wall = time.perf_counter() - t0
        kernel = session.machine.sim.counters()
        payload = payload_counters()
    finally:
        set_payload_compat(False)
        reset_payload_counters()
    return {
        "latency": latency,
        "wall_seconds": wall,
        "kernel": {k: kernel[k] for k in _KERNEL_KEYS},
        "payload": {k: payload[k] for k in _PAYLOAD_KEYS},
    }


def _run_scale(point: ScalePoint) -> dict:
    """One hybrid-fidelity measurement on a fresh scaled-cluster session."""
    reset_payload_counters()
    try:
        config = scaled_cluster(point.cluster, point.nodes)
        session = SimSession(
            config, point.nranks, ppn=point.ppn, fidelity="hybrid"
        )
        t0 = time.perf_counter()
        latency = allreduce_latency(
            config,
            point.algorithm,
            point.nbytes,
            ppn=point.ppn,
            iterations=point.iterations,
            warmup=point.warmup,
            session=session,
            fidelity="hybrid",
        )
        wall = time.perf_counter() - t0
        kernel = session.machine.sim.counters()
        payload = payload_counters()
    finally:
        reset_payload_counters()
    return {
        "point": point.label(),
        "nranks": point.nranks,
        "latency": latency,
        "wall_seconds": wall,
        "ranks_per_second": round(point.nranks / wall) if wall > 0 else None,
        "kernel": {k: kernel[k] for k in _SCALE_KERNEL_KEYS},
        "payload": {k: payload[k] for k in _PAYLOAD_KEYS},
    }


def _ratio(compat: int, fast: int) -> Optional[float]:
    if fast == 0:
        return None if compat == 0 else float("inf")
    return round(compat / fast, 4)


def run_perf(scenarios: Optional[list[str]] = None, progress=None) -> dict:
    """Run the perf suite; returns the ``BENCH_PERF.json`` payload.

    Raises :class:`RuntimeError` if any point's simulated latency
    differs between compat and fast mode — the optimisations must be
    invisible to simulated time.
    """
    if scenarios:
        names = list(scenarios)
    else:
        names = (
            list(SCENARIOS)
            + list(SCALE_SCENARIOS)
            + list(STORE_SCENARIOS)
            + list(TRAFFIC_SCENARIOS)
        )
    out: dict = {"schema": 1, "suite": "repro.bench.perf", "scenarios": {}}
    for name in names:
        if name in STORE_SCENARIOS:
            record = _run_store_scenario(STORE_SCENARIOS[name]())
            out["scenarios"][name] = {"mode": "result-store", **record}
            if progress is not None:
                progress(name, None, record, None)
            continue
        if name in TRAFFIC_SCENARIOS:
            record = _run_traffic_scenario(TRAFFIC_SCENARIOS[name]())
            out["scenarios"][name] = {"mode": "traffic", **record}
            if progress is not None:
                progress(name, None, record, None)
            continue
        if name in SCALE_SCENARIOS:
            records = []
            for point in SCALE_SCENARIOS[name]:
                record = _run_scale(point)
                records.append(record)
                if progress is not None:
                    progress(name, point, record, None)
            out["scenarios"][name] = {"mode": "hybrid-scale", "points": records}
            continue
        points = SCENARIOS[name]
        records = []
        totals = {
            "compat": {k: 0 for k in _KERNEL_KEYS + _PAYLOAD_KEYS},
            "fast": {k: 0 for k in _KERNEL_KEYS + _PAYLOAD_KEYS},
        }
        for point in points:
            compat = _run_mode(point, compat=True)
            fast = _run_mode(point, compat=False)
            if compat["latency"] != fast["latency"]:
                raise RuntimeError(
                    f"{name} {point.label()}: simulated latency diverged "
                    f"between compat ({compat['latency']!r}) and fast "
                    f"({fast['latency']!r}) mode"
                )
            for mode, rec in (("compat", compat), ("fast", fast)):
                for k in _KERNEL_KEYS:
                    totals[mode][k] += rec["kernel"][k]
                for k in _PAYLOAD_KEYS:
                    totals[mode][k] += rec["payload"][k]
            records.append(
                {
                    "point": point.label(),
                    "latency": compat["latency"],
                    "compat": compat,
                    "fast": fast,
                }
            )
            if progress is not None:
                progress(name, point, compat, fast)
        ratios = {
            "events_allocated": _ratio(
                totals["compat"]["events_allocated"],
                totals["fast"]["events_allocated"],
            ),
            "bytes_copied": _ratio(
                totals["compat"]["bytes_copied"],
                totals["fast"]["bytes_copied"],
            ),
        }
        out["scenarios"][name] = {
            "points": records,
            "totals": totals,
            "ratios": ratios,
        }
    out["gate"] = {
        "scenario": GATE_SCENARIO,
        "min_events_allocated_ratio": MIN_EVENTS_RATIO,
        "min_bytes_copied_ratio": MIN_BYTES_COPIED_RATIO,
    }
    return out


def gate_failures(report: dict) -> list[str]:
    """Improvement-floor violations (empty list when the gate passes).

    Checks whichever gated scenarios the report contains: the fig5
    compat/fast ratio floors, and the scale-tier wall ceilings and
    counter floors.  A report with neither is a configuration error.
    """
    failures: list[str] = []
    present_scale = [
        name for name in SCALE_SCENARIOS if name in report["scenarios"]
    ]
    present_store = [
        name for name in STORE_SCENARIOS if name in report["scenarios"]
    ]
    present_traffic = [
        name for name in TRAFFIC_SCENARIOS if name in report["scenarios"]
    ]
    scenario = report["scenarios"].get(GATE_SCENARIO)
    if (
        scenario is None
        and not present_scale
        and not present_store
        and not present_traffic
    ):
        return [f"gate scenario {GATE_SCENARIO!r} missing from report"]
    if scenario is not None:
        ratios = scenario["ratios"]
        checks = (
            ("events_allocated", MIN_EVENTS_RATIO),
            ("bytes_copied", MIN_BYTES_COPIED_RATIO),
        )
        for key, floor in checks:
            ratio = ratios.get(key)
            if ratio is None or ratio < floor:
                failures.append(
                    f"{GATE_SCENARIO}: {key} ratio {ratio} below floor {floor}"
                )
    for name in present_scale:
        ceiling = SCALE_MAX_WALL[name]
        for record in report["scenarios"][name]["points"]:
            label = record["point"]
            wall = record["wall_seconds"]
            if wall > ceiling:
                failures.append(
                    f"{name} {label}: wall {wall:.2f}s over "
                    f"ceiling {ceiling}s"
                )
            macro = record["kernel"]["macro_events"]
            if macro < SCALE_MIN_MACRO_PER_POINT:
                failures.append(
                    f"{name} {label}: macro_events {macro} below floor "
                    f"{SCALE_MIN_MACRO_PER_POINT} — collectives are not "
                    f"being macro-charged"
                )
            events = record["kernel"]["events_allocated"]
            cap = SCALE_MAX_EVENTS_PER_RANK * record["nranks"]
            if events > cap:
                failures.append(
                    f"{name} {label}: events_allocated {events} over "
                    f"{SCALE_MAX_EVENTS_PER_RANK}/rank ceiling ({cap:.0f}) "
                    f"— kernel regressed toward per-message eventing"
                )
    for name in present_store:
        record = report["scenarios"][name]
        if record["warm_executed"] != 0:
            failures.append(
                f"{name}: warm rerun executed {record['warm_executed']} "
                f"point(s) — the store must answer a fully-warm sweep"
            )
        if record["warm_hit_ratio"] != 1.0:
            failures.append(
                f"{name}: warm hit ratio {record['warm_hit_ratio']} != 1.0"
            )
        if record["byte_identical"] is not True:
            failures.append(
                f"{name}: warm canonical payload diverged from the cold run"
            )
    for name in present_traffic:
        record = report["scenarios"][name]
        ceiling = TRAFFIC_MAX_WALL[name]
        for passname in ("fresh", "reused"):
            wall = record[passname]["wall_seconds"]
            if wall > ceiling:
                failures.append(
                    f"{name} {passname}: wall {wall:.2f}s over "
                    f"ceiling {ceiling}s"
                )
        if record["byte_identical"] is not True:
            failures.append(
                f"{name}: reused-fabric replay diverged from the fresh run"
            )
        if record["n_samples"] < 1:
            failures.append(
                f"{name}: metering produced no samples — the scraper "
                f"never fired"
            )
    return failures


#: Host-timing fields: meaningful to humans, meaningless to diff.
_VOLATILE_KEYS = frozenset({"wall_seconds", "ranks_per_second"})


def strip_volatile(node):
    """Recursively drop wall-clock fields, keeping the deterministic rest."""
    if isinstance(node, dict):
        return {
            k: strip_volatile(v)
            for k, v in node.items()
            if k not in _VOLATILE_KEYS
        }
    if isinstance(node, list):
        return [strip_volatile(v) for v in node]
    return node


def canonical_json(report: dict) -> str:
    """The deterministic portion as byte-stable canonical JSON.

    Two runs of the same deterministic scenario must produce identical
    bytes — the CI hybrid-smoke job runs ``scale10k`` twice and ``cmp``s
    the two files.
    """
    return json.dumps(
        strip_volatile(report), sort_keys=True, separators=(",", ":")
    ) + "\n"


def baseline_mismatches(report: dict, baseline: dict) -> list[str]:
    """Differences in the deterministic portion vs a committed baseline."""
    mismatches: list[str] = []

    def walk(path, new, old):
        if isinstance(new, dict) and isinstance(old, dict):
            for key in sorted(set(new) | set(old)):
                if key not in old:
                    mismatches.append(f"{path}.{key}: missing from baseline")
                elif key not in new:
                    mismatches.append(f"{path}.{key}: missing from report")
                else:
                    walk(f"{path}.{key}", new[key], old[key])
        elif isinstance(new, list) and isinstance(old, list):
            if len(new) != len(old):
                mismatches.append(
                    f"{path}: length {len(new)} != baseline {len(old)}"
                )
            else:
                for i, (a, b) in enumerate(zip(new, old)):
                    walk(f"{path}[{i}]", a, b)
        elif new != old:
            mismatches.append(f"{path}: {new!r} != baseline {old!r}")

    walk("$", strip_volatile(report), strip_volatile(baseline))
    return mismatches


def main(args) -> int:
    """The ``perf`` subcommand of ``python -m repro.bench``."""
    import sys

    scenarios = [args.target] if args.target else None
    known = {
        **SCENARIOS,
        **SCALE_SCENARIOS,
        **STORE_SCENARIOS,
        **TRAFFIC_SCENARIOS,
    }
    if scenarios and scenarios[0] not in known:
        print(
            f"unknown perf scenario {scenarios[0]!r}; "
            f"available: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2

    def progress(name, point, first, second):
        if point is None and "trace_hash" in first:
            print(
                f"  [{name}] {first['n_jobs']} jobs on {first['nodes']} "
                f"nodes: fresh {first['fresh']['wall_seconds']:.3f}s, "
                f"reused {first['reused']['wall_seconds']:.3f}s, "
                f"byte-identical {first['byte_identical']}",
                file=sys.stderr,
            )
            return
        if point is None:
            print(
                f"  [{name}] {first['n_points']} points: "
                f"cold {first['cold']['wall_seconds']:.3f}s, "
                f"warm {first['warm']['wall_seconds']:.3f}s, "
                f"warm hits {first['warm']['hits']}/{first['n_points']}",
                file=sys.stderr,
            )
            return
        if second is None:
            print(
                f"  [{name}] {point.label()}: "
                f"macro {first['kernel']['macro_events']}, "
                f"events {first['kernel']['events_allocated']}, "
                f"wall {first['wall_seconds']:.3f}s "
                f"({first['ranks_per_second']} ranks/s)",
                file=sys.stderr,
            )
            return
        compat, fast = first, second
        print(
            f"  [{name}] {point.label()}: "
            f"events {compat['kernel']['events_allocated']}"
            f"->{fast['kernel']['events_allocated']}, "
            f"copied {compat['payload']['bytes_copied']}"
            f"->{fast['payload']['bytes_copied']}B, "
            f"wall {compat['wall_seconds']:.3f}"
            f"->{fast['wall_seconds']:.3f}s",
            file=sys.stderr,
        )

    report = run_perf(scenarios, progress=progress if args.progress else None)

    for name, scenario in report["scenarios"].items():
        if scenario.get("mode") == "result-store":
            print(
                f"{name}: {scenario['n_points']} points, "
                f"cold {scenario['cold']['wall_seconds']:.2f}s -> "
                f"warm {scenario['warm']['wall_seconds']:.2f}s, "
                f"warm hit ratio {scenario['warm_hit_ratio']}, "
                f"byte-identical {scenario['byte_identical']}"
            )
            continue
        if scenario.get("mode") == "traffic":
            print(
                f"{name}: {scenario['n_jobs']} jobs / "
                f"{scenario['nodes']} nodes ({scenario['placement']}), "
                f"sim elapsed {scenario['elapsed']:.3e}s, "
                f"fresh {scenario['fresh']['wall_seconds']:.2f}s, "
                f"reused {scenario['reused']['wall_seconds']:.2f}s, "
                f"byte-identical {scenario['byte_identical']}"
            )
            continue
        if scenario.get("mode") == "hybrid-scale":
            for r in scenario["points"]:
                print(
                    f"{name}: {r['nranks']} ranks, latency {r['latency']:.3e}s, "
                    f"wall {r['wall_seconds']:.2f}s, "
                    f"{r['ranks_per_second']} ranks simulated/s"
                )
            continue
        ratios = scenario["ratios"]
        wall_compat = sum(
            r["compat"]["wall_seconds"] for r in scenario["points"]
        )
        wall_fast = sum(r["fast"]["wall_seconds"] for r in scenario["points"])
        print(
            f"{name}: {len(scenario['points'])} points, "
            f"events_allocated {ratios['events_allocated']}x, "
            f"bytes_copied {ratios['bytes_copied']}x, "
            f"wall {wall_compat:.2f}s -> {wall_fast:.2f}s"
        )

    status = 0
    if args.gate:
        failures = gate_failures(report)
        if failures:
            for failure in failures:
                print(f"GATE FAIL: {failure}", file=sys.stderr)
            status = 1
        else:
            gated = [
                name
                for name in (
                    [GATE_SCENARIO]
                    + list(SCALE_SCENARIOS)
                    + list(STORE_SCENARIOS)
                    + list(TRAFFIC_SCENARIOS)
                )
                if name in report["scenarios"]
            ]
            print(f"gate ok: {', '.join(gated)}")
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        mismatches = baseline_mismatches(report, baseline)
        if mismatches:
            for mismatch in mismatches[:40]:
                print(f"BASELINE DRIFT: {mismatch}", file=sys.stderr)
            if len(mismatches) > 40:
                print(
                    f"... and {len(mismatches) - 40} more", file=sys.stderr
                )
            status = 1
        else:
            print(f"baseline ok: matches {args.baseline}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    if getattr(args, "canonical_output", None):
        with open(args.canonical_output, "w") as fh:
            fh.write(canonical_json(report))
        print(f"wrote canonical {args.canonical_output}")
    return status
