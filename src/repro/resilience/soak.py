"""Seeded chaos harness: recover-or-abort, deterministically.

``python -m repro.resilience soak`` generates a seeded batch of
kill-window scenarios (a permanent link outage isolating one node,
injected at a random time into a running allreduce) and checks the
resilience contract on every one:

* **recover** — with an enabled policy the job completes, and its
  survivor result buffers are *bit-identical* to a survivor-only
  reference run (the same machine with the victim pinned dead from
  t=0, no faults injected);
* **disabled** — without a recovery layer the same scenario raises the
  typed :class:`~repro.errors.TransportError` with the failing edge
  attributed;
* **exhausted** — with a zero failover budget it raises
  :class:`~repro.errors.RecoveryError` (``"double-failover"``).

Every quantity is drawn from one seeded generator, and the emitted
record is canonical JSON (sorted keys), so two invocations with the
same seed are byte-identical — the property the ``chaos-smoke`` CI job
diffs for.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.errors import RecoveryError, TransportError
from repro.faults.plan import FaultPlan, LinkOutage
from repro.machine.clusters import cluster_b
from repro.mpi.runtime import run_job
from repro.payload.ops import SUM
from repro.payload.payload import DataPayload
from repro.resilience.manager import RecoveryManager
from repro.resilience.policy import RecoveryPolicy

__all__ = ["soak", "isolation_plan", "canonical_json"]

#: Algorithms the scenarios cycle through (all registry-registered).
ALGORITHMS = ("dpml", "hierarchical", "rabenseifner", "adaptive")

#: Scenario modes, cycled in order so every batch covers all three.
MODES = ("recover", "disabled", "exhausted")


def isolation_plan(
    victim: int,
    start: float,
    *,
    direction: str = "both",
    retry_limit: int = 2,
) -> FaultPlan:
    """A permanent outage cutting ``victim`` off the fabric at ``start``.

    ``direction="both"`` kills every edge touching the victim (node
    death); ``"out"`` kills only its TX side (a one-way NIC failure —
    needs >= 3 nodes for the detector's probe round to attribute it).
    """
    outages = [LinkOutage(src=victim, dst=None, start=start, duration=None)]
    if direction == "both":
        outages.append(
            LinkOutage(src=None, dst=victim, start=start, duration=None)
        )
    return FaultPlan(faults=tuple(outages), retry_limit=retry_limit)


def _chaos_job(comm, count: int, algorithm: str):
    """One allreduce; returns a content hash of the result buffer."""
    base = np.arange(count, dtype=np.float32) + float(comm.rank)
    result = yield from comm.allreduce(
        DataPayload(base), SUM, algorithm=algorithm
    )
    return hashlib.sha256(result.array.tobytes()).hexdigest()[:16]


def _run_one(spec: dict, *, sanitize: bool) -> dict:
    """Execute one scenario and judge it against the contract."""
    config = cluster_b(spec["nodes"])
    nranks = spec["nodes"] * spec["ppn"]
    count = max(1, spec["nbytes"] // 4)
    # A fault-free probe run measures the job's span so the outage
    # start (a seeded fraction of it) actually lands mid-collective;
    # it doubles as the no-failure reference.
    probe = run_job(
        config, nranks, _chaos_job, ppn=spec["ppn"],
        sanitize=True if sanitize else None,
        args=(count, spec["algorithm"]),
    )
    start = spec["start_frac"] * float(probe.elapsed)
    plan = isolation_plan(spec["victim"], start, direction=spec["direction"])
    job_kwargs = dict(
        ppn=spec["ppn"], faults=plan, sanitize=True if sanitize else None,
        args=(count, spec["algorithm"]),
    )
    record = dict(spec)
    record["start"] = start
    mode = spec["mode"]

    if mode == "disabled":
        try:
            job = run_job(config, nranks, _chaos_job, **job_kwargs)
        except TransportError as err:
            record.update({
                "outcome": "typed-abort",
                "error": type(err).__name__,
                "edge": list(err.edge),
                "attempts": err.attempts,
                "sim_time": float(err.sim_time),
                "ok": True,
            })
        else:
            # The outage landed after the collective's last inter-node
            # message; completing with the fault-free result is within
            # contract, anything else is not.
            record.update({
                "outcome": "no-failure",
                "ok": job.values == probe.values,
            })
        return record

    policy = RecoveryPolicy(
        max_failovers=0 if mode == "exhausted" else 1,
        restart_latency=spec["restart_latency"],
    )
    record["policy"] = policy.policy_hash()

    if mode == "exhausted":
        try:
            run_job(config, nranks, _chaos_job, recovery=policy, **job_kwargs)
        except RecoveryError as err:
            record.update({
                "outcome": "unrecoverable",
                "error": type(err).__name__,
                "kind": err.kind,
                "ok": err.kind == "double-failover",
            })
        else:
            # The outage landed after the collective's inter-node
            # traffic; nothing failed, so nothing needed the budget.
            record.update({"outcome": "no-failure", "ok": True})
        return record

    # mode == "recover"
    job = run_job(config, nranks, _chaos_job, recovery=policy, **job_kwargs)
    resilience = job.counters["resilience"]
    failovers = resilience["failovers"]
    record.update({
        "outcome": "recovered" if failovers else "no-failure",
        "elapsed": float(job.elapsed),
        "failovers": [f["node"] for f in failovers],
        "dead_nodes": resilience["dead_nodes"],
        "fallbacks": resilience["fallbacks"],
        "values": job.values,
    })
    if not failovers:
        # The outage never bit; the contract degenerates to matching
        # the fault-free probe run.
        record["ok"] = job.values == probe.values
        return record
    boundary = failovers[0]["boundary"]
    record["boundary"] = boundary
    if boundary == 0:
        # The collective was cut mid-flight: survivors re-ran it on the
        # shrunk world, so their buffers must match a survivor-only
        # reference (same machine, victim pinned dead from t=0, no
        # faults injected).
        reference = run_job(
            config, nranks, _chaos_job, ppn=spec["ppn"],
            sanitize=True if sanitize else None,
            recovery=RecoveryManager(
                policy, pin_failed_nodes=resilience["dead_nodes"]
            ),
            args=(count, spec["algorithm"]),
        )
        record["reference_values"] = reference.values
        record["ok"] = job.values == reference.values
    else:
        # Every survivor had already completed the collective when the
        # failure surfaced; its replayed result stays valid (ULFM
        # semantics: completed collectives keep their results), so
        # survivors must match the fault-free probe rank-for-rank.
        record["outcome"] = "recovered-replay"
        record["ok"] = any(v is not None for v in job.values) and all(
            v is None or v == probe.values[r]
            for r, v in enumerate(job.values)
        )
    return record


def soak(
    *,
    seed: int = 0,
    scenarios: int = 6,
    nodes: int = 3,
    ppn: int = 2,
    nbytes: int = 1024,
    restart_latency: float = 5e-4,
    sanitize: bool = False,
) -> dict:
    """Run a seeded scenario batch; returns the JSON-ready record.

    Deterministic: the same arguments always produce the same record
    (canonicalise with :func:`canonical_json` for byte-for-byte CI
    diffs).
    """
    if nodes < 2:
        raise ValueError("soak needs at least 2 nodes (inter-node outages)")
    rng = np.random.default_rng(seed)
    results = []
    for i in range(scenarios):
        victim = int(rng.integers(0, nodes))
        start_frac = float(rng.uniform(0.0, 0.9))
        algorithm = ALGORITHMS[int(rng.integers(0, len(ALGORITHMS)))]
        direction = "out" if nodes >= 3 and i % 4 == 3 else "both"
        spec = {
            "scenario": i,
            "mode": MODES[i % len(MODES)],
            "victim": victim,
            "start_frac": start_frac,
            "direction": direction,
            "algorithm": algorithm,
            "nodes": nodes,
            "ppn": ppn,
            "nbytes": nbytes,
            "restart_latency": restart_latency,
        }
        results.append(_run_one(spec, sanitize=sanitize))
    summary = {
        "total": len(results),
        "ok": sum(1 for r in results if r["ok"]),
        "failures": sum(1 for r in results if not r["ok"]),
        "outcomes": {
            outcome: sum(1 for r in results if r["outcome"] == outcome)
            for outcome in sorted({r["outcome"] for r in results})
        },
    }
    return {
        "seed": seed,
        "nodes": nodes,
        "ppn": ppn,
        "nbytes": nbytes,
        "sanitized": bool(sanitize),
        "scenarios": results,
        "summary": summary,
    }


def canonical_json(record: dict) -> str:
    """Sorted-keys JSON with a trailing newline (CI byte-diff format)."""
    # indent=2, not repro.canonical: benchmarks/e2e hashes these bytes.
    return json.dumps(record, sort_keys=True, indent=2) + "\n"
