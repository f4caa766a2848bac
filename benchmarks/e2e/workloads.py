"""The four end-to-end workloads: what one pass runs and how it is checked.

Constructing a workload is its set-up (the part ``setup_s`` times):
import ``repro`` and build every ``SimSession``/``SharedFabric`` it
reuses.  :meth:`Workload.prepare` then computes reference outputs that
the timed operations are checked against, and :meth:`Workload.ops` lists
the operations of one pass.  Each operation calls one public ``repro``
API and returns an :class:`Outcome`: a deterministic output (digested,
and compared pass to pass), the per-layer counts it produced, and the
reason it failed a correctness check, if it did.

Every input is drawn from the ``seed`` the workload was built with;
``figures`` and ``scale`` measure fixed paper points and draw nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.bench.spec import SamplePoint
from repro.check.oracle import check_allreduce
from repro.core.model import CostModel
from repro.machine.clusters import get_cluster, scaled_cluster
from repro.machine.fattree import FatTreeConfig
from repro.mpi.collectives.registry import available_algorithms
from repro.mpi.runtime import SimSession
from repro.payload.payload import payload_counters
from repro.resilience.soak import canonical_json as soak_json
from repro.resilience.soak import soak
from repro.traffic.fabric import SharedFabric
from repro.traffic.runner import run_traffic
from repro.traffic.workload import poisson_trace

__all__ = [
    "Outcome", "Op", "Workload", "WORKLOADS", "build", "aggregate", "canonical",
]


@dataclass
class Outcome:
    """What one operation produced."""

    out: object  #: deterministic output, JSON-ready
    counters: dict = field(default_factory=dict)  #: per-layer counts
    error: Optional[str] = None  #: why a correctness check failed


@dataclass(frozen=True)
class Op:
    """One operation type of a pass."""

    key: str
    ranks: int  #: simulated ranks the operation runs
    call: Callable[[], Outcome]


#: How per-operation counters combine into per-pass counters (sum
#: unless listed).
_COMBINE = {
    "check.oracle_ratio_max": max,
    "core.model_ratio": statistics.median,
}


def aggregate(per_op: list[dict]) -> dict:
    """Per-pass counters from the per-operation counters of one pass."""
    values: dict[str, list] = {}
    for counters in per_op:
        for name, value in counters.items():
            values.setdefault(name, []).append(value)
    return {
        name: _COMBINE.get(name, sum)(vals) for name, vals in values.items()
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _payload_delta(before: dict) -> dict:
    after = payload_counters()
    return {f"payload.{k}": after[k] - before[k] for k in before}


def _sim_counters(sim) -> dict:
    return {f"sim.{k}": v for k, v in sim.counters().items()}


class Workload:
    """Base: one closed-loop client running :meth:`ops` back to back."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Compute reference outputs (not part of set-up time)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def set_tracing(self, enabled: bool) -> None:
        """Switch the machine-layer ``Tracer`` of reused sessions."""

    def shape_errors(self, outs: dict) -> list[str]:
        """Paper-shape violations in one pass's outputs (``key -> out``)."""
        return []


class _PointWorkload(Workload):
    """Sample points on reused per-layout sessions."""

    fidelity = "exact"
    points: dict[str, SamplePoint] = {}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sessions: dict = {}
        for point in self.points.values():
            if point.session_key not in self.sessions:
                self.sessions[point.session_key] = SimSession(
                    point.config(), point.nranks, point.ppn,
                    fidelity=self.fidelity,
                )

    def prepare(self) -> None:
        # Closed-form predictions; None for designs the model omits.
        self.predicted = {
            key: CostModel.from_machine(
                point.config(), point.nbytes
            ).predict_allreduce(
                point.algorithm, p=point.nranks, h=point.nodes,
                n=point.nbytes, l=point.leaders,
            )
            for key, point in self.points.items()
        }

    def ops(self) -> list[Op]:
        return [
            Op(key, point.nranks, lambda key=key: self._run(key))
            for key, point in self.points.items()
        ]

    def set_tracing(self, enabled: bool) -> None:
        for session in self.sessions.values():
            session.machine.tracer.enabled = enabled

    def _run(self, key: str) -> Outcome:
        point = self.points[key]
        session = self.sessions[point.session_key]
        before = payload_counters()
        latency = point.run(session=session)
        sim = _sim_counters(session.machine.sim)
        tracer = session.machine.tracer
        counters = {
            **sim,
            **_payload_delta(before),
            "machine.net_sends": tracer.count("net-send"),
            "machine.shm_copies": tracer.count("copy"),
            "machine.compute_calls": tracer.count("compute"),
        }
        if self.predicted[key]:
            counters["core.model_ratio"] = latency / self.predicted[key]
        out = {
            "latency": latency,
            # pool-independent kernel counts: a pure function of the run
            "heap_pops": sim["sim.heap_pops"],
            "nowq_entries": sim["sim.nowq_entries"],
            "macro_events": sim["sim.macro_events"],
        }
        return Outcome(out, counters, self._check(point, latency, sim))

    def _check(self, point, latency, sim) -> Optional[str]:
        if not latency > 0.0:
            return f"non-positive latency {latency!r}"
        return None


def _fig(cluster: str, algorithm: str, nbytes: int, leaders=None) -> SamplePoint:
    # The reduced figure scale: 16 nodes x 28 ranks = 448 ranks.
    return SamplePoint(cluster, 16, 28, algorithm, nbytes, leaders=leaders)


class Figures(_PointWorkload):
    """Figure regeneration: fig5 leaders, fig9b libraries, fig8 SHArP."""

    name = "figures"
    points = {
        **{
            f"fig5-dpml-{nbytes // 1024}k-l{leaders}": _fig(
                "b", "dpml", nbytes, leaders
            )
            for nbytes in (4096, 524288)
            for leaders in (1, 4, 16)
        },
        "fig9b-mvapich2-64k": _fig("b", "mvapich2", 65536),
        "fig9b-dpml_tuned-64k": _fig("b", "dpml_tuned", 65536),
        "fig8-mvapich2-64": _fig("a", "mvapich2", 64),
        "fig8-sharp_node_leader-64": _fig("a", "sharp_node_leader", 64),
        "fig8-sharp_socket_leader-64": _fig("a", "sharp_socket_leader", 64),
    }
    #: (faster, slower, minimum speed-up) — the reproduced paper shapes:
    #: more leaders win at 512 KiB, DPML beats MVAPICH2 at 64 KiB, and
    #: both SHArP designs beat MVAPICH2 at 64 B.
    shapes = (
        ("fig5-dpml-512k-l16", "fig5-dpml-512k-l1", 3.0),
        ("fig9b-dpml_tuned-64k", "fig9b-mvapich2-64k", 3.0),
        ("fig8-sharp_node_leader-64", "fig8-mvapich2-64", 1.5),
        ("fig8-sharp_socket_leader-64", "fig8-mvapich2-64", 1.5),
    )

    def shape_errors(self, outs: dict) -> list[str]:
        errors = []
        for fast, slow, ratio in self.shapes:
            got = outs[slow]["latency"] / outs[fast]["latency"]
            if got < ratio:
                errors.append(f"{fast} only {got:.2f}x faster than {slow}")
        return errors


def _scale(nodes: int, algorithm: str, nbytes: int) -> SamplePoint:
    # Scaled cluster B, 8 ranks per node, one warm-up + one timed call:
    # with the barrier that is three macro-charged collectives.
    return SamplePoint(
        scaled_cluster("b", nodes), nodes, 8, algorithm, nbytes,
        iterations=1, fidelity="hybrid",
    )


class Scale(_PointWorkload):
    """Hybrid fidelity at 10k and 20k ranks."""

    name = "scale"
    fidelity = "hybrid"
    points = {
        "scale-dpml-10k-4k": _scale(1250, "dpml", 4096),
        "scale-dpml_pipelined-20k-64k": _scale(2500, "dpml_pipelined", 65536),
    }
    #: warm-up + timed allreduce + barrier, each one macro-event
    min_macro_events = 3

    def _check(self, point, latency, sim) -> Optional[str]:
        if sim["sim.macro_events"] < self.min_macro_events:
            return (
                f"macro_events {sim['sim.macro_events']} < "
                f"{self.min_macro_events}: collectives were not macro-charged"
            )
        return super()._check(point, latency, sim)


class Tenants(Workload):
    """Poisson tenant streams on one reused fat-tree fabric."""

    name = "tenants"
    #: distinct traces per pass; more traces average out how much work
    #: one seed's app draw happens to contain
    n_traces = 4
    placement = "spread"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = dataclasses.replace(
            get_cluster("a", 16),
            topology=FatTreeConfig(nodes_per_leaf=4, spines=2),
        )
        self.fabric = SharedFabric(self.config)
        rng = random.Random(seed)
        self.traces = {
            f"trace{i}": poisson_trace(
                jobs=32, rate=2e4, seed=rng.randrange(2**31)
            )
            for i in range(self.n_traces)
        }
        self.reference: dict[str, str] = {}

    def prepare(self) -> None:
        # The determinism contract: a reused fabric replays each trace
        # byte-identically to a run on a freshly built one.
        for key, trace in self.traces.items():
            fresh = run_traffic(trace, config=self.config, placement=self.placement)
            self.reference[key] = fresh.to_canonical_json()

    def ops(self) -> list[Op]:
        return [
            Op(key, sum(job.nranks for job in trace.jobs),
               lambda key=key: self._run(key))
            for key, trace in self.traces.items()
        ]

    def _run(self, key: str) -> Outcome:
        before = payload_counters()
        result = run_traffic(
            self.traces[key], fabric=self.fabric, placement=self.placement
        )
        text = result.to_canonical_json()
        counters = {
            **_sim_counters(self.fabric.sim),
            **_payload_delta(before),
            "traffic.scrape_samples": len(result.series),
            "traffic.queue_wait_sim_s": sum(j.queue_wait for j in result.jobs),
            "traffic.sim_elapsed_s": result.elapsed,
        }
        error = None
        if text != self.reference[key]:
            error = "reused-fabric TrafficResult differs from the fresh-fabric run"
        return Outcome(_sha(text), counters, error)


class Verified(Workload):
    """Every registered allreduce under the oracle, plus a chaos soak."""

    name = "verified"
    nodes, ppn, count = 4, 8, 8192
    soak_scenarios = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = get_cluster("a", self.nodes)
        self.algorithms = available_algorithms()  # populates the registry
        rng = random.Random(seed)
        self.seeds = {alg: rng.randrange(2**31) for alg in self.algorithms}
        self.soak_seed = rng.randrange(2**31)

    def ops(self) -> list[Op]:
        nranks = self.nodes * self.ppn
        ops = [
            Op(f"check-{alg}", nranks, lambda alg=alg: self._oracle(alg))
            for alg in self.algorithms
        ]
        # soak() runs 3-node x 2-ppn jobs, one to three per scenario;
        # count one job per scenario.
        ops.append(Op("soak", self.soak_scenarios * 3 * 2, self._soak))
        return ops

    def _oracle(self, algorithm: str) -> Outcome:
        before = payload_counters()
        outcome = check_allreduce(
            self.config, algorithm, nranks=self.nodes * self.ppn,
            ppn=self.ppn, count=self.count, seed=self.seeds[algorithm],
        )
        counters = {
            **_payload_delta(before),
            "check.sanitizer_reports": len(outcome.reports),
            "check.oracle_ratio_max": outcome.ratio or 0.0,
        }
        error = None
        if not outcome.ok:
            kinds = sorted({report.kind for report in outcome.reports})
            error = f"oracle reports {kinds}"
        out = {"elapsed": outcome.elapsed, "ratio": outcome.ratio}
        return Outcome(out, counters, error)

    def _soak(self) -> Outcome:
        before = payload_counters()
        record = soak(
            seed=self.soak_seed, scenarios=self.soak_scenarios, sanitize=True
        )
        summary = record["summary"]
        outcomes = summary["outcomes"]
        counters = {
            **_payload_delta(before),
            "resilience.recovered": outcomes.get("recovered", 0)
            + outcomes.get("recovered-replay", 0),
            "resilience.typed_aborts": outcomes.get("typed-abort", 0)
            + outcomes.get("unrecoverable", 0),
        }
        error = None
        if summary["failures"]:
            error = f"{summary['failures']} soak scenario(s) broke the contract"
        return Outcome(_sha(soak_json(record)), counters, error)


WORKLOADS = {cls.name: cls for cls in (Figures, Scale, Tenants, Verified)}


def build(name: str, seed: int) -> Workload:
    """Set up workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed)


def canonical(obj) -> str:
    """Canonical JSON used for digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
