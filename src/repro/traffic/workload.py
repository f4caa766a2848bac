"""Declarative job-arrival traces: multi-tenant workloads as data.

A :class:`TrafficTrace` is to :mod:`repro.traffic` what a
:class:`~repro.faults.plan.FaultPlan` is to :mod:`repro.faults`: a
typed, ordered, JSON round-trippable description of *what happens* —
here, a stream of jobs arriving on a shared cluster — that together
with a seed replays bit-identically.  Each :class:`JobSpec` names an
application kind from the :mod:`repro.apps` mixes, a node/ppn shape, a
message size, an allreduce algorithm, and an iteration count (the job's
duration is whatever the simulation says it is under contention).

Randomness enters only in :func:`poisson_trace`, which realises
exponential inter-arrivals and weighted app-mix draws from one seeded
``numpy`` generator — the resulting trace is plain data, so replaying
it (or shipping the JSON to a colleague) needs no RNG at all.

The per-app rank kernels (:func:`job_rank_fn`) are deliberately small
caricatures of the apps they are named for: OSU's timed allreduce loop,
SGD's compute + bucketed gradient exchange, HPCG's tiny-DDOT-dominated
iterations, miniAMR's refinement-driven growing payloads.  Each records
a per-collective latency sample into the job's meter on rank 0, which
is what the metering layer's percentiles are computed over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Generator, Optional

import numpy as np

from repro import canonical
from repro.errors import TrafficError
from repro.payload import SUM, make_payload

__all__ = [
    "APP_KINDS",
    "JobSpec",
    "TrafficTrace",
    "default_mix",
    "poisson_trace",
    "job_rank_fn",
]

#: Closed application-kind vocabulary (the ``repro.apps`` mixes).
APP_KINDS = ("osu", "sgd", "hpcg", "miniamr")


@dataclass(frozen=True)
class JobSpec:
    """One tenant job: an app-shaped collective workload on ``nodes``."""

    kind: ClassVar[str] = "job"

    app: str
    arrival: float
    nodes: int
    ppn: int
    nbytes: int = 65536
    iterations: int = 4
    algorithm: Optional[str] = "dpml"
    leaders: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.app not in APP_KINDS:
            raise TrafficError(
                f"job: unknown app {self.app!r}; choose from {APP_KINDS}"
            )
        if self.arrival < 0:
            raise TrafficError(
                f"job: arrival must be non-negative, got {self.arrival}"
            )
        if self.nodes < 1:
            raise TrafficError(f"job: nodes must be >= 1, got {self.nodes}")
        if self.ppn < 1:
            raise TrafficError(f"job: ppn must be >= 1, got {self.ppn}")
        if self.nbytes < 4:
            raise TrafficError(f"job: nbytes must be >= 4, got {self.nbytes}")
        if self.iterations < 1:
            raise TrafficError(
                f"job: iterations must be >= 1, got {self.iterations}"
            )
        if self.leaders is not None and self.leaders < 1:
            raise TrafficError(
                f"job: leaders must be >= 1, got {self.leaders}"
            )

    @property
    def nranks(self) -> int:
        return self.nodes * self.ppn

    def label(self, index: int) -> str:
        base = self.name or self.app
        return f"{base}#{index}"

    def describe(self) -> str:
        lead = f", leaders={self.leaders}" if self.leaders is not None else ""
        alg = self.algorithm or "selector"
        return (
            f"{self.app}: t={self.arrival:g}s, {self.nodes}x{self.ppn} ranks, "
            f"{self.nbytes}B x {self.iterations} iter via {alg}{lead}"
        )


def _job_to_dict(job: JobSpec) -> dict:
    out: dict[str, Any] = {}
    for f in fields(job):
        out[f.name] = getattr(job, f.name)
    return out


def _job_from_dict(data: dict) -> JobSpec:
    if not isinstance(data, dict):
        raise TrafficError(
            f"trace job entry must be an object, got {type(data).__name__}"
        )
    known = {f.name for f in fields(JobSpec)}
    unknown = set(data) - known
    if unknown:
        raise TrafficError(
            f"trace job has unknown field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    try:
        return JobSpec(**data)
    except TypeError as e:
        raise TrafficError(f"trace job: {e}") from None


@dataclass(frozen=True)
class TrafficTrace(canonical.JsonRecord):
    """A typed, time-ordered stream of tenant jobs (pure data).

    Frozen, hashable, JSON round-trippable (:meth:`to_dict` /
    :meth:`from_dict`), with a stable content hash
    (:meth:`trace_hash`) — equal traces schedule the same jobs.  Jobs
    must be sorted by arrival time; the scheduler admits them in order
    and queues FIFO when the fabric lacks free nodes.
    """

    jobs: tuple[JobSpec, ...] = field(default_factory=tuple)

    noun = "traffic trace"
    error = TrafficError

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        for job in self.jobs:
            if not isinstance(job, JobSpec):
                raise TrafficError(f"not a job spec: {job!r}")
        arrivals = [job.arrival for job in self.jobs]
        if arrivals != sorted(arrivals):
            raise TrafficError(
                "trace jobs must be sorted by non-decreasing arrival time"
            )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    @property
    def is_empty(self) -> bool:
        return not self.jobs

    def max_nodes(self) -> int:
        """Widest single job (the fabric must be at least this wide)."""
        return max((job.nodes for job in self.jobs), default=0)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"traffic trace {self.trace_hash()}: {len(self.jobs)} job(s), "
            f"widest {self.max_nodes()} node(s)"
        ]
        lines.extend(
            f"  - [{job.label(i)}] {job.describe()}"
            for i, job in enumerate(self.jobs)
        )
        return "\n".join(lines)

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict (the trace schema)."""
        return {"jobs": [_job_to_dict(job) for job in self.jobs]}

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficTrace":
        """Inverse of :meth:`to_dict`; validates the whole schema."""
        if not isinstance(data, dict):
            raise TrafficError(
                f"traffic trace must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"jobs"}
        if unknown:
            raise TrafficError(
                f"traffic trace has unknown field(s) {sorted(unknown)}"
            )
        raw = data.get("jobs", [])
        if not isinstance(raw, (list, tuple)):
            raise TrafficError("traffic trace 'jobs' must be a list")
        return cls(jobs=tuple(_job_from_dict(entry) for entry in raw))

    def trace_hash(self) -> str:
        """Stable content hash: equal traces schedule the same jobs."""
        return canonical.sha256(self.to_dict())[:12]


# -- the Poisson generator ---------------------------------------------------


def default_mix() -> tuple[dict, ...]:
    """The stock four-app tenant mix (equal weights, paper-ish shapes)."""
    return (
        {"app": "osu", "nodes": 2, "ppn": 4, "nbytes": 65536, "iterations": 4},
        {"app": "sgd", "nodes": 2, "ppn": 4, "nbytes": 262144, "iterations": 2},
        {"app": "hpcg", "nodes": 2, "ppn": 4, "nbytes": 32768, "iterations": 3},
        {"app": "miniamr", "nodes": 2, "ppn": 4, "nbytes": 131072,
         "iterations": 3},
    )


def poisson_trace(
    *,
    jobs: int,
    rate: float,
    seed: int = 0,
    mix: Optional[tuple] = None,
) -> TrafficTrace:
    """Realise a Poisson arrival process over a weighted app mix.

    ``rate`` is the arrival rate in jobs per simulated second;
    inter-arrival gaps are exponential with mean ``1/rate``.  ``mix``
    is a sequence of job-template dicts (the :class:`JobSpec` fields
    minus ``arrival``, plus an optional ``weight``, default 1).  Every
    stochastic draw — gaps first, then template choices — comes from
    one ``numpy`` generator seeded with ``seed``, so ``(jobs, rate,
    seed, mix)`` always yields the same trace.  Arrivals are rounded to
    nanoseconds to keep the JSON readable without hurting replay.
    """
    if jobs < 1:
        raise TrafficError(f"poisson trace: jobs must be >= 1, got {jobs}")
    if rate <= 0:
        raise TrafficError(f"poisson trace: rate must be positive, got {rate}")
    templates = list(mix if mix is not None else default_mix())
    if not templates:
        raise TrafficError("poisson trace: the app mix is empty")
    weights = []
    cleaned = []
    for entry in templates:
        if not isinstance(entry, dict):
            raise TrafficError(
                f"poisson trace: mix entries must be dicts, got {entry!r}"
            )
        entry = dict(entry)
        weight = entry.pop("weight", 1.0)
        if weight <= 0:
            raise TrafficError(
                f"poisson trace: mix weight must be positive, got {weight}"
            )
        entry.pop("arrival", None)
        weights.append(float(weight))
        cleaned.append(entry)
    total = sum(weights)
    probs = [w / total for w in weights]
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=jobs)
    choices = rng.choice(len(cleaned), size=jobs, p=probs)
    arrivals = np.cumsum(gaps)
    out = []
    for i in range(jobs):
        template = cleaned[int(choices[i])]
        out.append(
            _job_from_dict(
                {"arrival": round(float(arrivals[i]), 9), **template}
            )
        )
    return TrafficTrace(jobs=tuple(out))


# -- per-app rank kernels ----------------------------------------------------


def _payload(nbytes: int):
    """Symbolic payload of ``nbytes`` (float32 elements, min 1)."""
    return make_payload(max(1, nbytes // 4), 4, symbolic=True)


def _timed_allreduce(comm, meter, job: JobSpec, nbytes: int) -> Generator:
    """One allreduce, its latency sampled into the job meter by rank 0."""
    kwargs = {} if job.leaders is None else {"leaders": job.leaders}
    t0 = comm.now
    yield from comm.allreduce(
        _payload(nbytes), SUM, algorithm=job.algorithm, **kwargs
    )
    if comm.rank == 0 and meter is not None:
        meter.record(comm.now, comm.now - t0)


def _osu_fn(comm, meter, job: JobSpec) -> Generator:
    """OSU-style timed loop: back-to-back allreduces of one size."""
    for _ in range(job.iterations):
        yield from _timed_allreduce(comm, meter, job, job.nbytes)
    return comm.now


def _sgd_fn(comm, meter, job: JobSpec) -> Generator:
    """Data-parallel SGD step: gradient compute, two bucketed exchanges."""
    machine = comm.machine
    bucket = max(4, job.nbytes // 2)
    for _ in range(job.iterations):
        yield machine.compute(comm.world_rank, job.nbytes, combines=1)
        yield from _timed_allreduce(comm, meter, job, bucket)
        yield from _timed_allreduce(comm, meter, job, bucket)
    return comm.now


def _hpcg_fn(comm, meter, job: JobSpec) -> Generator:
    """HPCG-flavoured iteration: local SpMV compute, two tiny DDOTs."""
    machine = comm.machine
    for _ in range(job.iterations):
        yield machine.compute(comm.world_rank, job.nbytes, combines=1)
        yield from _timed_allreduce(comm, meter, job, 8)
        yield from _timed_allreduce(comm, meter, job, 8)
    return comm.now


def _miniamr_fn(comm, meter, job: JobSpec) -> Generator:
    """miniAMR-flavoured refinement: payload grows step over step."""
    for step in range(job.iterations):
        nbytes = max(4, job.nbytes * (step + 1) // job.iterations)
        yield from _timed_allreduce(comm, meter, job, nbytes)
    return comm.now


_APP_FNS = {
    "osu": _osu_fn,
    "sgd": _sgd_fn,
    "hpcg": _hpcg_fn,
    "miniamr": _miniamr_fn,
}


def job_rank_fn(job: JobSpec):
    """The per-rank generator function for one job's app kind."""
    return _APP_FNS[job.app]
