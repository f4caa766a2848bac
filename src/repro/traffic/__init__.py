"""Multi-tenant traffic: concurrent jobs contending on one shared fabric.

Every other entry point in this repo runs one MPI job on an idle
cluster.  Production MPI deployments — the setting that motivates the
paper's DPML design — run *many* allreduce-heavy jobs at once, and their
traffic contends on the same fat-tree links and SHArP reduction trees.
This package makes that scenario a first-class, reproducible input:

* :mod:`repro.traffic.workload` — declarative job-arrival traces
  (:class:`~repro.traffic.workload.TrafficTrace`): a typed stream of
  jobs of four app kinds (OSU, SGD, HPCG, miniAMR), each a small rank
  kernel, with per-job size/algorithm/duration, JSON round-trippable
  with a content hash, plus a seeded Poisson generator;
* :mod:`repro.traffic.placement` — per-job placement policies mapping
  each arriving job onto a disjoint node set (``packed`` / ``spread`` /
  ``random`` / ``leader-aware``);
* :mod:`repro.traffic.fabric` — the shared substrate: one
  :class:`~repro.traffic.fabric.SharedFabric` (simulator + per-node
  NIC/memory queues + fat tree + SHArP) hosting one
  :class:`~repro.machine.machine.Machine` per job, placed on its nodes;
* :mod:`repro.traffic.scheduler` — arrival-driven admission, FIFO
  backlog, concurrent :class:`~repro.mpi.runtime.Runtime` launches into
  the one shared simulator;
* :mod:`repro.traffic.metering` — a periodic scraper process sampling
  link utilisation, queue depths, matcher occupancy, and per-job
  latency percentiles *during* the run, emitting a canonical
  time-series :class:`~repro.traffic.metering.TrafficResult`;
* :mod:`repro.traffic.runner` — :func:`~repro.traffic.runner.run_traffic`
  gluing the above together, with session-style fabric reuse.

Determinism contract: ``(trace, seed, placement)`` replays
bit-identically — fresh fabric or reused one — and the canonical
:class:`~repro.traffic.metering.TrafficResult` JSON is byte-stable (the
CI ``traffic-smoke`` job ``cmp``'s two sanitized runs).
"""

from repro.traffic.fabric import SharedFabric
from repro.traffic.metering import Scraper, TrafficResult
from repro.traffic.placement import PLACEMENT_POLICIES
from repro.traffic.runner import run_traffic
from repro.traffic.scheduler import JobRecord, TrafficScheduler
from repro.traffic.workload import (
    APP_KINDS,
    JobSpec,
    TrafficTrace,
    default_mix,
    poisson_trace,
)

__all__ = [
    "APP_KINDS",
    "JobSpec",
    "TrafficTrace",
    "default_mix",
    "poisson_trace",
    "PLACEMENT_POLICIES",
    "SharedFabric",
    "TrafficScheduler",
    "JobRecord",
    "Scraper",
    "TrafficResult",
    "run_traffic",
]
