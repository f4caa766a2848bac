"""Live metering: a scraper process sampling the fabric *during* the run.

End-of-job numbers hide exactly what multi-tenancy is about — the
transient: a burst of arrivals saturating one spine link for a few
hundred microseconds, a SHArP context pool briefly oversubscribed, one
tenant's p99 collapsing while its p50 barely moves.  The
:class:`Scraper` is a simulated monitoring agent: a process inside the
same discrete-event simulation that wakes every ``interval`` simulated
seconds and snapshots

* **link utilisation** — per fat-tree link ``served_time / now``
  (cumulative busy fraction), aggregated to max/mean plus the busiest
  link's name;
* **switch queue depths** — how far behind ``now`` each link and NIC
  queue's busy horizon is (instantaneous backlog, in seconds of work);
* **matcher occupancy** — posted receives + unexpected messages across
  every running tenant's matching engines;
* **SHArP context pressure** — contexts held / waiting, when the
  fabric has a tree;
* **per-job latency percentiles** — p50/p99 (nearest-rank,
  deterministic) over the collective-latency samples each job's rank 0
  recorded since the previous scrape.

Samples land in a canonical time-series inside :class:`TrafficResult`;
two runs of the same ``(trace, seed, placement)`` produce byte-identical
canonical JSON (the CI ``traffic-smoke`` job ``cmp``'s exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro import canonical
from repro.errors import TrafficError

__all__ = ["JobMeter", "Scraper", "TrafficResult", "percentile"]

#: Canonical result schema version.
TRAFFIC_SCHEMA = 1


def percentile(samples: list[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-int(pct * len(ordered)) // 100))  # ceil(pct*n/100)
    return ordered[min(rank, len(ordered)) - 1]


class JobMeter:
    """Per-job collective-latency samples, recorded by the job's rank 0."""

    __slots__ = ("samples", "_scraped")

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (t_end, latency)
        self._scraped = 0

    def record(self, t: float, latency: float) -> None:
        self.samples.append((t, latency))

    def window(self) -> list[float]:
        """Latencies recorded since the last scrape (consumes them)."""
        fresh = [lat for _, lat in self.samples[self._scraped:]]
        self._scraped = len(self.samples)
        return fresh

    def all_latencies(self) -> list[float]:
        return [lat for _, lat in self.samples]


class Scraper:
    """The periodic metering process on one shared fabric.

    Runs inside the simulation: :meth:`process` is a generator
    registered with the shared simulator that wakes every ``interval``
    simulated seconds (and once more at the instant the scheduler
    drains) and appends one sample dict to :attr:`samples`.
    """

    def __init__(self, fabric, scheduler, interval: float):
        if interval <= 0:
            raise TrafficError(
                f"scraper interval must be positive, got {interval}"
            )
        self.fabric = fabric
        self.scheduler = scheduler
        self.interval = interval
        self.samples: list[dict] = []

    def process(self) -> Generator:
        """Sample every ``interval`` until the scheduler drains."""
        sim = self.fabric.sim
        done = self.scheduler.done_event
        while True:
            tick = sim.timeout(self.interval)
            yield sim.any_of([tick, done])
            self._sample()
            if done.triggered:
                return

    # -- one snapshot --------------------------------------------------------

    def _sample(self) -> None:
        fabric = self.fabric
        sim = fabric.sim
        now = sim.now
        sample: dict = {
            "t": now,
            "jobs": dict(self.scheduler.occupancy()),
            "free_nodes": len(self.scheduler.free),
        }
        sample["links"] = self._link_stats(now)
        sample["nic"] = self._nic_stats(now)
        sample["matcher"] = self._matcher_stats()
        if fabric.sharp is not None:
            contexts = fabric.sharp.contexts
            sample["sharp"] = {
                "in_use": contexts.in_use,
                "waiting": contexts.n_waiting,
            }
        else:
            sample["sharp"] = None
        sample["tenants"] = self._tenant_stats()
        self.samples.append(sample)

    def _link_stats(self, now: float) -> Optional[dict]:
        tree = self.fabric.fabric_tree
        if tree is None:
            return None
        links = [q for row in (*tree.up, *tree.down) for q in row]
        utils = [q.utilization() for q in links]
        depth = sum(q.delay_until_free() for q in links)
        busiest = max(zip(utils, (q.name for q in links)), default=(0.0, ""))
        return {
            "n_links": len(links),
            "util_max": round(max(utils, default=0.0), 9),
            "util_mean": round(sum(utils) / len(utils), 9) if utils else 0.0,
            "busiest": busiest[1],
            "queue_depth_seconds": round(depth, 12),
        }

    def _nic_stats(self, now: float) -> dict:
        tx = self.fabric.nic_tx
        rx = self.fabric.nic_rx
        tx_utils = [q.utilization() for q in tx]
        rx_utils = [q.utilization() for q in rx]
        # Only built queues are iterated; the float start keeps the sum
        # a float before any is built, as on a fabric reused from a run.
        depth = sum(
            (q.delay_until_free() for q in (*tx, *rx, *self.fabric.mem)),
            0.0,
        )
        return {
            "tx_util_max": round(max(tx_utils, default=0.0), 9),
            "rx_util_max": round(max(rx_utils, default=0.0), 9),
            "queue_depth_seconds": round(depth, 12),
        }

    def _matcher_stats(self) -> dict:
        posted = unexpected = 0
        for record in self.scheduler.running_records():
            for matcher in record.runtime.transport.matchers:
                posted += matcher.n_posted
                unexpected += matcher.n_unexpected
        return {"posted": posted, "unexpected": unexpected}

    def _tenant_stats(self) -> dict:
        out: dict[str, dict] = {}
        for record in self.scheduler.running_records():
            window = record.meter.window()
            out[record.label] = {
                "n": len(window),
                "p50": percentile(window, 50),
                "p99": percentile(window, 99),
            }
        return out


@dataclass
class TrafficResult:
    """Canonical outcome of one multi-tenant traffic run.

    ``jobs`` holds one record per trace entry (see
    :class:`~repro.traffic.scheduler.JobRecord`), ``series`` the
    scraper's time-ordered samples.  Everything in :meth:`to_dict` is
    deterministic — :meth:`to_canonical_json` is the byte-stable form
    the determinism tests and the CI smoke job compare.
    """

    trace_hash: str
    cluster: str
    nodes: int
    leaves: int
    placement: str
    seed: int
    interval: float
    elapsed: float
    jobs: list = field(default_factory=list)
    series: list = field(default_factory=list)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def job(self, index: int):
        """The record of trace job ``index``."""
        return self.jobs[index]

    def to_dict(self) -> dict:
        return {
            "schema": TRAFFIC_SCHEMA,
            "suite": "repro.traffic",
            **canonical.fields_dict(self),
        }

    def to_canonical_json(self) -> str:
        """Byte-stable canonical JSON (sorted keys, no whitespace)."""
        return canonical.dumps(self.to_dict()) + "\n"

    def describe(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"traffic run {self.trace_hash} on {self.cluster!r} "
            f"({self.nodes} nodes, {self.leaves} leaves), "
            f"placement={self.placement}, seed={self.seed}: "
            f"{self.n_jobs} job(s), {len(self.series)} sample(s), "
            f"elapsed {self.elapsed:.6g}s"
        ]
        for record in self.jobs:
            lines.append(f"  - {record.describe()}")
        return "\n".join(lines)
