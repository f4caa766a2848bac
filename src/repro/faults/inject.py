"""Realising a :class:`~repro.faults.plan.FaultPlan` for one job layout.

The plan is layout-independent data; the :class:`FaultInjector` binds it
to a concrete ``(nranks, rank -> node)`` placement and a realisation
seed.  All stochastic quantities (``random``/``exponential`` arrival
delays) are drawn once, eagerly, from a single ``numpy`` generator in
plan order — so a ``(plan, seed)`` pair always yields the same
schedule, and :meth:`reset` restores it exactly for session reuse.

The injector is consulted from three hot layers and therefore keeps
cheap pre-computed flags (``has_compute_faults`` etc.) so an injector
carrying, say, only arrival skew adds nothing to the compute or
transport paths:

* :class:`~repro.machine.machine.Machine` multiplies compute/copy
  service times by :meth:`compute_factor` / :meth:`copy_factor`;
* :class:`~repro.mpi.transport.Transport` scales wire latency and chunk
  service by :meth:`link_factors` and spins on
  :meth:`link_blocked_until` with the plan's capped exponential
  backoff, counting retries per rank;
* :class:`~repro.mpi.runtime.Runtime` delays each rank generator's
  start by :meth:`arrival_delay`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import FaultError
from repro.faults.plan import (
    ArrivalSkew,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    NodeSlowdown,
    Straggler,
    _window_end,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """A :class:`FaultPlan` realised for one concrete job layout.

    Parameters
    ----------
    plan:
        The declarative fault plan.
    nranks:
        Ranks in the job (arrival delays and counters are per rank).
    node_of:
        Maps a rank to its node index (fault windows referencing nodes
        and edges live in node space).
    seed:
        Realisation seed for the stochastic arrival patterns.  The same
        ``(plan, seed)`` always realises the same schedule.
    nodes_total:
        Size of the node namespace the plan's node/edge indices live in.
        Defaults to the job's own node span (the classic whole-machine
        case).  Multi-tenant runs (:mod:`repro.traffic`) pass the shared
        fabric's node count, because a tenant's node set is a sparse
        subset — a fabric-wide plan may legitimately name nodes the
        tenant never touches.
    """

    def __init__(
        self,
        plan: FaultPlan,
        nranks: int,
        node_of: Callable[[int], int],
        seed: int = 0,
        *,
        nodes_total: Optional[int] = None,
    ):
        if nranks <= 0:
            raise FaultError(f"nranks must be positive, got {nranks}")
        max_rank = plan.max_rank_referenced()
        if max_rank is not None and max_rank >= nranks:
            raise FaultError(
                f"fault plan references rank {max_rank} but the job has "
                f"only {nranks} rank(s)"
            )
        self.plan = plan
        self.nranks = nranks
        self.seed = seed
        self._node_of = [node_of(r) for r in range(nranks)]
        max_node = plan.max_node_referenced()
        node_limit = (
            max(self._node_of) if nodes_total is None else nodes_total - 1
        )
        if max_node is not None and max_node > node_limit:
            raise FaultError(
                f"fault plan references node {max_node} but the job uses "
                f"only nodes 0..{node_limit}"
            )

        # Static windows (realisation-seed independent).
        self._stragglers: list[Straggler] = [
            f for f in plan if isinstance(f, Straggler)
        ]
        self._node_slowdowns: list[NodeSlowdown] = [
            f for f in plan if isinstance(f, NodeSlowdown)
        ]
        self._degrades: list[LinkDegrade] = [
            f for f in plan if isinstance(f, LinkDegrade)
        ]
        self._outages: list[LinkOutage] = [
            f for f in plan if isinstance(f, LinkOutage)
        ]
        self._skews: list[ArrivalSkew] = [
            f for f in plan if isinstance(f, ArrivalSkew)
        ]

        # Fast-path flags: layers check one attribute before any work.
        self.has_compute_faults = bool(self._stragglers or self._node_slowdowns)
        self.has_copy_faults = bool(self._node_slowdowns)
        self.has_link_degrade = bool(self._degrades)
        self.has_link_outage = bool(self._outages)
        self.has_link_faults = self.has_link_degrade or self.has_link_outage
        self.has_arrival_skew = bool(self._skews)

        self._arrival_delays: list[float] = [0.0] * nranks
        self._retries: list[int] = [0] * nranks
        self._exhausted: list[int] = [0] * nranks
        # Per-edge breakdown, keyed (src_node, dst_node); entries appear
        # only when an edge actually retries, so plans that never hit an
        # outage keep the exact pre-existing counters() shape.
        self._edge_retries: dict[tuple[int, int], int] = {}
        self._edge_exhausted: dict[tuple[int, int], int] = {}
        self._realize()

    @classmethod
    def for_machine(
        cls, plan: FaultPlan, machine, seed: int = 0
    ) -> "FaultInjector":
        """Realise ``plan`` against a machine's placement.

        Node faults may name any node of the machine's fabric, so a job
        placed on a shared fabric sees the windows of nodes it does not
        use.
        """
        return cls(
            plan,
            machine.nranks,
            machine.node_of,
            seed=seed,
            nodes_total=machine.fabric.nodes,
        )

    # -- realisation ---------------------------------------------------------

    def _realize(self) -> None:
        """Draw every stochastic quantity from the seed, in plan order."""
        delays = [0.0] * self.nranks
        rng = np.random.default_rng(self.seed)
        for skew in self._skews:
            for rank, delay in enumerate(self._skew_delays(skew, rng)):
                delays[rank] += delay
        self._arrival_delays = delays

    def _skew_delays(
        self, skew: ArrivalSkew, rng: np.random.Generator
    ) -> list[float]:
        n, mag = self.nranks, skew.magnitude
        if mag == 0.0:
            return [0.0] * n
        if skew.pattern == "sorted":
            span = max(n - 1, 1)
            return [mag * r / span for r in range(n)]
        if skew.pattern == "reverse":
            span = max(n - 1, 1)
            return [mag * (n - 1 - r) / span for r in range(n)]
        if skew.pattern == "random":
            return [float(v) for v in rng.uniform(0.0, mag, size=n)]
        if skew.pattern == "exponential":
            return [float(v) for v in rng.exponential(scale=mag, size=n)]
        # "single": one late rank (default: the last).
        late = skew.rank if skew.rank is not None else n - 1
        return [mag if r == late else 0.0 for r in range(n)]

    def reset(self) -> None:
        """Re-realise from the seed and zero all fault counters.

        Called by :meth:`Machine.reset` so a reused
        :class:`~repro.mpi.runtime.SimSession` replays the injected
        schedule bit-identically to a fresh build.
        """
        self._retries = [0] * self.nranks
        self._exhausted = [0] * self.nranks
        self._edge_retries = {}
        self._edge_exhausted = {}
        self._realize()

    # -- per-rank arrival ----------------------------------------------------

    def arrival_delay(self, rank: int) -> float:
        """Start delay for ``rank`` (seconds; 0 for on-time ranks)."""
        return self._arrival_delays[rank]

    # -- compute/copy windows ------------------------------------------------

    def compute_factor(self, rank: int, now: float) -> float:
        """Slowdown multiplier for reduction compute on ``rank`` at ``now``."""
        factor = 1.0
        for f in self._stragglers:
            if f.rank == rank and f.start <= now < _window_end(f.start, f.duration):
                factor *= f.factor
        if self._node_slowdowns:
            factor *= self.copy_factor(rank, now)
        return factor

    def copy_factor(self, rank: int, now: float) -> float:
        """Slowdown multiplier for memory copies on ``rank`` at ``now``."""
        factor = 1.0
        node = self._node_of[rank]
        for f in self._node_slowdowns:
            if f.node == node and f.start <= now < _window_end(f.start, f.duration):
                factor *= f.factor
        return factor

    # -- link windows --------------------------------------------------------

    @staticmethod
    def _edge_matches(f, src_node: int, dst_node: int) -> bool:
        return (f.src is None or f.src == src_node) and (
            f.dst is None or f.dst == dst_node
        )

    def link_factors(
        self, src_node: int, dst_node: int, now: float
    ) -> tuple[float, float]:
        """Active ``(latency_factor, service_factor)`` for one edge."""
        lat = svc = 1.0
        for f in self._degrades:
            if self._edge_matches(f, src_node, dst_node) and (
                f.start <= now < _window_end(f.start, f.duration)
            ):
                lat *= f.latency_factor
                svc *= f.service_factor
        return lat, svc

    def link_blocked_until(
        self, src_node: int, dst_node: int, now: float
    ) -> Optional[float]:
        """When the edge next accepts traffic, or ``None`` if open now.

        Returns ``math.inf`` for a permanent outage (retries will
        exhaust), otherwise the latest end among active outage windows.
        """
        blocked: Optional[float] = None
        for f in self._outages:
            if self._edge_matches(f, src_node, dst_node) and f.start <= now < f.end:
                end = f.end
                if blocked is None or end > blocked:
                    blocked = end
        return blocked

    def outage_endpoints(self, now: float, min_age: float = 0.0) -> list[int]:
        """Named endpoints of outages active at ``now``, sorted.

        Only outages at least ``min_age`` old qualify (the resilience
        layer's heartbeat window); wildcard (``None``) endpoints are
        not named.
        """
        nodes: set[int] = set()
        for f in self._outages:
            if f.start <= now < f.end and now - f.start >= min_age:
                if f.src is not None:
                    nodes.add(f.src)
                if f.dst is not None:
                    nodes.add(f.dst)
        return sorted(nodes)

    # -- retry bookkeeping ---------------------------------------------------

    @property
    def retry_limit(self) -> int:
        return self.plan.retry_limit

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff before retry number ``attempt``."""
        return min(
            self.plan.backoff_cap, self.plan.backoff_base * (2.0 ** attempt)
        )

    def count_retry(
        self, rank: int, edge: Optional[tuple[int, int]] = None
    ) -> None:
        """One transport-level retry performed on behalf of ``rank``.

        ``edge`` optionally attributes the retry to the blocked
        ``(src_node, dst_node)`` edge for the per-edge breakdown.
        """
        self._retries[rank] += 1
        if edge is not None:
            self._edge_retries[edge] = self._edge_retries.get(edge, 0) + 1

    def count_exhausted(
        self, rank: int, edge: Optional[tuple[int, int]] = None
    ) -> None:
        """Retries exhausted for a send on behalf of ``rank``."""
        self._exhausted[rank] += 1
        if edge is not None:
            self._edge_exhausted[edge] = self._edge_exhausted.get(edge, 0) + 1

    def counters(self) -> dict:
        """Deterministic, JSON-ready snapshot for ``JobResult.counters``.

        The ``"edges"`` key (per-edge retry/exhaustion breakdown, keyed
        ``"src->dst"``) is present only when some edge actually
        retried — plans that never hit an outage keep the historical
        snapshot shape, so pre-existing golden comparisons and spec
        hashes are unaffected.
        """
        out = {
            "plan": self.plan.plan_hash(),
            "seed": self.seed,
            "retries": list(self._retries),
            "exhausted": list(self._exhausted),
            "arrival_delays": list(self._arrival_delays),
        }
        if self._edge_retries or self._edge_exhausted:
            edges: dict[str, dict] = {}
            for src, dst in sorted(
                set(self._edge_retries) | set(self._edge_exhausted)
            ):
                edges[f"{src}->{dst}"] = {
                    "retries": self._edge_retries.get((src, dst), 0),
                    "exhausted": self._edge_exhausted.get((src, dst), 0),
                }
            out["edges"] = edges
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector plan={self.plan.plan_hash()} "
            f"nranks={self.nranks} seed={self.seed}>"
        )
