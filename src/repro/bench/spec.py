"""Declarative sweep specifications: experiments as data.

Every figure in the paper's evaluation is a sweep — message sizes x
leader counts x algorithms x noisy repeats on one cluster layout.  This
module expresses that as data instead of hand-rolled loops:

* :class:`SweepSpec` describes *what* to measure ("Fig. 5 = cluster B x
  sizes x leaders x repeats") and expands deterministically into
  :class:`SamplePoint` instances;
* :class:`SamplePoint` is one measurement — a frozen, picklable, pure
  function of its fields, which is what makes process fan-out safe
  (:mod:`repro.bench.executor`);
* :class:`SweepResult` is the single record every consumer reads: the
  figure regenerators, the EXPERIMENTS.md generator, and the CLI's
  ``run`` command (JSON in/out, spec hash, seed and timing metadata).
* :data:`SWEEPS` holds one :class:`NamedSweep` record per figure of
  the evaluation (and the ``families`` comparison): layout at paper and
  reduced scale, axes, table title and derived columns.
  :func:`named_sweep` builds its spec; the figure regenerators render
  its result.

Points sharing a ``session_key`` (cluster, nodes, ppn) can reuse one
:class:`~repro.mpi.runtime.SimSession`, so executors group by that key
and skip per-sample machine construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, Union

from repro import canonical
from repro.errors import ReproError
from repro.machine.clusters import get_cluster
from repro.machine.config import (
    FabricConfig,
    MachineConfig,
    NodeConfig,
    SharpConfig,
)
from repro.machine.fattree import FatTreeConfig
from repro.machine.noise import NoiseModel
from repro.faults.plan import FaultPlan

__all__ = [
    "PAPER_SIZES",
    "SMALL_SIZES",
    "SCALE_SIZES",
    "paper_scale",
    "SamplePoint",
    "SweepSpec",
    "PointResult",
    "SweepResult",
    "NamedSweep",
    "named_sweep",
    "SWEEPS",
    "resolve_config",
]

#: Message sizes (bytes) matching the paper's microbenchmark x-axes
#: (512KB included: it carries the Section 6.2 headline numbers).
PAPER_SIZES = (
    4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 524288, 1048576,
)

#: The small-message range of Figure 8.
SMALL_SIZES = (4, 16, 64, 256, 1024, 2048, 4096)

#: The large-scale comparison sizes of Figure 10.
SCALE_SIZES = (1024, 16384, 262144, 1048576)


def paper_scale() -> bool:
    """Whether to run at the paper's full process counts."""
    return os.environ.get("REPRO_PAPER_SCALE", "").lower() in ("1", "true", "yes")


#: A cluster is referenced either by preset name ("a".."d") or by an
#: inline MachineConfig (custom hardware).
ClusterRef = Union[str, MachineConfig]


def resolve_config(cluster: ClusterRef, nodes: int) -> MachineConfig:
    """Materialise a cluster reference at ``nodes`` nodes."""
    if isinstance(cluster, MachineConfig):
        return cluster if cluster.nodes == nodes else cluster.with_nodes(nodes)
    return get_cluster(cluster, nodes)


# -- (de)serialisation -------------------------------------------------------


def _part(cls, noun: str) -> Callable[[dict], Any]:
    """Decoder of one nested hardware config."""
    return lambda data: canonical.build(cls, data, ReproError, noun)


def _cluster_from_json(data) -> ClusterRef:
    if isinstance(data, str):
        return data
    return canonical.build(
        MachineConfig, data, ReproError, "cluster config",
        node=_part(NodeConfig, "node config"),
        fabric=_part(FabricConfig, "fabric config"),
        sharp=_part(SharpConfig, "sharp config"),
        topology=_part(FatTreeConfig, "topology config"),
    )


def _freeze(value):
    """``value`` with every nested list turned into a tuple (hashable)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _freeze_kwargs(kwargs) -> tuple[tuple[str, Any], ...]:
    """Normalise an extra-kwargs mapping/pair-sequence to a sorted tuple."""
    items = kwargs.items() if isinstance(kwargs, dict) else kwargs
    return tuple(sorted((str(k), _freeze(v)) for k, v in items))


class _SweepRecord(canonical.JsonRecord):
    """The JSON form :class:`SamplePoint` and :class:`SweepSpec` share."""

    error = ReproError

    def to_dict(self) -> dict:
        """JSON-ready dict.

        The ``faults`` and ``fidelity`` keys appear only when
        non-default, so exact-mode fault-free records serialise (and
        hash) exactly as they did before those subsystems existed, and
        EXPERIMENTS.md entries stay stable.
        """
        out = canonical.fields_dict(self)
        for name, default in (("faults", None), ("fidelity", "exact")):
            if out[name] == default:
                del out[name]
        return out

    @classmethod
    def from_dict(cls, data: dict):
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        return canonical.build(
            cls, data, cls.error, cls.noun,
            cluster=_cluster_from_json, faults=FaultPlan.from_dict,
        )


# -- one measurement ---------------------------------------------------------


@dataclass(frozen=True)
class SamplePoint(_SweepRecord):
    """One measurement: a pure, picklable function of its fields."""

    cluster: ClusterRef
    nodes: int
    ppn: int
    algorithm: Optional[str]
    nbytes: int
    iterations: int = 2
    warmup: int = 1
    leaders: Optional[int] = None
    repeat: int = 0
    sigma: float = 0.0
    seed: int = 0
    extra: tuple[tuple[str, Any], ...] = ()
    #: optional declarative fault plan; realised per run with this
    #: point's ``seed``, so repeats draw independent fault schedules
    faults: Optional[FaultPlan] = None
    #: collective execution fidelity (``"exact"`` | ``"hybrid"``);
    #: serialised and hashed only when non-default, like ``faults``
    fidelity: str = "exact"

    noun = "sample point"

    def __post_init__(self):
        object.__setattr__(self, "extra", _freeze_kwargs(self.extra))
        from repro.bench.harness import check_loop, check_sample
        from repro.mpi.collectives.registry import check_knobs

        # Checked here as well as at dispatch: a point with bad knobs is
        # rejected before it is simulated, stored or hashed.
        check_loop(self.iterations, self.warmup)
        check_sample((self.nbytes,), self.sigma)
        check_knobs(self.algorithm, self.nranks, self.ppn, self.alg_kwargs())

    @property
    def nranks(self) -> int:
        """Total ranks of the job."""
        return self.nodes * self.ppn

    @property
    def session_key(self) -> tuple:
        """Layout identity — points with equal keys can share a session.

        Fidelity joins only when non-default: hybrid and exact points
        must not share a session (the runtime's fidelity is fixed at
        construction), while exact-only workloads keep the historical
        3-tuple.
        """
        base = (self.cluster, self.nodes, self.ppn)
        if self.fidelity != "exact":
            return base + (self.fidelity,)
        return base

    def config(self) -> MachineConfig:
        """The materialised cluster config."""
        return resolve_config(self.cluster, self.nodes)

    def noise(self) -> Optional[NoiseModel]:
        """The per-point noise model (None when sigma == 0)."""
        if self.sigma <= 0.0:
            return None
        return NoiseModel(sigma=self.sigma, seed=self.seed)

    def alg_kwargs(self) -> dict:
        """Keyword arguments forwarded to the collective algorithm."""
        kwargs = dict(self.extra)
        if self.leaders is not None:
            kwargs["leaders"] = self.leaders
        return kwargs

    def run(self, session=None) -> float:
        """Measure this point's latency (seconds), optionally on a session."""
        from repro.bench.harness import allreduce_latency

        return allreduce_latency(
            self.config(),
            self.algorithm,
            self.nbytes,
            ppn=self.ppn,
            iterations=self.iterations,
            warmup=self.warmup,
            noise=self.noise(),
            session=session,
            faults=self.faults,
            fault_seed=self.seed,
            fidelity=self.fidelity,
            **self.alg_kwargs(),
        )

    def label(self) -> str:
        """Compact human-readable identity for progress lines."""
        cluster = (
            self.cluster if isinstance(self.cluster, str) else self.cluster.name
        )
        parts = [
            f"{cluster}/{self.nodes}x{self.ppn}",
            str(self.algorithm),
            f"{self.nbytes}B",
        ]
        if self.leaders is not None:
            parts.append(f"l={self.leaders}")
        if self.repeat:
            parts.append(f"r={self.repeat}")
        if self.faults is not None:
            parts.append(f"faults={self.faults.plan_hash()}")
        if self.fidelity != "exact":
            parts.append(self.fidelity)
        return " ".join(parts)


# -- the sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec(_SweepRecord):
    """A full experiment as data: the cartesian product of its axes.

    Expansion order is deterministic (size-major, then algorithm,
    leader count, repeat), so a spec always yields the same point list
    and two executors running it produce positionally comparable
    results.  Leader counts exceeding ``ppn`` are skipped, matching the
    historical ``leader_sweep`` behaviour.
    """

    name: str
    cluster: ClusterRef
    nodes: int
    ppn: int
    sizes: tuple[int, ...]
    algorithms: tuple[Optional[str], ...] = ("dpml",)
    leader_counts: tuple[Optional[int], ...] = (None,)
    iterations: int = 2
    warmup: int = 1
    repeats: int = 1
    sigma: float = 0.0
    base_seed: int = 0
    extra: tuple[tuple[str, Any], ...] = ()
    #: optional declarative fault plan applied to every point
    faults: Optional[FaultPlan] = None
    #: collective execution fidelity applied to every point
    #: (``"exact"`` | ``"hybrid"``); hashed only when non-default
    fidelity: str = "exact"

    noun = "sweep spec"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "leader_counts", tuple(self.leader_counts))
        object.__setattr__(self, "extra", _freeze_kwargs(self.extra))
        from repro.bench.harness import check_loop, check_sample
        from repro.mpi.runtime import resolve_fidelity

        resolve_fidelity(self.fidelity)  # reject unknown modes early
        check_loop(self.iterations, self.warmup)
        check_sample(self.sizes, self.sigma)
        if not self.sizes:
            raise ReproError(f"sweep {self.name!r} has no message sizes")
        if not self.algorithms:
            raise ReproError(f"sweep {self.name!r} has no algorithms")
        if not self.leader_counts:
            raise ReproError(f"sweep {self.name!r} has no leader counts")
        if self.repeats < 1:
            raise ReproError(f"sweep {self.name!r} needs repeats >= 1")
        if self.nodes < 1 or self.ppn < 1:
            raise ReproError(f"sweep {self.name!r} needs nodes >= 1, ppn >= 1")

    @property
    def effective_leader_counts(self) -> tuple[Optional[int], ...]:
        """Leader counts that fit the layout (``l <= ppn``)."""
        return tuple(
            l for l in self.leader_counts if l is None or l <= self.ppn
        )

    def iter_points(self) -> Iterator[SamplePoint]:
        """Deterministic expansion into sample points."""
        for size in self.sizes:
            for algorithm in self.algorithms:
                for leaders in self.effective_leader_counts:
                    for repeat in range(self.repeats):
                        yield SamplePoint(
                            cluster=self.cluster,
                            nodes=self.nodes,
                            ppn=self.ppn,
                            algorithm=algorithm,
                            nbytes=size,
                            iterations=self.iterations,
                            warmup=self.warmup,
                            leaders=leaders,
                            repeat=repeat,
                            sigma=self.sigma,
                            seed=self.base_seed + repeat,
                            extra=self.extra,
                            faults=self.faults,
                            fidelity=self.fidelity,
                        )

    def points(self) -> tuple[SamplePoint, ...]:
        """The full, ordered point list."""
        return tuple(self.iter_points())

    @property
    def n_points(self) -> int:
        """Number of samples the spec expands to."""
        return (
            len(self.sizes)
            * len(self.algorithms)
            * len(self.effective_leader_counts)
            * self.repeats
        )

    def with_overrides(self, **changes) -> "SweepSpec":
        """Copy with the given fields replaced (None values ignored)."""
        changes = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **changes) if changes else self

    def full_hash(self) -> str:
        """Untruncated sha256 of the canonical spec serialisation.

        This is the collision-safe identity used for result-store keys
        (:mod:`repro.bench.store`); :meth:`spec_hash` is its 16-char
        display prefix, kept short for filenames and EXPERIMENTS.md.
        """
        return canonical.sha256(self.to_dict())

    def spec_hash(self) -> str:
        """Stable content hash: two equal specs measure the same thing.

        A display-friendly prefix of :meth:`full_hash` — anything that
        must never alias (store keys) uses the full form.
        """
        return self.full_hash()[:16]


# -- results -----------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sample: a latency or a captured error, never both."""

    point: SamplePoint
    latency: Optional[float] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the measurement succeeded."""
        return self.error is None


@dataclass
class SweepResult:
    """Everything a sweep produced, in the spec's point order.

    ``meta`` carries volatile host-side facts (executor, jobs, wall
    seconds); :meth:`canonical_dict` strips them so two runs of the
    same spec — serial or parallel — serialise bit-identically.
    """

    spec: SweepSpec
    results: tuple[PointResult, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.results = tuple(self.results)
        if len(self.results) != self.spec.n_points:
            raise ReproError(
                f"sweep {self.spec.name!r} expanded to {self.spec.n_points} "
                f"points but got {len(self.results)} results"
            )

    @property
    def ok(self) -> bool:
        """Whether every point succeeded."""
        return all(r.ok for r in self.results)

    @property
    def errors(self) -> list[PointResult]:
        """The failed points (empty on a clean sweep)."""
        return [r for r in self.results if not r.ok]

    def _require_ok(self) -> None:
        if self.ok:
            return
        first = self.errors[0]
        raise ReproError(
            f"sweep {self.spec.name!r}: {len(self.errors)}/"
            f"{len(self.results)} points failed; first: "
            f"[{first.point.label()}] {first.error}"
        )

    # -- shaped views (what the figure regenerators consume) ---------------

    def by_size_leaders(self) -> dict[int, dict[int, float]]:
        """Figures 4-7 shape ``{size: {leaders: latency}}``.

        Repeats of a point are averaged; with ``repeats=1`` the values
        are the raw per-point latencies, bit-for-bit.
        """
        self._require_ok()
        return self._grouped(lambda p: p.leaders)

    def by_size_algorithm(self) -> dict[int, dict[str, float]]:
        """Figures 8-10 shape ``{size: {algorithm: latency}}``."""
        self._require_ok()
        return self._grouped(lambda p: p.algorithm)

    def _grouped(self, series_of: Callable[[SamplePoint], Any]) -> dict:
        acc: dict[int, dict[Any, list[float]]] = {}
        for r in self.results:
            acc.setdefault(r.point.nbytes, {}).setdefault(
                series_of(r.point), []
            ).append(r.latency)
        return {
            size: {
                series: (vals[0] if len(vals) == 1 else sum(vals) / len(vals))
                for series, vals in by_series.items()
            }
            for size, by_series in acc.items()
        }

    def samples(
        self,
        *,
        nbytes: int,
        algorithm: Optional[str] = None,
        leaders: Optional[int] = None,
    ) -> tuple[float, ...]:
        """Per-repeat latencies of one coordinate, in repeat order."""
        self._require_ok()
        return tuple(
            r.latency
            for r in self.results
            if r.point.nbytes == nbytes
            and (algorithm is None or r.point.algorithm == algorithm)
            and (leaders is None or r.point.leaders == leaders)
        )

    # -- (de)serialisation --------------------------------------------------

    def canonical_dict(self) -> dict:
        """Deterministic payload: spec, hash, and per-point outcomes only."""
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "results": [
                {"latency": r.latency, "error": r.error} for r in self.results
            ],
        }

    def to_dict(self, *, include_meta: bool = True) -> dict:
        """Full record; ``include_meta=False`` gives the canonical form."""
        out = self.canonical_dict()
        if include_meta:
            out["meta"] = dict(self.meta)
        return out

    def to_json(self, *, include_meta: bool = True, indent: int = 2) -> str:
        """JSON rendition (sorted keys, so equal records diff clean)."""
        return json.dumps(
            self.to_dict(include_meta=include_meta), indent=indent, sort_keys=True
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        spec = SweepSpec.from_dict(data["spec"])
        points = spec.points()
        raw = data["results"]
        if len(raw) != len(points):
            raise ReproError(
                f"result payload has {len(raw)} entries for a spec of "
                f"{len(points)} points"
            )
        results = tuple(
            PointResult(point=p, latency=r.get("latency"), error=r.get("error"))
            for p, r in zip(points, raw)
        )
        return cls(spec=spec, results=results, meta=dict(data.get("meta", {})))

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def table(self) -> str:
        """Fixed-width table rendition (see :func:`repro.bench.report.sweep_table`)."""
        from repro.bench.report import sweep_table

        return sweep_table(self)


# -- named sweeps (the paper's figures as records) -------------------------

#: Leader counts of the Figures 4-7 studies.
_LEADER_COUNTS = (1, 2, 4, 8, 16)
_VS_MVAPICH2 = ("vs-mvapich2", "mvapich2", "dpml_tuned")
_VS_INTEL = ("vs-intel", "intel_mpi", "dpml_tuned")


@dataclass(frozen=True)
class NamedSweep:
    """One figure of the evaluation: its job layout, axes and table.

    The series of the table are the leader counts (``l=<count>``
    columns) when ``leader_counts`` is set, else the algorithms.
    """

    name: str
    #: table title; ``{ppn}`` is filled in from the spec that ran
    title: str
    cluster: str
    #: ``(nodes, ppn)`` at paper scale and at reduced scale
    paper: tuple[int, int]
    reduced: tuple[int, int]
    sizes: tuple[int, ...] = PAPER_SIZES
    algorithms: tuple[str, ...] = ("dpml",)
    leader_counts: tuple[Optional[int], ...] = (None,)
    iterations: int = 2
    #: ``(algorithm, column)``: the column label of a renamed series
    renames: tuple[tuple[str, str], ...] = ()
    #: whether a ``best`` column names the fastest series at each size
    best: bool = False
    #: ``(column, num, den)``: the ``num / den`` latency ratio as
    #: ``"1.23x"``; a ``den`` of ``"best"`` is the fastest series
    speedups: tuple[tuple[str, str, str], ...] = ()

    def spec(self) -> SweepSpec:
        """The sweep at the scale :func:`paper_scale` selects."""
        nodes, ppn = self.paper if paper_scale() else self.reduced
        return SweepSpec(
            name=self.name, cluster=self.cluster, nodes=nodes, ppn=ppn,
            sizes=self.sizes, algorithms=self.algorithms,
            leader_counts=self.leader_counts, iterations=self.iterations,
        )


def _leaders(name: str, title: str, cluster: str, paper, reduced) -> NamedSweep:
    """A Figures 4-7 leader study: DPML at each leader count."""
    return NamedSweep(
        name, f"{title}: DPML allreduce latency (us) vs leaders", cluster,
        paper, reduced, leader_counts=_LEADER_COUNTS, best=True,
    )


def _libraries(name: str, title: str, cluster: str, paper, reduced, *,
               intel: bool = False, sizes=PAPER_SIZES,
               iterations: int = 2) -> NamedSweep:
    """A Figures 9-10 library comparison: tuned DPML vs MVAPICH2 (and
    Intel MPI), with the speedup over each."""
    return NamedSweep(
        name, title, cluster, paper, reduced, sizes,
        algorithms=("mvapich2", "intel_mpi", "dpml_tuned") if intel
        else ("mvapich2", "dpml_tuned"),
        iterations=iterations,
        speedups=(_VS_MVAPICH2, _VS_INTEL) if intel else (_VS_MVAPICH2,),
    )


#: The named sweeps in figure order: ``bench run <name>`` and the
#: figure regenerators (:data:`repro.bench.figures.FIGURES`) read them.
SWEEPS: dict[str, NamedSweep] = {
    sweep.name: sweep
    for sweep in (
        _leaders("fig4", "Figure 4 (Cluster A)", "a", (16, 28), (16, 28)),
        _leaders("fig5", "Figure 5 (Cluster B)", "b", (64, 28), (16, 28)),
        _leaders("fig6", "Figure 6 (Cluster C)", "c", (64, 28), (16, 28)),
        _leaders("fig7", "Figure 7 (Cluster D)", "d", (32, 32), (16, 32)),
        NamedSweep(
            "fig8", "Figure 8: SHArP designs vs host-based, {ppn} ppn (us)",
            "a", (16, 28), (16, 28), SMALL_SIZES,
            algorithms=("mvapich2", "sharp_node_leader", "sharp_socket_leader"),
            renames=(("mvapich2", "host"), ("sharp_node_leader", "node-leader"),
                     ("sharp_socket_leader", "socket-leader")),
            speedups=(("nl-speedup", "mvapich2", "sharp_node_leader"),
                      ("sl-speedup", "mvapich2", "sharp_socket_leader")),
        ),
        _libraries("fig9a", "Figure 9(a) Cluster A: MPI_Allreduce latency (us)",
                   "a", (16, 28), (16, 28)),
        _libraries("fig9b", "Figure 9(b) Cluster B: MPI_Allreduce latency (us)",
                   "b", (64, 28), (16, 28)),
        _libraries("fig9c", "Figure 9(c) Cluster C: MPI_Allreduce latency (us)",
                   "c", (64, 28), (16, 28), intel=True),
        _libraries("fig9d", "Figure 9(d) Cluster D: MPI_Allreduce latency (us)",
                   "d", (32, 32), (16, 32), intel=True),
        _libraries("fig10",
                   "Figure 10: MPI_Allreduce latency at scale, Cluster D (us)",
                   "d", (160, 64), (64, 32), intel=True, sizes=SCALE_SIZES,
                   iterations=1),
        # Not a paper figure: DPML vs the competing literature families
        # (Träff dual-root, optimal RS/AG, Kolmakov-Zhang generalized)
        # on the Figure 9(b) layout.
        NamedSweep(
            "families", "Literature families vs DPML, Cluster B (us)",
            "b", (64, 28), (16, 28),
            algorithms=("mvapich2", "dpml_tuned", "dualroot_pipelined",
                        "optimal_rsag", "generalized"),
            best=True, speedups=(("vs-dpml", "dpml_tuned", "best"),),
        ),
    )
}


def named_sweep(name: str, **overrides) -> SweepSpec:
    """The named sweep's spec with ``overrides`` applied.

    ``overrides`` are :class:`SweepSpec` fields; ``None`` values keep
    the record's value.
    """
    key = name.strip().lower()
    if key not in SWEEPS:
        raise ReproError(
            f"unknown sweep {name!r}; choose from {sorted(SWEEPS)}"
        )
    return SWEEPS[key].spec().with_overrides(**overrides)
