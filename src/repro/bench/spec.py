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

Points sharing a ``session_key`` (cluster, nodes, ppn) can reuse one
:class:`~repro.mpi.runtime.SimSession`, so executors group by that key
and skip per-sample machine construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Optional, Sequence, Union

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
    "leader_sweep_spec",
    "algorithm_sweep_spec",
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


# -- config (de)serialisation ------------------------------------------------


def _config_to_dict(config: MachineConfig) -> dict:
    """JSON-ready dict of an inline MachineConfig."""
    out: dict[str, Any] = {
        "name": config.name,
        "nodes": config.nodes,
        "placement": config.placement,
        "node": {f.name: getattr(config.node, f.name) for f in fields(NodeConfig)},
        "fabric": {
            f.name: getattr(config.fabric, f.name) for f in fields(FabricConfig)
        },
        "sharp": (
            {f.name: getattr(config.sharp, f.name) for f in fields(SharpConfig)}
            if config.sharp is not None
            else None
        ),
        "topology": (
            {
                f.name: getattr(config.topology, f.name)
                for f in fields(FatTreeConfig)
            }
            if config.topology is not None
            else None
        ),
    }
    return out


def _config_from_dict(data: dict) -> MachineConfig:
    """Inverse of :func:`_config_to_dict`."""
    return MachineConfig(
        name=data["name"],
        nodes=data["nodes"],
        placement=data.get("placement", "scatter"),
        node=NodeConfig(**data["node"]),
        fabric=FabricConfig(**data["fabric"]),
        sharp=SharpConfig(**data["sharp"]) if data.get("sharp") else None,
        topology=(
            FatTreeConfig(**data["topology"]) if data.get("topology") else None
        ),
    )


def _cluster_to_json(cluster: ClusterRef):
    return cluster if isinstance(cluster, str) else _config_to_dict(cluster)


def _cluster_from_json(data) -> ClusterRef:
    return data if isinstance(data, str) else _config_from_dict(data)


def _freeze_kwargs(kwargs) -> tuple[tuple[str, Any], ...]:
    """Normalise an extra-kwargs mapping/pair-sequence to a sorted tuple."""
    items = kwargs.items() if isinstance(kwargs, dict) else kwargs
    return tuple(sorted((str(k), v) for k, v in items))


# -- one measurement ---------------------------------------------------------


@dataclass(frozen=True)
class SamplePoint:
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

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        """JSON-ready dict.

        The ``faults`` and ``fidelity`` keys appear only when
        non-default, so exact-mode fault-free points serialise (and
        hash) exactly as they did before those subsystems existed.
        """
        out = {
            "cluster": _cluster_to_json(self.cluster),
            "nodes": self.nodes,
            "ppn": self.ppn,
            "algorithm": self.algorithm,
            "nbytes": self.nbytes,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "leaders": self.leaders,
            "repeat": self.repeat,
            "sigma": self.sigma,
            "seed": self.seed,
            "extra": [list(pair) for pair in self.extra],
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.fidelity != "exact":
            out["fidelity"] = self.fidelity
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SamplePoint":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cluster=_cluster_from_json(data["cluster"]),
            nodes=data["nodes"],
            ppn=data["ppn"],
            algorithm=data["algorithm"],
            nbytes=data["nbytes"],
            iterations=data.get("iterations", 2),
            warmup=data.get("warmup", 1),
            leaders=data.get("leaders"),
            repeat=data.get("repeat", 0),
            sigma=data.get("sigma", 0.0),
            seed=data.get("seed", 0),
            extra=_freeze_kwargs(data.get("extra", ())),
            faults=(
                FaultPlan.from_dict(data["faults"])
                if data.get("faults")
                else None
            ),
            fidelity=data.get("fidelity", "exact"),
        )


# -- the sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
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

    def to_dict(self) -> dict:
        """JSON-ready dict.

        The ``faults`` and ``fidelity`` keys appear only when
        non-default, keeping exact-mode fault-free spec hashes
        identical to their pre-subsystem values (EXPERIMENTS.md entries
        stay stable).
        """
        out = {
            "name": self.name,
            "cluster": _cluster_to_json(self.cluster),
            "nodes": self.nodes,
            "ppn": self.ppn,
            "sizes": list(self.sizes),
            "algorithms": list(self.algorithms),
            "leader_counts": list(self.leader_counts),
            "iterations": self.iterations,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "sigma": self.sigma,
            "base_seed": self.base_seed,
            "extra": [list(pair) for pair in self.extra],
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.fidelity != "exact":
            out["fidelity"] = self.fidelity
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            cluster=_cluster_from_json(data["cluster"]),
            nodes=data["nodes"],
            ppn=data["ppn"],
            sizes=tuple(data["sizes"]),
            algorithms=tuple(data["algorithms"]),
            leader_counts=tuple(data["leader_counts"]),
            iterations=data.get("iterations", 2),
            warmup=data.get("warmup", 1),
            repeats=data.get("repeats", 1),
            sigma=data.get("sigma", 0.0),
            base_seed=data.get("base_seed", 0),
            extra=_freeze_kwargs(data.get("extra", ())),
            faults=(
                FaultPlan.from_dict(data["faults"])
                if data.get("faults")
                else None
            ),
            fidelity=data.get("fidelity", "exact"),
        )

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


# -- named sweeps (the paper's figures as specs) -----------------------------

# which -> (cluster, paper nodes, reduced nodes, ppn)
_LEADER_SWEEPS = {
    "fig4": ("a", 16, 16, 28),
    "fig5": ("b", 64, 16, 28),
    "fig6": ("c", 64, 16, 28),
    "fig7": ("d", 32, 16, 32),
}

# which -> (cluster, paper nodes, reduced nodes, ppn, sizes, algorithms)
_ALGORITHM_SWEEPS = {
    "fig8": (
        "a", 16, 16, 28, SMALL_SIZES,
        ("mvapich2", "sharp_node_leader", "sharp_socket_leader"),
    ),
    "fig9a": ("a", 16, 16, 28, PAPER_SIZES, ("mvapich2", "dpml_tuned")),
    "fig9b": ("b", 64, 16, 28, PAPER_SIZES, ("mvapich2", "dpml_tuned")),
    "fig9c": (
        "c", 64, 16, 28, PAPER_SIZES, ("mvapich2", "intel_mpi", "dpml_tuned"),
    ),
    "fig9d": (
        "d", 32, 16, 32, PAPER_SIZES, ("mvapich2", "intel_mpi", "dpml_tuned"),
    ),
    "fig10": (
        "d", 160, 64, None, SCALE_SIZES, ("mvapich2", "intel_mpi", "dpml_tuned"),
    ),
    # Not a paper figure: DPML vs the competing literature families
    # (Träff dual-root, optimal RS/AG, Kolmakov-Zhang generalized) on
    # the Figure 9(b) layout.  Appended after the fig* sweeps so their
    # spec hashes stay untouched.
    "families": (
        "b", 64, 16, 28, PAPER_SIZES,
        ("mvapich2", "dpml_tuned", "dualroot_pipelined", "optimal_rsag",
         "generalized"),
    ),
}

#: Leader counts of the Figures 4-7 studies.
_LEADER_COUNTS = (1, 2, 4, 8, 16)


def leader_sweep_spec(
    which: str = "fig5",
    *,
    sizes: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    repeats: int = 1,
    sigma: float = 0.0,
    base_seed: int = 0,
    faults: Optional[FaultPlan] = None,
    fidelity: str = "exact",
) -> SweepSpec:
    """Figures 4-7 as a spec (paper-scale aware, like the regenerators)."""
    if which not in _LEADER_SWEEPS:
        raise ReproError(
            f"unknown leader sweep {which!r}; choose from {sorted(_LEADER_SWEEPS)}"
        )
    cluster, paper_nodes, reduced_nodes, ppn = _LEADER_SWEEPS[which]
    return SweepSpec(
        name=which,
        cluster=cluster,
        nodes=paper_nodes if paper_scale() else reduced_nodes,
        ppn=ppn,
        sizes=tuple(sizes) if sizes else PAPER_SIZES,
        algorithms=("dpml",),
        leader_counts=_LEADER_COUNTS,
        iterations=iterations if iterations is not None else 2,
        repeats=repeats,
        sigma=sigma,
        base_seed=base_seed,
        faults=faults,
        fidelity=fidelity,
    )


def algorithm_sweep_spec(
    which: str = "fig9b",
    *,
    sizes: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    repeats: int = 1,
    sigma: float = 0.0,
    base_seed: int = 0,
    faults: Optional[FaultPlan] = None,
    fidelity: str = "exact",
) -> SweepSpec:
    """Figures 8-10 as a spec (paper-scale aware, like the regenerators)."""
    if which not in _ALGORITHM_SWEEPS:
        raise ReproError(
            f"unknown algorithm sweep {which!r}; choose from "
            f"{sorted(_ALGORITHM_SWEEPS)}"
        )
    cluster, paper_nodes, reduced_nodes, ppn, default_sizes, algorithms = (
        _ALGORITHM_SWEEPS[which]
    )
    if which == "fig10":
        # Fig. 10 changes ppn with scale (160x64 paper, 64x32 reduced).
        nodes, ppn = (160, 64) if paper_scale() else (64, 32)
    else:
        nodes = paper_nodes if paper_scale() else reduced_nodes
    return SweepSpec(
        name=which,
        cluster=cluster,
        nodes=nodes,
        ppn=ppn,
        sizes=tuple(sizes) if sizes else tuple(default_sizes),
        algorithms=algorithms,
        iterations=iterations if iterations is not None else (
            1 if which == "fig10" else 2
        ),
        repeats=repeats,
        sigma=sigma,
        base_seed=base_seed,
        faults=faults,
        fidelity=fidelity,
    )


#: CLI registry: sweep name -> spec factory (accepts the same overrides
#: as the underlying ``*_sweep_spec`` helpers).
SWEEPS: dict[str, Callable[..., SweepSpec]] = {
    **{
        which: (lambda which=which, **kw: leader_sweep_spec(which, **kw))
        for which in _LEADER_SWEEPS
    },
    **{
        which: (lambda which=which, **kw: algorithm_sweep_spec(which, **kw))
        for which in _ALGORITHM_SWEEPS
    },
}


def named_sweep(name: str, **overrides) -> SweepSpec:
    """Look up a named sweep and apply keyword overrides."""
    key = name.strip().lower()
    if key not in SWEEPS:
        raise ReproError(
            f"unknown sweep {name!r}; choose from {sorted(SWEEPS)}"
        )
    return SWEEPS[key](**overrides)
