"""Algorithm registries: names → collective implementations.

One registry per collective kind (allreduce, reduce, bcast, allgather,
reduce_scatter, gather, scatter, alltoall), mirroring an MPI library's
collective tuning framework.  Each allreduce is one
:class:`~repro.core.phases.AllreduceAlgorithm` record declared next to
its code; every record imported below joins the allreduce table when
this module is imported, and a record's ``schedule`` runs through
:func:`~repro.mpi.collectives.base.run_schedule`.  The other kinds are
plain name → function tables.
"""

from __future__ import annotations

import functools
import inspect
import operator
from typing import Callable, Generator, Optional

from repro.core.adaptive import ADAPTIVE
from repro.core.dpml import DPML, HIERARCHICAL
from repro.core.dpml_bcast import bcast_dpml
from repro.core.dpml_reduce import reduce_dpml
from repro.core.multilevel import DPML_MULTILEVEL
from repro.core.phases import AllreduceAlgorithm
from repro.core.pipelined import DPML_PIPELINED
from repro.core.sharp_designs import SHARP_NODE_LEADER, SHARP_SOCKET_LEADER
from repro.core.tuning import DPML_TUNED
from repro.errors import ConfigError, TuningError
from repro.mpi.collectives.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
)
from repro.mpi.collectives.alltoall import alltoall_bruck, alltoall_pairwise
from repro.mpi.collectives.base import run_schedule
from repro.mpi.collectives.binomial import (
    REDUCE_BCAST,
    bcast_binomial,
    reduce_binomial,
)
from repro.mpi.collectives.dualroot import DUALROOT_PIPELINED
from repro.mpi.collectives.gather_scatter import gather_binomial, scatter_binomial
from repro.mpi.collectives.generalized import GENERALIZED, check_radices
from repro.mpi.collectives.hybrid import make_hybrid_allreduce
from repro.mpi.collectives.knomial import bcast_knomial, reduce_knomial
from repro.mpi.collectives.optimal_rsag import OPTIMAL_RSAG
from repro.mpi.collectives.rabenseifner import RABENSEIFNER
from repro.mpi.collectives.recursive_doubling import RECURSIVE_DOUBLING
from repro.mpi.collectives.reduce_scatter import (
    reduce_scatter_pairwise,
    reduce_scatter_recursive_halving,
)
from repro.mpi.collectives.ring import RING, RING_SEGMENTED, bcast_scatter_ring
from repro.mpi.collectives.selector import (
    FLAT_AUTO,
    INTEL_MPI,
    MVAPICH2,
    bcast_auto,
    reduce_auto,
)

__all__ = [
    "register_allreduce",
    "resolve_allreduce",
    "available_algorithms",
    "resolve_collective",
    "available_collectives",
    "resolve_phase_plan",
    "allreduce_name",
    "allreduce_stateful",
    "allreduce_keywords",
    "collective_keywords",
    "check_knobs",
    "check_call",
]

CollectiveFn = Callable[..., Generator]

#: Every record imported above, by name: importing a record into this
#: module is what registers it.
_ALLREDUCE: dict[str, AllreduceAlgorithm] = {
    record.name: record
    for record in tuple(globals().values())
    if isinstance(record, AllreduceAlgorithm)
}


@functools.lru_cache(maxsize=None)
def _runner(schedule: Callable) -> CollectiveFn:
    # A record's exact path is ``record.fn or _runner(record.schedule)``:
    # one bound runner per schedule, so a dispatch is a lookup and the
    # caller gets run_schedule's own generator, not a wrapper's.
    return functools.partial(run_schedule, schedule)


#: The hybrid-fidelity wrapper of every priced record, built once here
#: so a hybrid dispatch is a lookup, not a closure per rank.
_HYBRID: dict[str, CollectiveFn] = {
    name: make_hybrid_allreduce(record, record.fn or _runner(record.schedule))
    for name, record in _ALLREDUCE.items()
    if record.priced
}

_REGISTRIES: dict[str, dict[str, CollectiveFn]] = {
    "reduce": {
        "binomial": reduce_binomial,
        "knomial": reduce_knomial,
        "dpml": reduce_dpml,
        "auto": reduce_auto,
    },
    "bcast": {
        "binomial": bcast_binomial,
        "knomial": bcast_knomial,
        "scatter_ring": bcast_scatter_ring,
        "dpml": bcast_dpml,
        "auto": bcast_auto,
    },
    "allgather": {
        "recursive_doubling": allgather_recursive_doubling,
        "ring": allgather_ring,
        "bruck": allgather_bruck,
    },
    "reduce_scatter": {
        "recursive_halving": reduce_scatter_recursive_halving,
        "pairwise": reduce_scatter_pairwise,
    },
    "gather": {"binomial": gather_binomial},
    "scatter": {"binomial": scatter_binomial},
    "alltoall": {"pairwise": alltoall_pairwise, "bruck": alltoall_bruck},
}

#: Data arguments each kind's functions take after ``comm`` (one when
#: not listed); every later parameter is a keyword.
_DATA_ARGS = {"allreduce": 2, "reduce": 2, "reduce_scatter": 2}

#: Default algorithm per collective kind — the "state of the art"
#: library behaviour the paper compares against.
_DEFAULTS = {
    "allreduce": "mvapich2",
    "reduce": "binomial",
    "bcast": "binomial",
    "allgather": "recursive_doubling",
    "reduce_scatter": "recursive_halving",
    "gather": "binomial",
    "scatter": "binomial",
    "alltoall": "pairwise",
}


def register_allreduce(algorithm: AllreduceAlgorithm) -> None:
    """Register (or override) an allreduce record under its name."""
    _ALLREDUCE[algorithm.name] = algorithm
    if algorithm.priced:
        _HYBRID[algorithm.name] = make_hybrid_allreduce(
            algorithm, algorithm.fn or _runner(algorithm.schedule)
        )
    else:
        _HYBRID.pop(algorithm.name, None)


def resolve_phase_plan(name: str) -> Optional[AllreduceAlgorithm]:
    """The priced record registered as ``name``, or ``None`` when the
    algorithm is exempt from the cost model or not registered."""
    record = _ALLREDUCE.get(name)
    return record if record is not None and record.priced else None


def allreduce_name(name: Optional[str]) -> str:
    """The allreduce ``name`` selects: itself, or the default for ``None``."""
    return name or _DEFAULTS["allreduce"]


def allreduce_stateful(name: Optional[str]) -> bool:
    """Whether the allreduce ``name`` selects keeps state between calls
    (:attr:`~repro.core.phases.AllreduceAlgorithm.stateful`); an
    unregistered name is not, and fails when it is called."""
    record = _ALLREDUCE.get(allreduce_name(name))
    return record is not None and record.stateful


def collective_keywords(kind: str, name: str) -> Optional[frozenset]:
    """The public keywords the ``kind`` algorithm ``name`` takes after
    ``comm`` and its data arguments (a schedule record's: after ``p``
    and ``rank``), less the ``tag_base`` every call is given, or
    ``None`` when it is not registered or takes ``**kwargs``."""
    if kind == "allreduce":
        record = _ALLREDUCE.get(name)
        if record is not None and record.schedule is not None:
            return _public_keywords(record.schedule, 2)
        fn = None if record is None else record.fn
    else:
        fn = _REGISTRIES.get(kind, {}).get(name)
    return None if fn is None else _public_keywords(fn, 1 + _DATA_ARGS.get(kind, 1))


def allreduce_keywords(name: str) -> Optional[frozenset]:
    """:func:`collective_keywords` of the allreduce ``name``."""
    return collective_keywords("allreduce", name)


@functools.lru_cache(maxsize=None)
def _public_keywords(fn: Callable, positional: int) -> Optional[frozenset]:
    # Cached: every sample point and allreduce_latency call checks its
    # keywords, and inspect.signature costs tens of microseconds.
    params = list(inspect.signature(fn).parameters.values())[positional:]
    if any(param.kind is param.VAR_KEYWORD for param in params):
        return None
    return frozenset(
        param.name for param in params
        if param.kind is not param.VAR_POSITIONAL
        and not param.name.startswith("_") and param.name != "tag_base"
    )


def check_knobs(
    algorithm: Optional[str], nranks: int, ppn: int, alg_kwargs: dict,
    kind: str = "allreduce",
) -> None:
    """Reject collective keywords a job cannot run as given: keywords
    the named ``kind`` algorithm does not take, a ``leaders``,
    ``segment_bytes``, ``pipeline_unit`` or k-nomial ``radix`` that is
    not an integer, a ``leaders`` count outside ``[1, ppn]`` (it would
    run clamped to ``ppn``), a ``segment_bytes`` or ``pipeline_unit``
    below 1 (a zero divides by zero, a negative runs clamped to one
    segment), a ``radix`` below 2, an ``inter_algorithm`` that names no
    registered ``kind`` algorithm (the kind phase 3 runs), and
    ``radices`` that are not integers factoring ``nranks``
    (:func:`~repro.mpi.collectives.generalized.check_radices`)."""
    if not alg_kwargs:
        return
    if algorithm is not None:
        accepted = collective_keywords(kind, algorithm)
        if accepted is not None and not accepted.issuperset(alg_kwargs):
            raise ConfigError(
                f"{kind} {algorithm!r} takes no keyword(s) "
                f"{', '.join(sorted(set(alg_kwargs) - accepted))}; it "
                f"takes: {', '.join(sorted(accepted)) or 'none'}"
            )
    for knob, least in (
        ("leaders", 1), ("segment_bytes", 1), ("pipeline_unit", 1), ("radix", 2),
    ):
        value = alg_kwargs.get(knob)
        if value is None:
            continue
        try:
            operator.index(value)
        except TypeError:
            raise ConfigError(
                f"{knob} must be an integer, got {value!r}"
            ) from None
        if knob == "leaders" and not 1 <= value <= ppn:
            raise ConfigError(f"leaders must be in [1, ppn={ppn}], got {value}")
        if value < least:
            raise ConfigError(f"{knob} must be >= {least}, got {value}")
    inter = alg_kwargs.get("inter_algorithm")
    if inter is not None and inter not in available_collectives(kind):
        raise ConfigError(
            f"inter_algorithm {inter!r} is no registered {kind} algorithm; "
            f"available: {', '.join(available_collectives(kind))}"
        )
    if alg_kwargs.get("radices") is not None:
        check_radices(nranks, alg_kwargs["radices"])


def check_call(
    comm, algorithm: Optional[str], kwargs: dict, kind: str = "allreduce"
) -> None:
    """:func:`check_knobs` for a collective a rank function issues on
    the world communicator.  Calls on sub-communicators are the interior
    steps of a collective and are not checked.  A rooted collective's
    ``root`` must be in ``[0, comm.size)``; a ``kind`` other than
    allreduce with no ``algorithm`` checks its default.

    A leader count below 1 is left to the algorithm, which raises
    :class:`~repro.errors.ConfigError` for it in both fidelities (a
    hybrid job counts it as an unpriceable downgrade); only the silent
    clamp above ``ppn`` is a leader error here.
    """
    if not kwargs or comm.group.context != 0:
        return
    root = kwargs.get("root")
    if root is not None and not 0 <= root < comm.size:
        raise ConfigError(f"root must be in [0, {comm.size}), got {root}")
    leaders = kwargs.get("leaders")
    if leaders is not None and leaders < 1:
        kwargs = {**kwargs, "leaders": 1}
    if kind != "allreduce":
        algorithm = algorithm or _DEFAULTS[kind]
    check_knobs(algorithm, comm.size, comm.machine.ppn, kwargs, kind)


def resolve_allreduce(name: Optional[str], comm) -> CollectiveFn:
    """Look up an allreduce; ``None`` selects the default.

    This is the single dispatch choke point for every allreduce (the
    library selectors delegate back through here), which makes it the
    natural seam for hybrid fidelity: when the communicator's runtime
    runs with ``fidelity="hybrid"`` and the record is priced, the
    record's macro-executor wrapper is returned instead of the exact
    coroutine; it charges the whole collective as one priced macro-event
    when eligible and falls back to the wrapped exact path otherwise.
    """
    key = allreduce_name(name)
    record = _ALLREDUCE.get(key)
    if record is None:
        raise TuningError(
            f"unknown allreduce algorithm {key!r}; available: "
            f"{', '.join(sorted(_ALLREDUCE))}"
        )
    if comm is not None and getattr(comm.runtime, "fidelity", "exact") == "hybrid":
        hybrid = _HYBRID.get(key)
        if hybrid is not None:
            return hybrid
        # Hybrid mode asked for macro-charging but this algorithm is
        # exempt: run exact, but *count* the fallback so the silent
        # downgrade is visible in JobResult.counters.
        fallbacks = getattr(comm.runtime, "hybrid_plan_fallbacks", None)
        if fallbacks is not None:
            fallbacks[key] = fallbacks.get(key, 0) + 1
    return record.fn or _runner(record.schedule)


def resolve_collective(kind: str, name: Optional[str], comm) -> CollectiveFn:
    """Look up an algorithm of any kind; ``None`` selects the default."""
    if kind == "allreduce":
        return resolve_allreduce(name, comm)
    registry = _REGISTRIES.get(kind)
    if registry is None:
        raise TuningError(
            f"unknown collective kind {kind!r}; available: "
            f"{', '.join(sorted(['allreduce', *_REGISTRIES]))}"
        )
    key = name or _DEFAULTS[kind]
    fn = registry.get(key)
    if fn is None:
        raise TuningError(
            f"unknown {kind} algorithm {key!r}; available: "
            f"{', '.join(sorted(registry))}"
        )
    return fn


def available_collectives(kind: str = "allreduce") -> list[str]:
    """Sorted names of the registered algorithms of one kind."""
    if kind == "allreduce":
        return sorted(_ALLREDUCE)
    if kind not in _REGISTRIES:
        raise TuningError(f"unknown collective kind {kind!r}")
    return sorted(_REGISTRIES[kind])


def available_algorithms() -> list[str]:
    """Sorted names of every registered allreduce algorithm."""
    return available_collectives("allreduce")
