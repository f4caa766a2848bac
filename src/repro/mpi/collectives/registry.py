"""Algorithm registries: names → collective implementations.

One registry per collective kind (allreduce, reduce, bcast, allgather,
reduce_scatter, gather, scatter, alltoall), mirroring an MPI library's
collective tuning framework.  Each allreduce is one
:class:`~repro.core.phases.AllreduceAlgorithm` record declared next to
its coroutine; every record imported below joins the allreduce table
when this module is imported.  The other kinds are plain name →
function tables.
"""

from __future__ import annotations

import functools
import inspect
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
from repro.errors import TuningError
from repro.mpi.collectives.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
)
from repro.mpi.collectives.alltoall import alltoall_bruck, alltoall_pairwise
from repro.mpi.collectives.binomial import (
    REDUCE_BCAST,
    bcast_binomial,
    reduce_binomial,
)
from repro.mpi.collectives.dualroot import DUALROOT_PIPELINED
from repro.mpi.collectives.gather_scatter import gather_binomial, scatter_binomial
from repro.mpi.collectives.generalized import GENERALIZED
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
    "allreduce_keywords",
]

CollectiveFn = Callable[..., Generator]

#: Every record imported above, by name: importing a record into this
#: module is what registers it.
_ALLREDUCE: dict[str, AllreduceAlgorithm] = {
    record.name: record
    for record in tuple(globals().values())
    if isinstance(record, AllreduceAlgorithm)
}

#: The hybrid-fidelity wrapper of every priced record, built once here
#: so a hybrid dispatch is a lookup, not a closure per rank.
_HYBRID: dict[str, CollectiveFn] = {
    name: make_hybrid_allreduce(record)
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
        _HYBRID[algorithm.name] = make_hybrid_allreduce(algorithm)
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


def allreduce_keywords(name: str) -> Optional[frozenset]:
    """The public keywords the allreduce ``name`` takes after ``(comm,
    payload, op)``, or ``None`` when it is not registered or takes
    ``**kwargs``."""
    record = _ALLREDUCE.get(name)
    return None if record is None else _public_keywords(record.fn)


@functools.lru_cache(maxsize=None)
def _public_keywords(fn: Callable) -> Optional[frozenset]:
    # Cached: every sample point and allreduce_latency call checks its
    # keywords, and inspect.signature costs tens of microseconds.
    params = list(inspect.signature(fn).parameters.values())[3:]
    if any(param.kind is param.VAR_KEYWORD for param in params):
        return None
    return frozenset(
        param.name for param in params
        if param.kind is not param.VAR_POSITIONAL
        and not param.name.startswith("_")
    )


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
    return record.fn


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
