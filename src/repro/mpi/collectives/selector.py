"""Message-size-based algorithm selectors.

Production MPI libraries "include the capability to choose the
appropriate algorithm or configuration based on various factors like
message size, number of processes per node, CPU and interconnect"
(paper Section 6.4).  These selectors emulate the two libraries the
paper compares against:

* :func:`allreduce_mvapich2` — MVAPICH2-2.2-style: shared-memory
  single-leader hierarchical scheme for small/medium messages (its
  known weakness: one leader shoulders all ``(ppn-1) * n`` combine
  work), flat Rabenseifner for large ones;
* :func:`allreduce_intel_mpi` — Intel-MPI-2017-style: flat recursive
  doubling for small, Rabenseifner for medium, ring for large —
  less dependent on per-core speed, which is why it ages better on
  KNL's slow cores (matching the paper's Cluster C/D ordering);
* :func:`allreduce_flat_auto` — the *flat-only* selector used inside
  DPML's phase 3 (it must never pick a hierarchical scheme, which
  would recurse).

Thresholds are tuning parameters, not measurements; see EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "FLAT_AUTO",
    "INTEL_MPI",
    "MVAPICH2",
    "allreduce_flat_auto",
    "allreduce_mvapich2",
    "allreduce_intel_mpi",
    "is_multinode",
]


def is_multinode(comm) -> bool:
    """Whether the communicator spans more than one node."""
    return comm.layout.multinode


def _delegate(comm, payload, op, tag_base, name, **kwargs) -> Generator:
    from repro.mpi.collectives.registry import resolve_allreduce

    fn = resolve_allreduce(name, comm)
    result = yield from fn(comm, payload, op, tag_base=tag_base, **kwargs)
    return result


def allreduce_flat_auto(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Flat algorithm by size: RD -> Rabenseifner -> ring."""
    n = payload.nbytes
    p = comm.size
    if p <= 2 or n <= 8192:
        name = "recursive_doubling"
    elif n > 524288 and p <= 64:
        # The ring's 2(p-1) rounds only pay off while p stays small.
        name = "ring"
    else:
        name = "rabenseifner"
    result = yield from _delegate(comm, payload, op, tag_base, name)
    return result


def allreduce_mvapich2(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """MVAPICH2-2.2-style selection (single-leader shm hierarchy)."""
    n = payload.nbytes
    if not is_multinode(comm):
        # Within a node the shm scheme is used at every size.
        result = yield from _delegate(comm, payload, op, tag_base, "hierarchical")
        return result
    if n <= 16384:
        result = yield from _delegate(
            comm, payload, op, tag_base, "hierarchical",
            inter_algorithm="recursive_doubling",
        )
    elif n <= 524288:
        result = yield from _delegate(
            comm, payload, op, tag_base, "hierarchical",
            inter_algorithm="rabenseifner",
        )
    else:
        result = yield from _delegate(comm, payload, op, tag_base, "rabenseifner")
    return result


def allreduce_intel_mpi(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Intel-MPI-2017-style selection (flat algorithms throughout)."""
    n = payload.nbytes
    if n <= 4096:
        name = "recursive_doubling"
    elif n <= 65536 or comm.size > 64:
        name = "rabenseifner"
    else:
        name = "ring"
    result = yield from _delegate(comm, payload, op, tag_base, name)
    return result


def reduce_auto(
    comm, payload: Payload, op: ReduceOp, root: int = 0, tag_base: int = 0
) -> Generator:
    """Reduce selector: binomial tree for small, k-nomial for medium,
    multi-leader DPML reduce for large multi-node vectors."""
    from repro.mpi.collectives.registry import resolve_collective

    n = payload.nbytes
    if not is_multinode(comm) or n <= 16384:
        name = "binomial" if n <= 4096 else "knomial"
    else:
        name = "dpml"
    fn = resolve_collective("reduce", name, comm)
    result = yield from fn(comm, payload, op, root=root, tag_base=tag_base)
    return result


def bcast_auto(
    comm, payload, root: int = 0, tag_base: int = 0
) -> Generator:
    """Bcast selector: binomial for small, k-nomial for medium,
    scatter+ring for large flat jobs, multi-leader for large multi-node.

    Like ``MPI_Bcast``, every rank knows the count: non-root ranks must
    pass a placeholder payload of the same count (its contents are
    ignored), so the size-based selection agrees everywhere.
    """
    from repro.errors import MPIError
    from repro.mpi.collectives.registry import resolve_collective

    if payload is None:
        raise MPIError(
            "bcast_auto needs the message size on every rank; non-root "
            "ranks must pass a placeholder payload of the same count"
        )
    n = payload.nbytes
    if comm.rank != root:
        payload = None  # contents are the root's to provide
    if n <= 8192:
        name = "binomial" if comm.size <= 8 else "knomial"
    elif is_multinode(comm):
        name = "dpml"
    else:
        name = "scatter_ring"
    fn = resolve_collective("bcast", name, comm)
    result = yield from fn(comm, payload, root=root, tag_base=tag_base)
    return result


_SELECTOR_EXEMPT = "library selector dispatching per message size"

FLAT_AUTO = AllreduceAlgorithm(
    "flat_auto", allreduce_flat_auto, exempt=_SELECTOR_EXEMPT
)
MVAPICH2 = AllreduceAlgorithm(
    "mvapich2", allreduce_mvapich2, exempt=_SELECTOR_EXEMPT
)
INTEL_MPI = AllreduceAlgorithm(
    "intel_mpi", allreduce_intel_mpi, exempt=_SELECTOR_EXEMPT
)
