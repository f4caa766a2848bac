"""Message-size-based algorithm selectors, as selection tables.

Production MPI libraries "include the capability to choose the
appropriate algorithm or configuration based on various factors like
message size, number of processes per node, CPU and interconnect"
(paper Section 6.4).  Each selector here is a table of
:class:`~repro.core.tuning.Rule` rows whose ``None`` entry serves every
cluster, so a per-cluster table is one more key.  They emulate the two
libraries the paper compares against:

* ``mvapich2`` — MVAPICH2-2.2-style: shared-memory single-leader
  hierarchical scheme for small/medium messages (its known weakness:
  one leader shoulders all ``(ppn-1) * n`` combine work), flat
  Rabenseifner for large ones;
* ``intel_mpi`` — Intel-MPI-2017-style: flat recursive doubling for
  small, Rabenseifner for medium, ring for large — less dependent on
  per-core speed, which is why it ages better on KNL's slow cores
  (matching the paper's Cluster C/D ordering);
* ``flat_auto`` — the *flat-only* selector used inside DPML's phase 3
  (it must never pick a hierarchical scheme, which would recurse).

Thresholds are tuning parameters, not measurements; see EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Generator

from repro.core.tuning import INF, Rule, allreduce_selector, select
from repro.errors import MPIError
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["FLAT_AUTO", "INTEL_MPI", "MVAPICH2", "bcast_auto", "reduce_auto"]

RD, RSAG = "recursive_doubling", "rabenseifner"

FLAT_AUTO_TABLE = {None: [
    Rule(8192, RD),
    Rule(INF, RD, max_ranks=2),
    Rule(524288, RSAG),
    # The ring's 2(p-1) rounds only pay off while p stays small.
    Rule(INF, "ring", max_ranks=64),
    Rule(INF, RSAG),
]}

MVAPICH2_TABLE = {None: [
    # Within a node the shm scheme is used at every size.
    Rule(INF, "hierarchical", single_node=True),
    Rule(16384, "hierarchical", {"inter_algorithm": RD}),
    Rule(524288, "hierarchical", {"inter_algorithm": RSAG}),
    Rule(INF, RSAG),
]}

INTEL_MPI_TABLE = {None: [
    Rule(4096, RD),
    Rule(65536, RSAG),
    Rule(INF, "ring", max_ranks=64),
    Rule(INF, RSAG),
]}

REDUCE_AUTO_TABLE = {None: [
    Rule(4096, "binomial"),
    Rule(16384, "knomial"),
    Rule(INF, "knomial", single_node=True),
    Rule(INF, "dpml"),
]}

BCAST_AUTO_TABLE = {None: [
    Rule(8192, "binomial", max_ranks=8),
    Rule(8192, "knomial"),
    Rule(INF, "scatter_ring", single_node=True),
    Rule(INF, "dpml"),
]}

_SELECTOR_EXEMPT = "library selector dispatching per message size"

FLAT_AUTO = allreduce_selector("flat_auto", FLAT_AUTO_TABLE, _SELECTOR_EXEMPT)
MVAPICH2 = allreduce_selector("mvapich2", MVAPICH2_TABLE, _SELECTOR_EXEMPT)
INTEL_MPI = allreduce_selector("intel_mpi", INTEL_MPI_TABLE, _SELECTOR_EXEMPT)


def reduce_auto(
    comm, payload: Payload, op: ReduceOp, root: int = 0, tag_base: int = 0
) -> Generator:
    """Reduce selector: binomial tree for small, k-nomial for medium,
    multi-leader DPML reduce for large multi-node vectors."""
    return select(
        "reduce", REDUCE_AUTO_TABLE, comm, payload.nbytes, payload, op,
        root=root, tag_base=tag_base,
    )


def bcast_auto(comm, payload, root: int = 0, tag_base: int = 0) -> Generator:
    """Bcast selector: binomial for small, k-nomial for medium,
    scatter+ring for large flat jobs, multi-leader for large multi-node.

    Like ``MPI_Bcast``, every rank knows the count: non-root ranks must
    pass a placeholder payload of the same count (its contents are
    ignored), so the size-based selection agrees everywhere.
    """
    if payload is None:
        return _missing_size()
    nbytes = payload.nbytes
    if comm.rank != root:
        payload = None  # contents are the root's to provide
    return select(
        "bcast", BCAST_AUTO_TABLE, comm, nbytes, payload,
        root=root, tag_base=tag_base,
    )


def _missing_size() -> Generator:
    """A collective that fails on its first resume, where a generator
    collective's errors surface: inside a blocking ``bcast``, and at
    the ``wait`` of an ``ibcast`` request."""
    raise MPIError(
        "bcast_auto needs the message size on every rank; non-root "
        "ranks must pass a placeholder payload of the same count"
    )
    yield  # unreachable; makes this a generator function
