"""Baseline collective algorithms and library-style tuned selectors.

Every allreduce algorithm has the signature::

    def allreduce_x(comm, payload, op, tag_base=0, **options) -> Generator

returning (via the generator's return value) the fully reduced payload
on every rank.  Algorithms are registered by name in
:mod:`repro.mpi.collectives.registry` and dispatched through
``comm.allreduce(payload, op, algorithm="name")``.  This package
imports nothing itself: the registry imports the DPML designs of
:mod:`repro.core`, which import :mod:`repro.mpi.collectives.base`, so
importing the package must not import the registry.

Baselines implemented (the paper's Section 2.1 / Section 3 survey):

* ``recursive_doubling`` — the classic flat latency-optimal algorithm;
* ``rabenseifner`` — reduce-scatter (recursive halving) + allgather
  (recursive doubling), bandwidth-optimal for large messages;
* ``ring`` — 2(p-1)-step ring, the large-message workhorse;
* ``reduce_bcast`` — binomial-tree reduce followed by binomial bcast;
* ``hierarchical`` — the MVAPICH2-style single-leader shared-memory
  scheme (DPML with ``l = 1``);
* ``mvapich2`` / ``intel_mpi`` — message-size-based selectors emulating
  the tuned production libraries the paper compares against.
"""
