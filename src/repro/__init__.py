"""repro — reproduction of the SC'17 DPML reduction-collectives paper.

This package implements, on top of a deterministic discrete-event
simulation of an HPC cluster, the Data Partitioning-based Multi-Leader
(DPML) family of ``MPI_Allreduce`` algorithms from

    M. Bayatpour, S. Chakraborty, H. Subramoni, X. Lu, D. K. Panda.
    "Scalable Reduction Collectives with Data Partitioning-based
    Multi-Leader Design".  SC'17.  DOI 10.1145/3126908.3126954.

Layout
------
``repro.sim``
    A small generator-coroutine discrete-event kernel (events, processes,
    timeouts, FCFS packet queues) on which everything else runs.
``repro.machine``
    Hardware models: multi-socket nodes, NIC/fabric models for
    InfiniBand-EDR and Omni-Path, a SHArP switch aggregation tree, and
    the four cluster presets (A-D) from the paper's Section 6.1.
``repro.payload``
    Message payloads — real numpy vectors (for correctness testing) or
    symbolic size-only vectors (for large-scale timing runs).
``repro.mpi``
    An MPI-like runtime: communicators, point-to-point messaging with
    tag matching, non-blocking requests, shared-memory windows, and the
    classic allreduce algorithms used as baselines (recursive doubling,
    Rabenseifner, ring, single-leader hierarchical, ...).
``repro.core``
    The paper's contribution: DPML, DPML-Pipelined, the SHArP
    node-leader and socket-leader designs, the analytical cost model,
    and the per-cluster tuning/selection layer.
``repro.apps``
    Application kernels used in the paper's evaluation: an HPCG-like
    conjugate-gradient solver, a miniAMR-like refinement loop, and OSU
    microbenchmark equivalents.
``repro.bench``
    The experiment harness that regenerates every figure of the paper's
    evaluation section (see DESIGN.md for the experiment index).

Quickstart
----------
DPML with eight leaders per node against recursive doubling, for a
256 KB allreduce on eight nodes of cluster B at eight ranks per node:

>>> from repro.machine.clusters import cluster_b
>>> from repro.bench.harness import allreduce_latency
>>> config = cluster_b(8)
>>> t_dpml = allreduce_latency(config, "dpml", 262144, ppn=8, leaders=8)
>>> t_rd = allreduce_latency(config, "recursive_doubling", 262144, ppn=8)
>>> t_dpml < t_rd
True
"""

from repro._version import __version__

__all__ = ["__version__"]
