"""Golden event-order determinism: every job against committed records.

The kernel's fast paths (zero-delay dispatch, event pooling) and the
copy-on-write payload views must be *invisible* to simulated results:
every :class:`~repro.mpi.runtime.JobResult` — per-rank values and the
simulated elapsed time — must be bit-identical to what the seed's
heap-only, copy-always implementation produced.  That output is
committed here as the reference: each case's ``elapsed`` as a float
literal captured from the seed's run, and its per-rank ``values``
checked against the numpy sum of the inputs (integer-valued float64,
so the sum is exact and every summation order agrees bit for bit).

The grid is the shared conftest layout grid (the same shapes as
``python -m repro check``), and the sanitized variants re-run the
records with the invariant sanitizer attached, since sanitizer
bookkeeping rides the same hot paths.

The hybrid-fidelity tests extend the same contract one layer up:
macro-charging a collective through the cost model may change its
*simulated timing* (that is the point), but never its numerics — every
registered allreduce must return bit-identical result buffers in both
fidelities, hybrid timings must be deterministic run to run, and under
injected faults hybrid must fall back to the exact path cleanly
(sanitizer-silent and bit-identical to an exact faulted run, timing
included).
"""

import itertools

import numpy as np
import pytest

from tests.conftest import ALL_LAYOUTS, layout_id
from repro.faults.plan import ArrivalSkew, FaultPlan, Straggler
from repro.machine.clusters import cluster_a, cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.registry import available_algorithms
from repro.payload import SUM, make_payload, split_bounds

COUNT = 96

#: The golden grid: every registered allreduce, derived from the
#: registry at collection time.
GOLDEN_ALGORITHMS = available_algorithms()

#: The competing designs added alongside DPML; called out by name so a
#: regression in one of them fails a test naming it.
LITERATURE_FAMILIES = ("dualroot_pipelined", "optimal_rsag", "generalized")

#: Seed-run elapsed time of dpml on each (nranks, ppn, nodes) layout of
#: the grid (the sanitized subset must reproduce the same values).
LAYOUT_ELAPSED = {
    (8, 4, 2): 5.691679999999999e-06,
    (9, 3, 3): 8.14296e-06,
    (10, 4, 3): 7.723040000000002e-06,
    (3, 1, 3): 6.4305600000000005e-06,
    (6, 6, 1): 4.126560000000001e-06,
    (5, 2, 3): 8.325280000000002e-06,
    (2, 1, 2): 2.4812800000000006e-06,
    (1, 1, 1): 0.0,
}

#: Seed-run elapsed time of each algorithm at 16 ranks, 4 per node, by
#: fidelity (hybrid only for the literature families).
ALGORITHM_ELAPSED = {
    "exact": {
        "dpml": 7.511999999999997e-06,
        "dpml_pipelined": 7.511999999999997e-06,
        "dpml_tuned": 7.511999999999997e-06,
        "mvapich2": 7.3044799999999996e-06,
        "hierarchical": 7.3044799999999996e-06,
        "ring": 3.166184e-05,
        "dualroot_pipelined": 1.3721920000000006e-05,
        "optimal_rsag": 1.047852e-05,
        "generalized": 1.047852e-05,
    },
    "hybrid": {
        "dualroot_pipelined": 1.57184e-05,
        "optimal_rsag": 1.406e-05,
        "generalized": 1.406e-05,
    },
}

#: Seed-run elapsed time of dpml with two leaders on 8 ranks, 4 per node.
TWO_LEADER_ELAPSED = 4.598400000000001e-06

#: The phase-engine table's grid: the multi-leader designs the grid
#: above leaves untimed, on the two canonical multi-node shapes, a
#: ragged one, one rank per node and a 32-rank job, at two counts.
ENGINE_CASES = ("dpml_multilevel", "dpml_pipelined", "reduce", "bcast")
ENGINE_LAYOUTS = ((8, 4, 2), (9, 3, 3), (10, 4, 3), (3, 1, 3), (32, 8, 4))
ENGINE_COUNTS = (13, 5000)

#: Recorded elapsed time of each engine case on cluster B:
#: ``dpml_multilevel``, ``dpml_pipelined`` with ``pipeline_unit=64`` (so
#: 5000 elements run k = 16 sub-allreduces) and the rooted DPML reduce
#: and bcast with ``root=nranks // 2``, each with ``leaders=min(2,
#: ppn)`` (a count above ppn is a ConfigError).  Keyed ``(case, layout,
#: count)``; the sanitized rerun must reproduce the same values.
ENGINE_ELAPSED = {
    ("dpml_multilevel", (8, 4, 2), 13): 4.39952e-06,
    ("dpml_multilevel", (8, 4, 2), 5000): 7.315800000000002e-05,
    ("dpml_multilevel", (9, 3, 3), 13): 6.828519999999999e-06,
    ("dpml_multilevel", (9, 3, 3), 5000): 0.000121051,
    ("dpml_multilevel", (10, 4, 3), 13): 6.824819999999999e-06,
    ("dpml_multilevel", (10, 4, 3), 5000): 0.000120861,
    ("dpml_multilevel", (3, 1, 3), 13): 4.2426799999999995e-06,
    ("dpml_multilevel", (3, 1, 3), 5000): 0.00014220487999999995,
    ("dpml_multilevel", (32, 8, 4), 13): 6.39178e-06,
    ("dpml_multilevel", (32, 8, 4), 5000): 9.971249999999996e-05,
    ("dpml_pipelined", (8, 4, 2), 13): 3.6402200000000004e-06,
    ("dpml_pipelined", (8, 4, 2), 5000): 6.742680000000002e-05,
    ("dpml_pipelined", (9, 3, 3), 13): 5.987219999999999e-06,
    ("dpml_pipelined", (9, 3, 3), 5000): 0.00010106830000000002,
    ("dpml_pipelined", (10, 4, 3), 13): 6.0655199999999995e-06,
    ("dpml_pipelined", (10, 4, 3), 5000): 0.00010554974000000008,
    ("dpml_pipelined", (3, 1, 3), 13): 5.595099999999999e-06,
    ("dpml_pipelined", (3, 1, 3), 5000): 0.00011179709999999987,
    ("dpml_pipelined", (32, 8, 4), 13): 5.6363199999999994e-06,
    ("dpml_pipelined", (32, 8, 4), 5000): 0.00011703760000000004,
    ("reduce", (8, 4, 2), 13): 3.6402200000000004e-06,
    ("reduce", (8, 4, 2), 5000): 6.2108e-05,
    ("reduce", (9, 3, 3), 13): 3.8729799999999995e-06,
    ("reduce", (9, 3, 3), 5000): 8.5759e-05,
    ("reduce", (10, 4, 3), 13): 3.78664e-06,
    ("reduce", (10, 4, 3), 5000): 8.8908e-05,
    ("reduce", (3, 1, 3), 13): 2.0679599999999997e-06,
    ("reduce", (3, 1, 3), 5000): 9.779188e-05,
    ("reduce", (32, 8, 4), 13): 5.6363199999999994e-06,
    ("reduce", (32, 8, 4), 5000): 0.00010531600000000002,
    ("bcast", (8, 4, 2), 13): 3.31512e-06,
    ("bcast", (8, 4, 2), 5000): 4.907799999999999e-05,
    ("bcast", (9, 3, 3), 13): 3.74844e-06,
    ("bcast", (9, 3, 3), 5000): 6.720600000000002e-05,
    ("bcast", (10, 4, 3), 13): 3.74844e-06,
    ("bcast", (10, 4, 3), 5000): 6.730600000000001e-05,
    ("bcast", (3, 1, 3), 13): 2.1830399999999995e-06,
    ("bcast", (3, 1, 3), 5000): 7.929888000000002e-05,
    ("bcast", (32, 8, 4), 13): 4.97392e-06,
    ("bcast", (32, 8, 4), 5000): 7.350600000000006e-05,
}

#: The SHArP table's grid: both switch-offload designs on cluster A (the
#: one preset with a SHArP tree), on the engine layouts plus (6, 2, 3),
#: whose sockets hold one rank each (a socket leader with no one to
#: gather).  (3, 1, 3) has one rank per node.
SHARP_CASES = ("sharp_node_leader", "sharp_socket_leader")
SHARP_LAYOUTS = ((8, 4, 2), (9, 3, 3), (10, 4, 3), (3, 1, 3), (6, 2, 3), (32, 8, 4))
SHARP_COUNTS = (13, 5000)

#: Recorded elapsed time of each SHArP case on cluster A.  Keyed
#: ``(algorithm, layout, count)``; the sanitized rerun must reproduce
#: the same values.
SHARP_ELAPSED = {
    ('sharp_node_leader', (8, 4, 2), 13): 4.010100000000001e-06,
    ('sharp_node_leader', (8, 4, 2), 5000): 0.00041987999999999997,
    ('sharp_node_leader', (9, 3, 3), 13): 3.9180000000000004e-06,
    ('sharp_node_leader', (9, 3, 3), 5000): 0.00041130999999999996,
    ('sharp_node_leader', (10, 4, 3), 13): 4.010100000000001e-06,
    ('sharp_node_leader', (10, 4, 3), 5000): 0.00041987999999999997,
    ('sharp_node_leader', (3, 1, 3), 13): 2.59984e-06,
    ('sharp_node_leader', (3, 1, 3), 5000): 0.00036849999999999996,
    ('sharp_node_leader', (6, 2, 3), 13): 3.828500000000001e-06,
    ('sharp_node_leader', (6, 2, 3), 5000): 0.00040374,
    ('sharp_node_leader', (32, 8, 4), 13): 4.3733e-06,
    ('sharp_node_leader', (32, 8, 4), 5000): 0.00045216,
    ('sharp_socket_leader', (8, 4, 2), 13): 3.22018e-06,
    ('sharp_socket_leader', (8, 4, 2), 5000): 0.0003999399999999999,
    ('sharp_socket_leader', (9, 3, 3), 13): 3.21186e-06,
    ('sharp_socket_leader', (9, 3, 3), 5000): 0.0003967399999999999,
    ('sharp_socket_leader', (10, 4, 3), 13): 3.22018e-06,
    ('sharp_socket_leader', (10, 4, 3), 5000): 0.0003999399999999999,
    ('sharp_socket_leader', (3, 1, 3), 13): 2.59984e-06,
    ('sharp_socket_leader', (3, 1, 3), 5000): 0.00036849999999999996,
    ('sharp_socket_leader', (6, 2, 3), 13): 2.61648e-06,
    ('sharp_socket_leader', (6, 2, 3), 5000): 0.0003748999999999999,
    ('sharp_socket_leader', (32, 8, 4), 13): 3.4103599999999997e-06,
    ('sharp_socket_leader', (32, 8, 4), 5000): 0.00042030144,
}

#: The collective-family table's grid: the reduce, bcast, allgather
#: and reduce-scatter entries and the allreduces built from the same
#: schedules (tree, halving, doubling, ring), none of which the grids
#: above time.  Keyed ``(kind, algorithm)``.
FAMILY_CASES = (
    ("reduce", "binomial"),
    ("reduce", "knomial"),
    ("bcast", "binomial"),
    ("bcast", "knomial"),
    ("bcast", "scatter_ring"),
    ("allgather", "recursive_doubling"),
    ("allgather", "bruck"),
    ("allgather", "ring"),
    ("reduce_scatter", "recursive_halving"),
    ("reduce_scatter", "pairwise"),
    ("allreduce", "rabenseifner"),
    ("allreduce", "recursive_doubling"),
    ("allreduce", "reduce_bcast"),
    ("allreduce", "generalized"),
    ("allreduce", "optimal_rsag"),
    ("allreduce", "dualroot_pipelined"),
)
FAMILY_LAYOUTS = ((8, 4, 2), (9, 3, 3), (16, 4, 4), (3, 1, 3))
FAMILY_COUNTS = (13, 5000)

#: Recorded elapsed time of each family case on cluster B, rooted
#: kinds at ``root=nranks // 2``, every algorithm at its default
#: keywords.  Keyed ``(kind, algorithm, layout, count)``; the sanitized
#: rerun must reproduce the same values.
FAMILY_ELAPSED = {
    ("reduce", "binomial", (8, 4, 2), 13): 3.1756000000000006e-06,
    ("reduce", "binomial", (8, 4, 2), 5000): 8.884944000000002e-05,
    ("reduce", "binomial", (9, 3, 3), 13): 4.881420000000001e-06,
    ("reduce", "binomial", (9, 3, 3), 5000): 0.00016853432000000005,
    ("reduce", "binomial", (16, 4, 4), 13): 4.894940000000001e-06,
    ("reduce", "binomial", (16, 4, 4), 5000): 0.00013839888000000003,
    ("reduce", "binomial", (3, 1, 3), 13): 2.0679599999999997e-06,
    ("reduce", "binomial", (3, 1, 3), 5000): 9.779188e-05,
    ("reduce", "knomial", (8, 4, 2), 13): 3.4036800000000004e-06,
    ("reduce", "knomial", (8, 4, 2), 5000): 0.00010844944000000001,
    ("reduce", "knomial", (9, 3, 3), 13): 4.673360000000001e-06,
    ("reduce", "knomial", (9, 3, 3), 5000): 0.00021676976000000006,
    ("reduce", "knomial", (16, 4, 4), 13): 4.100920000000001e-06,
    ("reduce", "knomial", (16, 4, 4), 5000): 0.00020493432000000004,
    ("reduce", "knomial", (3, 1, 3), 13): 2.0679599999999997e-06,
    ("reduce", "knomial", (3, 1, 3), 5000): 9.779188e-05,
    ("bcast", "binomial", (8, 4, 2), 13): 3.113199999999999e-06,
    ("bcast", "binomial", (8, 4, 2), 5000): 6.524944000000002e-05,
    ("bcast", "binomial", (9, 3, 3), 13): 4.5034200000000005e-06,
    ("bcast", "binomial", (9, 3, 3), 5000): 0.00013766975999999998,
    ("bcast", "binomial", (16, 4, 4), 13): 4.813040000000001e-06,
    ("bcast", "binomial", (16, 4, 4), 5000): 0.00010729888000000004,
    ("bcast", "binomial", (3, 1, 3), 13): 2.1830399999999995e-06,
    ("bcast", "binomial", (3, 1, 3), 5000): 7.929888000000002e-05,
    ("bcast", "knomial", (8, 4, 2), 13): 3.0256799999999987e-06,
    ("bcast", "knomial", (8, 4, 2), 5000): 7.844944000000001e-05,
    ("bcast", "knomial", (9, 3, 3), 13): 4.366079999999999e-06,
    ("bcast", "knomial", (9, 3, 3), 5000): 0.00016382664000000002,
    ("bcast", "knomial", (16, 4, 4), 13): 3.99208e-06,
    ("bcast", "knomial", (16, 4, 4), 5000): 0.00015294832000000008,
    ("bcast", "knomial", (3, 1, 3), 13): 2.1830399999999995e-06,
    ("bcast", "knomial", (3, 1, 3), 5000): 7.929888000000002e-05,
    ("bcast", "scatter_ring", (8, 4, 2), 13): 1.0296240000000001e-05,
    ("bcast", "scatter_ring", (8, 4, 2), 5000): 6.6278e-05,
    ("bcast", "scatter_ring", (9, 3, 3), 13): 1.3247960000000003e-05,
    ("bcast", "scatter_ring", (9, 3, 3), 5000): 7.3478e-05,
    ("bcast", "scatter_ring", (16, 4, 4), 13): 1.995704000000001e-05,
    ("bcast", "scatter_ring", (16, 4, 4), 5000): 8.289975999999997e-05,
    ("bcast", "scatter_ring", (3, 1, 3), 13): 5.3508000000000005e-06,
    ("bcast", "scatter_ring", (3, 1, 3), 5000): 5.4253440000000014e-05,
    ("allgather", "recursive_doubling", (8, 4, 2), 13): 3.55676e-06,
    ("allgather", "recursive_doubling", (8, 4, 2), 5000): 0.00021954943999999985,
    ("allgather", "recursive_doubling", (9, 3, 3), 13): 5.987439999999999e-06,
    ("allgather", "recursive_doubling", (9, 3, 3), 5000): 0.0003481842,
    ("allgather", "recursive_doubling", (16, 4, 4), 13): 6.05532e-06,
    ("allgather", "recursive_doubling", (16, 4, 4), 5000): 0.0005831918800000013,
    ("allgather", "recursive_doubling", (3, 1, 3), 13): 3.3996799999999997e-06,
    ("allgather", "recursive_doubling", (3, 1, 3), 5000): 8.409888000000003e-05,
    ("allgather", "bruck", (8, 4, 2), 13): 4.701479999999999e-06,
    ("allgather", "bruck", (8, 4, 2), 5000): 0.00031301332,
    ("allgather", "bruck", (9, 3, 3), 13): 5.987439999999999e-06,
    ("allgather", "bruck", (9, 3, 3), 5000): 0.0003481842,
    ("allgather", "bruck", (16, 4, 4), 13): 7.133479999999999e-06,
    ("allgather", "bruck", (16, 4, 4), 5000): 0.0006631631600000016,
    ("allgather", "bruck", (3, 1, 3), 13): 3.3996799999999997e-06,
    ("allgather", "bruck", (3, 1, 3), 5000): 8.409888000000003e-05,
    ("allgather", "ring", (8, 4, 2), 13): 7.748080000000002e-06,
    ("allgather", "ring", (8, 4, 2), 5000): 0.00029839008,
    ("allgather", "ring", (9, 3, 3), 13): 9.44662e-06,
    ("allgather", "ring", (9, 3, 3), 5000): 0.00033913252000000005,
    ("allgather", "ring", (16, 4, 4), 13): 1.636272e-05,
    ("allgather", "ring", (16, 4, 4), 5000): 0.0006243296000000005,
    ("allgather", "ring", (3, 1, 3), 13): 3.3996799999999997e-06,
    ("allgather", "ring", (3, 1, 3), 5000): 8.409888000000003e-05,
    ("reduce_scatter", "recursive_halving", (8, 4, 2), 13): 3.0314400000000006e-06,
    ("reduce_scatter", "recursive_halving", (8, 4, 2), 5000): 4.3690500000000005e-05,
    ("reduce_scatter", "recursive_halving", (9, 3, 3), 13): 1.1391480000000001e-05,
    ("reduce_scatter", "recursive_halving", (9, 3, 3), 5000): 4.980507999999999e-05,
    ("reduce_scatter", "recursive_halving", (16, 4, 4), 13): 4.66042e-06,
    ("reduce_scatter", "recursive_halving", (16, 4, 4), 5000): 5.171766000000001e-05,
    ("reduce_scatter", "recursive_halving", (3, 1, 3), 13): 3.2991000000000003e-06,
    ("reduce_scatter", "recursive_halving", (3, 1, 3), 5000): 3.380612e-05,
    ("reduce_scatter", "pairwise", (8, 4, 2), 13): 9.768860000000001e-06,
    ("reduce_scatter", "pairwise", (8, 4, 2), 5000): 4.7450000000000015e-05,
    ("reduce_scatter", "pairwise", (9, 3, 3), 13): 1.1391480000000001e-05,
    ("reduce_scatter", "pairwise", (9, 3, 3), 5000): 4.980507999999999e-05,
    ("reduce_scatter", "pairwise", (16, 4, 4), 13): 2.2690619999999997e-05,
    ("reduce_scatter", "pairwise", (16, 4, 4), 5000): 6.428444000000001e-05,
    ("reduce_scatter", "pairwise", (3, 1, 3), 13): 3.2991000000000003e-06,
    ("reduce_scatter", "pairwise", (3, 1, 3), 5000): 3.380612e-05,
    ("allreduce", "rabenseifner", (8, 4, 2), 13): 6.0208800000000005e-06,
    ("allreduce", "rabenseifner", (8, 4, 2), 5000): 7.721850000000003e-05,
    ("allreduce", "rabenseifner", (9, 3, 3), 13): 9.92606e-06,
    ("allreduce", "rabenseifner", (9, 3, 3), 5000): 0.00012109349999999998,
    ("allreduce", "rabenseifner", (16, 4, 4), 13): 9.27734e-06,
    ("allreduce", "rabenseifner", (16, 4, 4), 5000): 9.480036000000001e-05,
    ("allreduce", "rabenseifner", (3, 1, 3), 13): 6.732979999999999e-06,
    ("allreduce", "rabenseifner", (3, 1, 3), 5000): 0.00014220487999999995,
    ("allreduce", "recursive_doubling", (8, 4, 2), 13): 3.196660000000001e-06,
    ("allreduce", "recursive_doubling", (8, 4, 2), 5000): 0.00010249232000000003,
    ("allreduce", "recursive_doubling", (9, 3, 3), 13): 5.2160000000000005e-06,
    ("allreduce", "recursive_doubling", (9, 3, 3), 5000): 0.00016516319999999998,
    ("allreduce", "recursive_doubling", (16, 4, 4), 13): 4.916000000000001e-06,
    ("allreduce", "recursive_doubling", (16, 4, 4), 5000): 0.00015636320000000003,
    ("allreduce", "recursive_doubling", (3, 1, 3), 13): 4.2426799999999995e-06,
    ("allreduce", "recursive_doubling", (3, 1, 3), 5000): 0.00014023432,
    ("allreduce", "reduce_bcast", (8, 4, 2), 13): 6.288800000000001e-06,
    ("allreduce", "reduce_bcast", (8, 4, 2), 5000): 0.00015409888000000006,
    ("allreduce", "reduce_bcast", (9, 3, 3), 13): 9.419680000000001e-06,
    ("allreduce", "reduce_bcast", (9, 3, 3), 5000): 0.00030378264000000004,
    ("allreduce", "reduce_bcast", (16, 4, 4), 13): 9.70798e-06,
    ("allreduce", "reduce_bcast", (16, 4, 4), 5000): 0.0002456977600000001,
    ("allreduce", "reduce_bcast", (3, 1, 3), 13): 4.2426799999999995e-06,
    ("allreduce", "reduce_bcast", (3, 1, 3), 5000): 0.00017708376,
    ("allreduce", "generalized", (8, 4, 2), 13): 6.0208800000000005e-06,
    ("allreduce", "generalized", (8, 4, 2), 5000): 7.709350000000002e-05,
    ("allreduce", "generalized", (9, 3, 3), 13): 6.4575e-06,
    ("allreduce", "generalized", (9, 3, 3), 5000): 7.150280000000001e-05,
    ("allreduce", "generalized", (16, 4, 4), 13): 9.27734e-06,
    ("allreduce", "generalized", (16, 4, 4), 5000): 9.486276000000001e-05,
    ("allreduce", "generalized", (3, 1, 3), 13): 4.4424e-06,
    ("allreduce", "generalized", (3, 1, 3), 5000): 5.591896000000001e-05,
    ("allreduce", "optimal_rsag", (8, 4, 2), 13): 6.0208800000000005e-06,
    ("allreduce", "optimal_rsag", (8, 4, 2), 5000): 7.721850000000003e-05,
    ("allreduce", "optimal_rsag", (9, 3, 3), 13): 1.1483700000000003e-05,
    ("allreduce", "optimal_rsag", (9, 3, 3), 5000): 0.00013248592,
    ("allreduce", "optimal_rsag", (16, 4, 4), 13): 9.27734e-06,
    ("allreduce", "optimal_rsag", (16, 4, 4), 5000): 9.480036000000001e-05,
    ("allreduce", "optimal_rsag", (3, 1, 3), 13): 8.2815e-06,
    ("allreduce", "optimal_rsag", (3, 1, 3), 5000): 0.00012364545999999995,
    ("allreduce", "dualroot_pipelined", (8, 4, 2), 13): 6.636279999999999e-06,
    ("allreduce", "dualroot_pipelined", (8, 4, 2), 5000): 9.140000000000001e-05,
    ("allreduce", "dualroot_pipelined", (9, 3, 3), 13): 9.85176e-06,
    ("allreduce", "dualroot_pipelined", (9, 3, 3), 5000): 0.00011210000000000003,
    ("allreduce", "dualroot_pipelined", (16, 4, 4), 13): 1.0578059999999998e-05,
    ("allreduce", "dualroot_pipelined", (16, 4, 4), 5000): 0.000127375,
    ("allreduce", "dualroot_pipelined", (3, 1, 3), 13): 4.5156000000000004e-06,
    ("allreduce", "dualroot_pipelined", (3, 1, 3), 5000): 7.71e-05,
}

#: Kernel counters of the seed's heap-only kernel for dpml at 16 ranks,
#: 4 per node; the fast paths must stay below them.
SEED_COUNTERS_16X4 = {"events_allocated": 1025, "heap_pushes": 1025}


def _inputs(nranks, seed=7, count=COUNT):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(1, 10, count).astype(np.float64) for _ in range(nranks)
    ]


def _allreduce_fn(inputs, algorithm, **kw):
    def fn(comm):
        data = make_payload(len(inputs[comm.rank]), data=inputs[comm.rank])
        result = yield from comm.allreduce(data, SUM, algorithm=algorithm, **kw)
        return result.array

    return fn


def _run(
    layout, algorithm, *, sanitize=False, fidelity=None, faults=None,
    cluster=cluster_b, seed=7, **kw
):
    """One allreduce job on real data (seeded integer-valued inputs)."""
    nranks, ppn, nodes = layout
    return run_job(
        cluster(nodes),
        nranks,
        _allreduce_fn(_inputs(nranks, seed), algorithm, **kw),
        ppn=ppn,
        sanitize=sanitize,
        fidelity=fidelity,
        faults=faults,
    )


def _assert_identical(golden, fast):
    assert golden.elapsed == fast.elapsed  # bit-identical simulated time
    for rank, (want, got) in enumerate(zip(golden.values, fast.values)):
        np.testing.assert_array_equal(want, got, err_msg=f"rank {rank}")


def _assert_record(job, elapsed, seed=7):
    """``job`` reproduces the committed record: the seed's elapsed time
    and, on every rank, the exact numpy sum of the inputs."""
    assert job.elapsed == elapsed  # bit-identical simulated time
    want = np.sum(_inputs(len(job.values), seed), axis=0)
    for rank, got in enumerate(job.values):
        np.testing.assert_array_equal(got, want, err_msg=f"rank {rank}")


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=layout_id)
def test_fast_mode_matches_seed_on_layout_grid(layout):
    _assert_record(_run(layout, "dpml"), LAYOUT_ELAPSED[layout])


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:3], ids=layout_id)
def test_fast_mode_matches_seed_under_sanitizer(layout):
    job = _run(layout, "dpml", sanitize=True)
    _assert_record(job, LAYOUT_ELAPSED[layout])
    assert not job.reports


@pytest.mark.parametrize(
    "algorithm",
    ["dpml", "dpml_pipelined", "dpml_tuned", "mvapich2", "hierarchical", "ring"]
    + list(LITERATURE_FAMILIES),
)
def test_fast_mode_matches_seed_across_algorithms(algorithm):
    job = _run((16, 4, 4), algorithm)
    _assert_record(job, ALGORITHM_ELAPSED["exact"][algorithm])


def test_two_leader_record():
    """dpml with an explicit leader count reproduces its record."""
    job = _run((8, 4, 2), "dpml", seed=3, leaders=2)
    _assert_record(job, TWO_LEADER_ELAPSED, seed=3)


def _engine_fn(case, inputs, leaders, root):
    """Rank function of one phase-engine case on real data."""

    def fn(comm):
        data = make_payload(len(inputs[comm.rank]), data=inputs[comm.rank])
        if case == "reduce":
            out = yield from comm.reduce(
                data, SUM, root=root, algorithm="dpml", leaders=leaders
            )
        elif case == "bcast":
            out = yield from comm.bcast(
                data if comm.rank == root else None, root=root,
                algorithm="dpml", leaders=leaders,
            )
        else:
            kw = {"pipeline_unit": 64} if case == "dpml_pipelined" else {}
            out = yield from comm.allreduce(
                data, SUM, algorithm=case, leaders=leaders, **kw
            )
        return None if out is None else out.array

    return fn


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize(
    "key",
    list(itertools.product(ENGINE_CASES, ENGINE_LAYOUTS, ENGINE_COUNTS)),
    ids=lambda key: f"{key[0]}-{layout_id(key[1])}-n{key[2]}",
)
def test_phase_engine_record(key, sanitize):
    """Every multi-leader design off the allreduce grid reproduces its
    record: elapsed bit for bit, the numpy sum (reduce: at the root
    only) or the root's vector (bcast) on every rank, and no sanitizer
    report."""
    case, layout, count = key
    nranks, ppn, nodes = layout
    inputs = _inputs(nranks, count=count)
    root = nranks // 2
    job = run_job(
        cluster_b(nodes), nranks,
        _engine_fn(case, inputs, min(2, ppn), root),
        ppn=ppn, sanitize=sanitize,
    )
    assert job.elapsed == ENGINE_ELAPSED[key]
    assert not job.reports
    total = np.sum(inputs, axis=0)
    for rank, got in enumerate(job.values):
        if case == "bcast":
            np.testing.assert_array_equal(got, inputs[root], err_msg=f"rank {rank}")
        elif case == "reduce" and rank != root:
            assert got is None, f"rank {rank}"
        else:
            np.testing.assert_array_equal(got, total, err_msg=f"rank {rank}")


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize(
    "key",
    list(itertools.product(SHARP_CASES, SHARP_LAYOUTS, SHARP_COUNTS)),
    ids=lambda key: f"{key[0]}-{layout_id(key[1])}-n{key[2]}",
)
def test_sharp_record(key, sanitize):
    """Both SHArP designs reproduce their record: elapsed bit for bit,
    the numpy sum on every rank and no sanitizer report."""
    algorithm, layout, count = key
    nranks, ppn, nodes = layout
    inputs = _inputs(nranks, count=count)
    job = run_job(
        cluster_a(nodes), nranks, _allreduce_fn(inputs, algorithm),
        ppn=ppn, sanitize=sanitize,
    )
    assert job.elapsed == SHARP_ELAPSED[key]
    assert not job.reports
    total = np.sum(inputs, axis=0)
    for rank, got in enumerate(job.values):
        np.testing.assert_array_equal(got, total, err_msg=f"rank {rank}")


def _family_fn(kind, algorithm, inputs, root):
    """Rank function of one collective-family case on real data."""

    def fn(comm):
        data = make_payload(len(inputs[comm.rank]), data=inputs[comm.rank])
        if kind == "reduce":
            out = yield from comm.reduce(data, SUM, root=root, algorithm=algorithm)
        elif kind == "bcast":
            out = yield from comm.bcast(
                data if comm.rank == root else None, root=root,
                algorithm=algorithm,
            )
        elif kind == "allgather":
            out = yield from comm.allgather(data, algorithm=algorithm)
        else:
            out = yield from getattr(comm, kind)(data, SUM, algorithm=algorithm)
        return None if out is None else out.array

    return fn


def _family_want(kind, inputs, root, rank):
    """What rank ``rank`` of a ``kind`` case must return, from numpy."""
    total = np.sum(inputs, axis=0)
    if kind == "reduce":
        return total if rank == root else None
    if kind == "bcast":
        return inputs[root]
    if kind == "allgather":
        return np.concatenate(inputs)
    if kind == "reduce_scatter":
        lo, hi = split_bounds(len(total), len(inputs))[rank]
        return total[lo:hi]
    return total


def run_family_case(key, sanitize=False):
    """Run one ``(kind, algorithm, layout, count)`` family case."""
    kind, algorithm, layout, count = key
    nranks, ppn, nodes = layout
    inputs = _inputs(nranks, count=count)
    job = run_job(
        cluster_b(nodes), nranks,
        _family_fn(kind, algorithm, inputs, nranks // 2),
        ppn=ppn, sanitize=sanitize,
    )
    return job, inputs


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize(
    "key",
    [
        (kind, algorithm, layout, count)
        for (kind, algorithm), layout, count
        in itertools.product(FAMILY_CASES, FAMILY_LAYOUTS, FAMILY_COUNTS)
    ],
    ids=lambda key: f"{key[0]}-{key[1]}-{layout_id(key[2])}-n{key[3]}",
)
def test_collective_family_record(key, sanitize):
    """Every case of the collective family reproduces its record:
    elapsed bit for bit, the numpy result on every rank (``None`` off
    the root for reduce) and no sanitizer report."""
    job, inputs = run_family_case(key, sanitize)
    assert job.elapsed == FAMILY_ELAPSED[key]
    assert not job.reports
    root = len(inputs) // 2
    for rank, got in enumerate(job.values):
        want = _family_want(key[0], inputs, root, rank)
        if want is None:
            assert got is None, f"rank {rank}"
        else:
            np.testing.assert_array_equal(got, want, err_msg=f"rank {rank}")


@pytest.mark.parametrize("algorithm", GOLDEN_ALGORITHMS)
def test_hybrid_matches_exact_values_across_algorithms(algorithm):
    """Every registered allreduce: hybrid and exact fidelity produce
    bit-identical result buffers.  Plan-backed algorithms take the
    macro-charged path; the rest must fall back to exact transparently,
    so both classes ride this assertion."""
    layout = (16, 4, 4)
    # SHArP designs require the Cluster-A fabric (Section 6.1).
    cluster = cluster_a if algorithm.startswith("sharp") else cluster_b
    exact = _run(layout, algorithm, fidelity="exact", cluster=cluster)
    hybrid = _run(layout, algorithm, fidelity="hybrid", cluster=cluster)
    for rank, (want, got) in enumerate(zip(exact.values, hybrid.values)):
        np.testing.assert_array_equal(want, got, err_msg=f"rank {rank}")


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:4], ids=layout_id)
def test_hybrid_timing_is_deterministic(layout):
    """Repeated hybrid runs are bit-identical: same simulated elapsed,
    same macro charges, same buffers.  Only homogeneous layouts are
    macro-eligible; ragged ones must deterministically fall back."""
    nranks, ppn, nodes = layout
    first = _run(layout, "dpml", fidelity="hybrid")
    second = _run(layout, "dpml", fidelity="hybrid")
    _assert_identical(first, second)
    assert first.counters["macro_events"] == second.counters["macro_events"]
    if nranks == ppn * nodes:
        assert first.counters["macro_events"] > 0
    else:
        assert first.counters["macro_events"] == 0


def test_hybrid_falls_back_to_exact_under_faults():
    """A fault plan disqualifies macro-charging (the charge formulas
    know nothing about stragglers), so hybrid must compose with the
    fault subsystem by degrading to the exact path — sanitizer-clean
    and bit-identical to an exact faulted run, elapsed included."""
    layout = (16, 4, 4)
    plan = FaultPlan(faults=(Straggler(rank=3, factor=8.0),))
    exact = _run(layout, "dpml", fidelity="exact", faults=plan, sanitize=True)
    hybrid = _run(layout, "dpml", fidelity="hybrid", faults=plan, sanitize=True)
    _assert_identical(exact, hybrid)
    assert not exact.reports
    assert not hybrid.reports
    assert hybrid.counters["macro_events"] == 0


class TestLiteratureFamilyGoldens:
    """The competing literature designs ride every determinism contract
    the DPML family does: committed records in both fidelities, session
    reuse, and seeded fault replays."""

    LAYOUT = (16, 4, 4)

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    @pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
    def test_matches_seed_in_both_fidelities(self, algorithm, fidelity):
        """Every family reproduces its committed record in both
        fidelities (hybrid intentionally re-times, so each fidelity has
        its own elapsed)."""
        job = _run(self.LAYOUT, algorithm, fidelity=fidelity)
        _assert_record(job, ALGORITHM_ELAPSED[fidelity][algorithm])

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_hybrid_macro_charges_on_homogeneous_layout(self, algorithm):
        """The new plans actually engage: one macro event per call on
        the homogeneous golden layout, zero on a ragged one."""
        hybrid = _run(self.LAYOUT, algorithm, fidelity="hybrid")
        assert hybrid.counters["macro_events"] == 1
        ragged = _run((10, 4, 3), algorithm, fidelity="hybrid")
        assert ragged.counters["macro_events"] == 0

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_reused_session_replays_bit_identically(self, algorithm):
        """Back-to-back runs on one reused SimSession are bit-identical
        to each other and to a fresh-machine run."""
        from repro.mpi.runtime import SimSession

        nranks, ppn, nodes = self.LAYOUT
        rng = np.random.default_rng(11)
        inputs = [
            rng.integers(1, 10, COUNT).astype(np.float64)
            for _ in range(nranks)
        ]
        session = SimSession(cluster_b(nodes), nranks, ppn, sanitize=True)
        fn = _allreduce_fn(inputs, algorithm)
        first = session.run(fn)
        second = session.run(fn)
        _assert_identical(first, second)
        fresh = run_job(cluster_b(nodes), nranks, fn, ppn=ppn, sanitize=True)
        _assert_identical(first, fresh)
        assert not first.reports and not second.reports

    @pytest.mark.parametrize("algorithm", LITERATURE_FAMILIES)
    def test_fault_replay_is_seed_deterministic(self, algorithm):
        """The same (plan, seed) pair replays bit-identically — values
        and elapsed — run to run, sanitizer attached."""
        plan = FaultPlan(
            faults=(
                ArrivalSkew(magnitude=2e-4, pattern="random"),
                Straggler(rank=5, factor=4.0),
            )
        )
        nranks, ppn, nodes = self.LAYOUT
        rng = np.random.default_rng(13)
        inputs = [
            rng.integers(1, 10, COUNT).astype(np.float64)
            for _ in range(nranks)
        ]
        runs = [
            run_job(
                cluster_b(nodes), nranks, _allreduce_fn(inputs, algorithm),
                ppn=ppn, sanitize=True, faults=plan, fault_seed=21,
            )
            for _ in range(2)
        ]
        _assert_identical(runs[0], runs[1])
        assert not runs[0].reports
        # ... and the skew actually ran: a fault-free job is faster.
        clean = run_job(
            cluster_b(nodes), nranks, _allreduce_fn(inputs, algorithm),
            ppn=ppn, sanitize=True,
        )
        assert clean.elapsed < runs[0].elapsed


class TestHybridPlanFallbackCounter:
    """Hybrid-mode dispatch of a planless algorithm must be *counted*,
    never silent (the negative-space check of the phase-plan audit)."""

    def test_planless_algorithm_increments_counter(self):
        job = _run((16, 4, 4), "ring", fidelity="hybrid")
        assert job.counters["macro_events"] == 0
        assert job.counters["hybrid_plan_fallbacks"] == {"ring": 16}

    def test_planned_algorithm_does_not(self):
        job = _run((16, 4, 4), "dpml", fidelity="hybrid")
        assert job.counters["macro_events"] == 1
        assert job.counters["hybrid_plan_fallbacks"] == {}

    def test_exact_mode_keeps_historical_counter_shape(self):
        job = _run((16, 4, 4), "ring", fidelity="exact")
        assert "hybrid_plan_fallbacks" not in job.counters


def test_counters_reflect_modes():
    """The kernel actually takes the fast paths: zero-delay entries,
    pool reuses, and fewer allocations and delayed entries than the
    seed's heap-only kernel."""
    fast = _run((16, 4, 4), "dpml")
    assert fast.counters["nowq_entries"] > 0
    assert fast.counters["pool_reuses"] > 0
    for key, seed in SEED_COUNTERS_16X4.items():
        assert fast.counters[key] < seed, key
