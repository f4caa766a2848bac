"""Application kernels and microbenchmarks from the paper's evaluation.

* :mod:`repro.apps.osu` — equivalents of the OSU microbenchmarks used
  in Section 3 (``osu_mbw_mr``) and Section 6 (``osu_allreduce``);
* :mod:`repro.apps.hpcg` — an HPCG-like conjugate-gradient solver whose
  DDOT allreduces dominate MPI time (Section 6.5);
* :mod:`repro.apps.miniamr` — a miniAMR-like adaptive-mesh-refinement
  loop whose refinement phase performs growing allreduces (Section 6.6).
"""

from repro.apps.hpcg import run_hpcg
from repro.apps.miniamr import run_miniamr
from repro.apps.osu import multi_pair_bandwidth, relative_throughput

__all__ = [
    "multi_pair_bandwidth",
    "relative_throughput",
    "run_hpcg",
    "run_miniamr",
]
