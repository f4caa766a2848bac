"""Version of the repro package and identity of its simulated model."""

__version__ = "1.0.0"

#: The canonical sha256 of the committed golden literal tables (the
#: golden determinism grid, the golden transport records and the
#: simulated-time records of the golden counters).  Those tables run the
#: message paths and allreduce families on cluster B (SHArP's on A),
#: the multilevel and pipelined DPML variants (k > 1 included) and the
#: rooted DPML reduce and bcast on B, the collective family on B (the
#: binomial and k-nomial reduce and bcast, the scatter-ring bcast, the
#: recursive-doubling, Bruck and ring allgathers, the recursive-halving
#: and pairwise reduce-scatters, and the Rabenseifner,
#: recursive-doubling and reduce+bcast allreduces), DPML on all four
#: clusters, and the MVAPICH2 and Intel MPI baselines on the Omni-Path
#: clusters C and D.  A change that re-pins a golden
#: value must set this to the new hash (``tests/test_model_id.py``
#: prints it); the result store keys every point on it.  The models no
#: table runs (the compute phases of HPCG and miniAMR, the OSU
#: throughput study) are not stored, so their changes need no bump.
MODEL_ID = "11eda47dab45c428f1d813a8810f8d3eda4d712d0510791e283c0a0b1a001f5a"
