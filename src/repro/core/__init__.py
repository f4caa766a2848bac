"""The paper's contribution: DPML and friends.

* :mod:`repro.core.dpml` — the 4-phase Data Partitioning-based
  Multi-Leader allreduce (Section 4.1): each rank's node work is step
  lists, and its one runner (``run_dpml``) runs every host-leader
  design below, the SHArP designs included;
* :mod:`repro.core.pipelined` — DPML-Pipelined, whose phase 3 is ``k``
  sub-partition non-blocking inter-node allreduces (Section 4.2);
* :mod:`repro.core.multilevel`, :mod:`repro.core.dpml_reduce` and
  :mod:`repro.core.dpml_bcast` — the socket-level variant (Section 3)
  and the rooted reduce and bcast (Section 8), each only its step lists
  and phase 3;
* :mod:`repro.core.sharp_designs` — the SHArP node-level-leader and
  socket-level-leader designs (Section 4.3): only their step lists
  (DPML's phases 1, 2 and 4 at ``l = 1``) and the switch as phase 3;
* :mod:`repro.core.model` — the analytical cost model (Section 5);
* :mod:`repro.core.tuning` — the size-based selection tables, among
  them the per-cluster DPML-tuned one of the Figure 9/10 comparisons;
* :mod:`repro.core.autotune` — the empirical search behind those
  tables: one :class:`~repro.bench.spec.SweepSpec` per candidate group,
  then the fastest candidate per message size.
"""

from repro.core.adaptive import allreduce_adaptive
from repro.core.dpml import allreduce_dpml, allreduce_hierarchical
from repro.core.dpml_bcast import bcast_dpml
from repro.core.dpml_reduce import reduce_dpml
from repro.core.model import CostModel
from repro.core.multilevel import allreduce_dpml_multilevel
from repro.core.pipelined import allreduce_dpml_pipelined
from repro.core.sharp_designs import (
    allreduce_sharp_node_leader,
    allreduce_sharp_socket_leader,
)

__all__ = [
    "CostModel",
    "allreduce_adaptive",
    "allreduce_dpml",
    "allreduce_dpml_multilevel",
    "allreduce_dpml_pipelined",
    "allreduce_hierarchical",
    "allreduce_sharp_node_leader",
    "allreduce_sharp_socket_leader",
    "bcast_dpml",
    "reduce_dpml",
]
