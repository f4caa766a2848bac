"""The paper's contribution: DPML and friends.

* :mod:`repro.core.dpml` — the 4-phase Data Partitioning-based
  Multi-Leader allreduce (Section 4.1);
* :mod:`repro.core.pipelined` — DPML-Pipelined with ``k`` sub-partition
  non-blocking inter-node allreduces (Section 4.2);
* :mod:`repro.core.sharp_designs` — the SHArP node-level-leader and
  socket-level-leader designs (Section 4.3);
* :mod:`repro.core.model` — the analytical cost model (Section 5);
* :mod:`repro.core.tuning` — per-cluster leader-count tables and the
  hybrid DPML-tuned selector used in the Figure 9/10 comparisons;
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
from repro.core.tuning import allreduce_dpml_tuned

__all__ = [
    "CostModel",
    "allreduce_adaptive",
    "allreduce_dpml",
    "allreduce_dpml_multilevel",
    "allreduce_dpml_pipelined",
    "allreduce_dpml_tuned",
    "allreduce_hierarchical",
    "allreduce_sharp_node_leader",
    "allreduce_sharp_socket_leader",
    "bcast_dpml",
    "reduce_dpml",
]
