"""Analytical cost model (paper Section 5, Table 1, Equations 1-7).

Implements Rabenseifner's alpha-beta model extended with separate
shared-memory constants, exactly as published:

.. math::

    T_{rd}        &= \\lceil \\lg p \\rceil (a + n b + n c)          \\\\
    T_{copy}      &= l (a' + b' n / l)                               \\\\
    T_{comp}      &= (p/(h l) - 1)\\, n c                            \\\\
    T_{comm}      &= \\lceil \\lg h \\rceil (a + n b / l + n c / l)  \\\\
    T_{comm,k}    &= \\lceil \\lg h \\rceil (a k + n b / l + n c / l)\\\\
    T_{bcast}     &= l (a' + b' n / l)                               \\\\
    T_{allreduce} &= T_{copy} + T_{comp} + T_{comm} + T_{bcast}

Use :meth:`CostModel.from_machine` to derive the constants from a
machine config (``a`` = one-way send+wire+recv, ``b`` = per-process
injection per byte, etc.), or construct with explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError, UnknownAlgorithmError
from repro.machine.config import MachineConfig

__all__ = ["CostModel"]


def _lg_ceil(x: int) -> int:
    if x < 1:
        raise ConfigError(f"invalid count {x}")
    return math.ceil(math.log2(x)) if x > 1 else 0


@dataclass(frozen=True)
class CostModel:
    """The cost model constants of Table 1."""

    a: float  #: startup time per inter-node message
    b: float  #: transfer time per byte, inter-node
    a_shm: float  #: startup time per shared-memory copy (a')
    b_shm: float  #: transfer time per byte, shared-memory copy (b')
    c: float  #: compute cost of one reduction operation per byte

    @classmethod
    def from_machine(cls, config: MachineConfig, nbytes: int = 1 << 30) -> "CostModel":
        """Derive constants from a machine config.

        ``nbytes`` selects the injection regime (PIO vs DMA) used for
        ``b`` on fabrics that distinguish them.
        """
        fabric = config.fabric
        node = config.node
        if fabric.pio_byte_time is not None and nbytes <= fabric.dma_threshold:
            byte_time = fabric.pio_byte_time
        else:
            byte_time = fabric.proc_byte_time
        return cls(
            a=fabric.send_overhead + fabric.wire_latency + fabric.recv_overhead,
            b=byte_time,
            a_shm=node.copy_latency,
            b_shm=node.copy_byte_time,
            c=node.reduce_byte_time,
        )

    # -- Equation 1 --------------------------------------------------------------

    def t_recursive_doubling(self, p: int, n: int) -> float:
        """Eq. 1: flat recursive doubling over ``p`` processes."""
        return _lg_ceil(p) * (self.a + n * self.b + n * self.c)

    # -- Equations 2-6 --------------------------------------------------------------

    def t_copy(self, l: int, n: int) -> float:
        """Eq. 2: phase 1, partition copies into leader shared memory."""
        self._check_leaders(l)
        return l * (self.a_shm + self.b_shm * (n / l))

    def t_comp(self, p: int, h: int, l: int, n: int) -> float:
        """Eq. 3: phase 2, intra-node reduction by the leaders."""
        self._check_leaders(l)
        ppn = p / h
        if ppn < l:
            raise ConfigError(f"p/h = {ppn} < l = {l}: more leaders than ranks")
        return (ppn / l - 1) * n * self.c

    def t_comm(self, h: int, l: int, n: int) -> float:
        """Eq. 4: phase 3, l concurrent inter-node allreduces of n/l."""
        self._check_leaders(l)
        return _lg_ceil(h) * (self.a + n * self.b / l + n * self.c / l)

    def t_comm_pipelined(self, h: int, l: int, n: int, k: int) -> float:
        """Eq. 5: phase 3 with k-way pipelining (serialized cost)."""
        self._check_leaders(l)
        if k < 1:
            raise ConfigError(f"pipeline depth must be >= 1, got {k}")
        return _lg_ceil(h) * (self.a * k + n * self.b / l + n * self.c / l)

    def t_bcast(self, l: int, n: int) -> float:
        """Eq. 6: phase 4, copies back out of shared memory."""
        return self.t_copy(l, n)

    # -- Equation 7 --------------------------------------------------------------

    def t_dpml(self, p: int, h: int, l: int, n: int, k: int = 1) -> float:
        """Eq. 7: total DPML allreduce cost (k > 1 uses Eq. 5)."""
        comm = (
            self.t_comm(h, l, n) if k == 1 else self.t_comm_pipelined(h, l, n, k)
        )
        return self.t_copy(l, n) + self.t_comp(p, h, l, n) + comm + self.t_bcast(l, n)

    def predict_allreduce(
        self,
        algorithm: str,
        *,
        p: int,
        h: int,
        n: int,
        l: "int | None" = None,
    ) -> "float | None":
        """Predicted allreduce time for a registry algorithm, or None.

        The prediction is the sum of the algorithm's phase charges
        (:class:`~repro.core.phases.AllreduceAlgorithm`), so it is the
        duration hybrid fidelity macro-charges; ``l`` is passed on as
        the ``leaders`` keyword.  Exempt algorithms return None — the
        differential oracle skips the cost check for those.  A name
        that is not in the collective registry at all raises
        :class:`~repro.errors.UnknownAlgorithmError`: hybrid mode makes
        a silently unpriced phase a correctness bug, not a plotting nit.
        """
        from repro.mpi.collectives.registry import (
            available_algorithms,
            resolve_phase_plan,
        )

        record = resolve_phase_plan(algorithm)
        if record is None:
            known = available_algorithms()
            if algorithm not in known:
                raise UnknownAlgorithmError(algorithm, known)
            return None
        kwargs = {} if l is None else {"leaders": l}
        return sum(
            seconds for _, seconds in record.charge(self, p=p, h=h, n=n, **kwargs)
        )

    def best_leader_count(
        self, p: int, h: int, n: int, candidates=(1, 2, 4, 8, 16)
    ) -> int:
        """Leader count minimising Eq. 7 among ``candidates``."""
        ppn = p // h
        feasible = [l for l in candidates if l <= ppn]
        if not feasible:
            raise ConfigError(f"no feasible leader count for ppn={ppn}")
        return min(feasible, key=lambda l: self.t_dpml(p, h, l, n))

    @staticmethod
    def _check_leaders(l: int) -> None:
        if l < 1:
            raise ConfigError(f"leader count must be >= 1, got {l}")
