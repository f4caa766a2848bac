"""HPCG-like conjugate-gradient kernel (paper Section 6.5).

HPCG's MPI time is dominated by the DDOT step: every CG iteration
performs global dot products, i.e. ``MPI_Allreduce`` on a *single
double* — exactly the tiny-message regime where the paper's SHArP
designs shine.  Figure 11(a) compares the DDOT time of the host-based
scheme against the SHArP node-leader and socket-leader designs under
weak scaling (56/224/448 ranks at 28 ppn).

This module implements a real conjugate-gradient solve of the 3-D
7-point Laplacian with slab decomposition:

* in **data mode** every rank owns a real slab of the grid, halo planes
  move through the simulated fabric, and the returned residual/solution
  are genuine — the test suite checks convergence against
  ``scipy.sparse.linalg``;
* in **symbolic mode** the arithmetic is skipped (payloads carry only
  sizes) while every charged time is identical, which is what the
  Figure-11 benchmark uses at scale.

Local compute (SpMV, AXPY, local dot) is charged through the machine's
compute model with per-kernel byte-traffic factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime
from repro.payload.ops import SUM
from repro.payload.payload import DataPayload, SymbolicPayload

__all__ = ["HpcgResult", "run_hpcg"]

# Effective memory-traffic multipliers (streams of the local vector)
# charged per kernel invocation.
_SPMV_STREAMS = 4.0  # read x + halo, implicit matrix, write y
_AXPY_STREAMS = 3.0
_DOT_STREAMS = 2.0


@dataclass
class HpcgResult:
    """Outcome of one HPCG run."""

    iterations: int  #: CG iterations executed
    ddot_time: float  #: mean per-rank seconds inside DDOT allreduces
    halo_time: float  #: mean per-rank seconds inside halo exchanges
    total_time: float  #: simulated wall time of the solve
    residual: Optional[float]  #: final ||r|| (data mode only)
    converged: Optional[bool]  #: residual below tolerance (data mode only)


def _laplacian_apply(x3: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """7-point stencil on a slab with halo planes ``lo``/``hi`` (z-faces)."""
    y = 6.0 * x3
    y[1:, :, :] -= x3[:-1, :, :]
    y[:-1, :, :] -= x3[1:, :, :]
    y[0, :, :] -= lo
    y[-1, :, :] -= hi
    y[:, 1:, :] -= x3[:, :-1, :]
    y[:, :-1, :] -= x3[:, 1:, :]
    y[:, :, 1:] -= x3[:, :, :-1]
    y[:, :, :-1] -= x3[:, :, 1:]
    return y


def run_hpcg(
    config: MachineConfig,
    nranks: int,
    *,
    ppn: Optional[int] = None,
    local_grid: tuple[int, int, int] = (8, 8, 8),
    iterations: int = 25,
    allreduce_algorithm: Optional[str] = "mvapich2",
    data_mode: bool = False,
    tolerance: float = 1e-8,
) -> HpcgResult:
    """Run CG for ``iterations`` (or to convergence in data mode).

    The rank grid is a 1-D slab decomposition along z; rank boundaries
    exchange one ``nx * ny`` halo plane per neighbour per iteration.
    """
    nz, ny, nx = local_grid
    if min(local_grid) < 1:
        raise ConfigError(f"invalid local grid {local_grid}")
    nlocal = nx * ny * nz
    plane = nx * ny
    vec_bytes = nlocal * 8
    plane_bytes = plane * 8

    def rank_fn(comm):
        rank, size = comm.rank, comm.size
        machine = comm.machine
        me = comm.world_rank
        up = rank + 1 if rank + 1 < size else None
        down = rank - 1 if rank > 0 else None

        if data_mode:
            b3 = np.ones((nz, ny, nx))
            x3 = np.zeros_like(b3)
            r3 = b3.copy()
            p3 = r3.copy()
            zero_plane = np.zeros((ny, nx))
        scalar = SymbolicPayload(1, 8)

        def halo_exchange(field3):
            """Exchange z-face planes; returns (lo, hi) halos."""
            reqs = []
            if down is not None:
                payload = (
                    DataPayload(field3[0].ravel().copy())
                    if data_mode
                    else SymbolicPayload(plane, 8)
                )
                reqs.append(comm.isend(down, payload, tag=11))
            if up is not None:
                payload = (
                    DataPayload(field3[-1].ravel().copy())
                    if data_mode
                    else SymbolicPayload(plane, 8)
                )
                reqs.append(comm.isend(up, payload, tag=12))
            lo = hi = None
            recvs = []
            if down is not None:
                recvs.append(("lo", comm.irecv(down, tag=12)))
            if up is not None:
                recvs.append(("hi", comm.irecv(up, tag=11)))
            yield from comm.waitall(reqs + [r for _, r in recvs])
            for side, req in recvs:
                if data_mode:
                    arr = req.value.array.reshape(ny, nx)
                else:
                    arr = None
                if side == "lo":
                    lo = arr
                else:
                    hi = arr
            if data_mode:
                lo = zero_plane if lo is None else lo
                hi = zero_plane if hi is None else hi
            return lo, hi

        def ddot(a3, b3_):
            """Global dot product: local partial + 8-byte allreduce."""
            yield machine.compute(me, int(vec_bytes * _DOT_STREAMS / 3))
            if data_mode:
                local = float(np.dot(a3.ravel(), b3_.ravel()))
                payload = DataPayload(np.array([local]))
            else:
                payload = scalar
            t0 = comm.now
            result = yield from comm.allreduce(
                payload, SUM, algorithm=allreduce_algorithm
            )
            state["ddot"] += comm.now - t0
            return float(result.array[0]) if data_mode else 0.0

        state = {"ddot": 0.0, "halo": 0.0}
        start = comm.now

        rtr = yield from ddot(r3 if data_mode else None, r3 if data_mode else None)
        it = 0
        residual = None
        for it in range(1, iterations + 1):
            # SpMV with halo exchange.
            t0 = comm.now
            halos = yield from halo_exchange(p3 if data_mode else None)
            state["halo"] += comm.now - t0
            yield machine.compute(me, int(vec_bytes * _SPMV_STREAMS / 3))
            if data_mode:
                ap3 = _laplacian_apply(p3, halos[0], halos[1])
            # alpha = rtr / (p, Ap)
            pap = yield from ddot(
                p3 if data_mode else None, ap3 if data_mode else None
            )
            yield machine.compute(me, int(vec_bytes * _AXPY_STREAMS / 3))
            yield machine.compute(me, int(vec_bytes * _AXPY_STREAMS / 3))
            if data_mode:
                alpha = rtr / pap
                x3 += alpha * p3
                r3 -= alpha * ap3
            rtr_new = yield from ddot(
                r3 if data_mode else None, r3 if data_mode else None
            )
            yield machine.compute(me, int(vec_bytes * _AXPY_STREAMS / 3))
            if data_mode:
                residual = float(np.sqrt(rtr_new))
                if residual < tolerance:
                    p3 = r3 + (rtr_new / rtr) * p3
                    rtr = rtr_new
                    break
                p3 = r3 + (rtr_new / rtr) * p3
                rtr = rtr_new

        return {
            "ddot": state["ddot"],
            "halo": state["halo"],
            "elapsed": comm.now - start,
            "iterations": it,
            "residual": residual,
        }

    machine = Machine(config, nranks, ppn)
    job = Runtime(machine).launch(rank_fn)
    stats = job.values
    mean_ddot = float(np.mean([s["ddot"] for s in stats]))
    mean_halo = float(np.mean([s["halo"] for s in stats]))
    residual = stats[0]["residual"]
    return HpcgResult(
        iterations=stats[0]["iterations"],
        ddot_time=mean_ddot,
        halo_time=mean_halo,
        total_time=job.elapsed,
        residual=residual,
        converged=(residual is not None and residual < tolerance)
        if data_mode
        else None,
    )
