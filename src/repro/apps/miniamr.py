"""miniAMR-like adaptive-mesh-refinement kernel (paper Section 6.6).

miniAMR performs 3-D stencil computation on a block-structured adaptive
mesh.  During each *mesh refinement* step every rank evaluates
refinement criteria for its blocks and the job agrees globally on the
new mesh through a series of ``MPI_Allreduce`` calls whose vector
length grows with the number of blocks and the number of processes —
the medium/large-message regime where DPML wins.  The paper sets the
refinement frequency so that "this operation takes more than 98% of
overall application time" and reports the average overall mesh
refinement time.

The model here keeps miniAMR's communication skeleton:

* per refinement step, each rank computes error indicators over its
  blocks (charged compute) and refines/coarsens a deterministic
  pseudo-random subset (real block bookkeeping, levels capped);
* the mesh agreement performs, like miniAMR's ``refine.c``:
  1. an 8-byte MAX allreduce (do any blocks change?),
  2. a per-level block-count SUM allreduce (one slot per level),
  3. a load-balance SUM allreduce with **one slot per rank** — this is
     the payload that grows with job size,
  4. a block-exchange consistency SUM allreduce proportional to the
     global block count (the large-message call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime
from repro.payload.ops import MAX, SUM
from repro.payload.payload import DataPayload, SymbolicPayload

__all__ = ["MiniAmrResult", "run_miniamr"]

#: Memory-traffic factor for the error-indicator sweep over one block.
_INDICATOR_STREAMS = 2.0


@dataclass
class MiniAmrResult:
    """Outcome of one miniAMR run."""

    steps: int  #: refinement steps executed
    refine_time: float  #: mean per-rank seconds in mesh refinement
    total_time: float  #: simulated wall time
    final_blocks: int  #: global block count at the end
    max_level: int  #: deepest refinement level reached


def run_miniamr(
    config: MachineConfig,
    nranks: int,
    *,
    ppn: Optional[int] = None,
    steps: int = 10,
    initial_blocks: int = 8,
    block_cells: int = 512,  # 8x8x8 cells per block
    max_level: int = 4,
    refine_fraction: float = 0.25,
    allreduce_algorithm: Optional[str] = "mvapich2",
    data_mode: bool = False,
    seed: int = 12345,
) -> MiniAmrResult:
    """Run ``steps`` refinement cycles; returns timing and mesh stats.

    ``data_mode`` carries real count vectors through the collectives
    (the test suite checks the agreed global mesh is identical on every
    rank); symbolic mode charges identical time without the arithmetic.
    """
    cell_bytes = 8

    def rank_fn(comm):
        machine = comm.machine
        me = comm.world_rank
        rng = np.random.default_rng(seed + comm.rank)
        # Block levels owned by this rank.
        levels = [0] * initial_blocks
        refine_time = 0.0
        global_blocks = initial_blocks * comm.size
        deepest = 0
        start = comm.now

        for step in range(steps):
            # Error indicators: one sweep over the local cells.
            local_cells = len(levels) * block_cells
            yield machine.compute(
                me, int(local_cells * cell_bytes * _INDICATOR_STREAMS / 3)
            )

            # Local refinement decisions (octree split: 1 -> 8 children).
            new_levels = []
            for lvl in levels:
                if lvl < max_level and rng.random() < refine_fraction:
                    new_levels.extend([lvl + 1] * 8)
                elif lvl > 0 and rng.random() < refine_fraction / 4:
                    new_levels.append(lvl - 1)
                else:
                    new_levels.append(lvl)
            levels = new_levels
            if len(levels) > 4 * initial_blocks:
                # Cap local growth like miniAMR's block budget.
                levels = levels[: 4 * initial_blocks]

            t0 = comm.now

            # (1) Does anything change anywhere?  8-byte MAX.
            flag = (
                DataPayload(np.array([1.0]))
                if data_mode
                else SymbolicPayload(1, 8)
            )
            yield from comm.allreduce(flag, MAX, algorithm=allreduce_algorithm)

            # (2) Per-level block counts.
            if data_mode:
                counts = np.zeros(max_level + 1)
                for lvl in levels:
                    counts[lvl] += 1
                per_level = DataPayload(counts)
            else:
                per_level = SymbolicPayload(max_level + 1, 8)
            agreed = yield from comm.allreduce(
                per_level, SUM, algorithm=allreduce_algorithm
            )

            # (3) Load balance: one slot per rank (grows with job size).
            if data_mode:
                owner = np.zeros(comm.size)
                owner[comm.rank] = len(levels)
                per_rank = DataPayload(owner)
            else:
                per_rank = SymbolicPayload(comm.size, 8)
            balance = yield from comm.allreduce(
                per_rank, SUM, algorithm=allreduce_algorithm
            )

            # (4) Block-exchange consistency: a few doubles per global
            # block (the large-message allreduce of the refine phase).
            if data_mode:
                global_blocks = int(balance.array.sum())
            else:
                # Symbolic mode must pick the same length on every rank
                # (collectives require matching counts): use the shared
                # deterministic growth-with-cap estimate.
                global_blocks = (
                    min(initial_blocks * (1 + step), 4 * initial_blocks)
                    * comm.size
                )
            consistency = SymbolicPayload(max(1, global_blocks), 8)
            if data_mode:
                consistency = DataPayload(np.ones(max(1, global_blocks)))
            yield from comm.allreduce(
                consistency, SUM, algorithm=allreduce_algorithm
            )

            refine_time += comm.now - t0
            deepest = max(deepest, max(levels, default=0))

            if data_mode:
                agreed_list = agreed.array.tolist()
            else:
                agreed_list = None

        return {
            "refine": refine_time,
            "elapsed": comm.now - start,
            "blocks": global_blocks,
            "deepest": deepest,
            "agreed": agreed_list,
        }

    machine = Machine(config, nranks, ppn)
    job = Runtime(machine).launch(rank_fn)
    stats = job.values
    return MiniAmrResult(
        steps=steps,
        refine_time=float(np.mean([s["refine"] for s in stats])),
        total_time=job.elapsed,
        final_blocks=int(stats[0]["blocks"]),
        max_level=max(s["deepest"] for s in stats),
    )
