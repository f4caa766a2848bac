"""Systematic correctness validation matrix.

Runs every registered algorithm of every collective kind across a grid
of job layouts (including non-power-of-two rank counts, partial last
nodes, counts smaller than the rank count) with real numpy payloads and
checks the results element-wise against numpy references.  This is the
library's self-check — exposed as ``python -m repro bench validate``
and reused by the integration test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.machine.clusters import cluster_a, cluster_b
from repro.machine.config import MachineConfig
from repro.mpi.collectives.registry import available_collectives
from repro.mpi.runtime import run_job
from repro.payload.ops import MAX, SUM, ReduceOp
from repro.payload.payload import DataPayload, split_bounds

__all__ = ["ValidationReport", "validate_all", "DEFAULT_LAYOUTS"]

#: (nranks, ppn, nodes) shapes exercising the tricky layouts.
DEFAULT_LAYOUTS: tuple[tuple[int, int, int], ...] = (
    (8, 4, 2),  # power-of-two everything
    (9, 3, 3),  # non-pof2 ranks
    (10, 4, 3),  # partial last node
    (3, 1, 3),  # one rank per node
    (6, 6, 1),  # single node
)

#: Vector lengths, including "fewer elements than ranks".
DEFAULT_COUNTS: tuple[int, ...] = (1, 13, 64)


@dataclass
class ValidationReport:
    """Outcome of one validation sweep."""

    passed: int = 0
    failed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing failed."""
        return not self.failed

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.passed} passed, {len(self.failed)} failed, "
            f"{len(self.skipped)} skipped"
        )


def _case_id(kind, algorithm, layout, count, op):
    nranks, ppn, nodes = layout
    op_part = f", op={op.name}" if op else ""
    return f"{kind}/{algorithm} p={nranks} ppn={ppn} n={count}{op_part}"


def _config_for(kind: str, algorithm: str) -> MachineConfig:
    if algorithm.startswith("sharp"):
        return cluster_a(4)
    return cluster_b(4)


def _run_case(kind, algorithm, layout, count, op, rng, sanitize=None) -> Optional[str]:
    """Run one case; returns an error string or None."""
    nranks, ppn, nodes = layout
    config = _config_for(kind, algorithm)
    inputs = [rng.integers(1, 9, count).astype(np.float64) for _ in range(nranks)]
    root = nranks // 2

    def fn(comm):
        me = DataPayload(inputs[comm.rank].copy())
        if kind == "allreduce":
            out = yield from comm.allreduce(me, op, algorithm=algorithm)
            return out.array
        if kind == "reduce":
            out = yield from comm.reduce(me, op, root=root, algorithm=algorithm)
            return None if out is None else out.array
        if kind == "bcast":
            data = me if comm.rank == root else (
                me if algorithm == "auto" else None
            )
            out = yield from comm.bcast(data, root=root, algorithm=algorithm)
            return out.array
        if kind == "allgather":
            out = yield from comm.allgather(me, algorithm=algorithm)
            return out.array
        if kind == "reduce_scatter":
            out = yield from comm.reduce_scatter(me, op, algorithm=algorithm)
            return out.array
        if kind == "gather":
            out = yield from comm.gather(me, root=root, algorithm=algorithm)
            return None if out is None else [p.array for p in out]
        if kind == "scatter":
            pieces = (
                [DataPayload(inputs[i] * 2) for i in range(comm.size)]
                if comm.rank == root
                else None
            )
            out = yield from comm.scatter(pieces, root=root, algorithm=algorithm)
            return out.array
        if kind == "alltoall":
            blocks = [
                DataPayload(np.full(count, comm.rank * 1000.0 + d))
                for d in range(comm.size)
            ]
            out = yield from comm.alltoall(blocks, algorithm=algorithm)
            return [b.array for b in out]
        raise AssertionError(f"unhandled kind {kind}")

    try:
        job = run_job(config, nranks, fn, ppn=ppn, sanitize=sanitize)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        return f"raised {type(exc).__name__}: {exc}"

    reduced = op.reduce_stack(inputs) if op else None
    for rank, got in enumerate(job.values):
        if kind == "allreduce":
            expected = reduced
        elif kind == "reduce":
            expected = reduced if rank == root else None
        elif kind == "bcast":
            expected = inputs[root]
        elif kind == "allgather":
            expected = np.concatenate(inputs)
        elif kind == "reduce_scatter":
            a, b = split_bounds(count, nranks)[rank]
            expected = reduced[a:b]
        elif kind == "gather":
            expected = inputs if rank == root else None
        elif kind == "scatter":
            expected = inputs[rank] * 2
        elif kind == "alltoall":
            expected = [np.full(count, s * 1000.0 + rank) for s in range(nranks)]
        if expected is None:
            if got is not None:
                return f"rank {rank}: expected None, got a value"
            continue
        if isinstance(expected, list):
            if got is None or len(got) != len(expected):
                return f"rank {rank}: wrong list shape"
            for e, g in zip(expected, got):
                if not np.array_equal(e, g):
                    return f"rank {rank}: list element mismatch"
        elif got is None or not np.array_equal(got, expected):
            return f"rank {rank}: value mismatch"
    return None


def validate_all(
    kinds: Optional[Sequence[str]] = None,
    layouts: Sequence[tuple[int, int, int]] = DEFAULT_LAYOUTS,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seed: int = 0,
    verbose: bool = False,
    sanitize=None,
) -> ValidationReport:
    """Run the full matrix; returns a :class:`ValidationReport`.

    ``sanitize`` is forwarded to :func:`~repro.mpi.runtime.run_job` for
    every case: ``True`` (or a
    :class:`~repro.check.sanitizer.Sanitizer`) runs the whole matrix
    under the invariant sanitizer, ``None`` defers to the
    ``REPRO_SANITIZE`` environment variable.  Sanitizer findings
    surface as case failures (the strict sanitizer raises).
    """
    report = ValidationReport()
    rng = np.random.default_rng(seed)
    all_kinds = kinds or [
        "allreduce", "reduce", "bcast", "allgather", "reduce_scatter",
        "gather", "scatter", "alltoall",
    ]
    reducing = {"allreduce", "reduce", "reduce_scatter"}
    for kind in all_kinds:
        for algorithm in available_collectives(kind):
            for layout in layouts:
                nranks, ppn, nodes = layout
                for count in counts:
                    ops = (SUM, MAX) if kind in reducing else (None,)
                    for op in ops:
                        case = _case_id(kind, algorithm, layout, count, op)
                        error = _run_case(
                            kind, algorithm, layout, count, op, rng, sanitize
                        )
                        if error is None:
                            report.passed += 1
                            if verbose:
                                print(f"PASS {case}")
                        else:
                            report.failed.append(f"{case}: {error}")
                            if verbose:
                                print(f"FAIL {case}: {error}")
    return report
