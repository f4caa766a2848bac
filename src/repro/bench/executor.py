"""Sweep executors: run a :class:`~repro.bench.spec.SweepSpec` to results.

Two strategies behind one interface:

* :class:`SerialExecutor` — in-process, one reusable
  :class:`~repro.mpi.runtime.SimSession` per machine layout, so a whole
  sweep pays machine construction once per ``(cluster, nodes, ppn)``;
* :class:`ParallelExecutor` — a ``ProcessPoolExecutor`` fan-out.  Each
  layout group is split round-robin into up to ``jobs`` chunks; every
  chunk is one worker task with its own session, so workers still
  amortise construction while all cores stay busy.

Because a :class:`~repro.bench.spec.SamplePoint` is a pure function of
its fields (seeded noise, deterministic simulator), both executors
produce *bit-identical* :class:`~repro.bench.spec.SweepResult` payloads
— chunking changes scheduling, never values.  A failed point is
captured as a :class:`~repro.bench.spec.PointResult` error string and
never kills the rest of the sweep.

Both executors optionally thread a
:class:`~repro.bench.store.ResultStore` through ``run(..., store=)`` as
a read-through / write-back layer: cached points are answered from the
store, only the missing ones execute (serial or fanned out, unchanged),
and fresh successes are written back.  The purity above is what makes
this sound — a cached outcome is byte-identical to a recomputed one —
and the canonical payload is untouched; per-run ``hits`` / ``misses`` /
``stored`` counters land in ``SweepResult.meta["store"]`` alongside the
other volatile facts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Optional, Sequence

from repro.bench.spec import PointResult, SamplePoint, SweepResult, SweepSpec
from repro.errors import ReproError
from repro.mpi.runtime import SimSession

__all__ = [
    "run_point",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "default_executor",
    "run_sweep",
]

#: ``progress(done, total, result)`` — called after every finished point.
ProgressFn = Callable[[int, int, PointResult], None]


def run_point(point: SamplePoint, session: Optional[SimSession] = None) -> PointResult:
    """Measure one point, capturing any failure as data.

    The error string is ``"Type: message"`` — no traceback — so serial
    and parallel runs of a failing point serialise identically.
    """
    try:
        return PointResult(point=point, latency=point.run(session=session))
    except Exception as e:  # noqa: BLE001 - one bad point must not kill a sweep
        return PointResult(point=point, error=f"{type(e).__name__}: {e}")


def _session_for(point: SamplePoint) -> Optional[SimSession]:
    """Build the point's session, or None if construction itself fails.

    A broken layout (bad config, ppn over core count) must surface as a
    per-point error from :func:`run_point`'s fresh-build path, not blow
    up the executor.
    """
    try:
        config = point.config()
        return SimSession(
            config, point.nranks, point.ppn, fidelity=point.fidelity
        )
    except Exception:  # noqa: BLE001
        return None


def _run_group(points: Sequence[SamplePoint]) -> list[PointResult]:
    """Run same-layout points on one shared session.

    If a point errors mid-run the session's state is suspect (processes
    may still be parked on its queues), so it is rebuilt before the
    next point.
    """
    session = _session_for(points[0]) if points else None
    out = []
    for point in points:
        result = run_point(point, session=session)
        if not result.ok:
            session = _session_for(point)
        out.append(result)
    return out


def _group_indices(points: Sequence[SamplePoint]) -> list[list[int]]:
    """Indices grouped by session key, preserving first-seen order."""
    groups: dict = {}
    for i, point in enumerate(points):
        groups.setdefault(point.session_key, []).append(i)
    return list(groups.values())


class _BaseExecutor:
    """Shared run loop: expand, measure, assemble the result record."""

    #: subclasses fill these for the result metadata
    kind = "base"
    jobs = 1

    def run(
        self,
        spec: SweepSpec,
        *,
        progress: Optional[ProgressFn] = None,
        store=None,
    ) -> SweepResult:
        """Execute every point of ``spec`` and return the full record.

        With a :class:`~repro.bench.store.ResultStore`, cached points
        are answered without simulating and fresh successes are written
        back; the canonical payload is identical either way.
        """
        points = spec.points()
        start = time.perf_counter()
        if store is None:
            results = self._run_points(points, progress)
            store_meta = None
        else:
            results, store_meta = self._run_through_store(
                spec, points, progress, store
            )
        wall = time.perf_counter() - start
        meta = {
            "executor": self.kind,
            "jobs": self.jobs,
            "wall_seconds": round(wall, 6),
            "n_points": len(points),
            "n_errors": sum(1 for r in results if not r.ok),
            "spec_hash": spec.spec_hash(),
        }
        if store_meta is not None:
            meta["store"] = store_meta
        return SweepResult(spec=spec, results=tuple(results), meta=meta)

    def _run_through_store(
        self,
        spec: SweepSpec,
        points: Sequence[SamplePoint],
        progress: Optional[ProgressFn],
        store,
    ) -> tuple[list[PointResult], dict]:
        """Read-through / write-back: execute only the missing points."""
        from repro.bench.store import spec_keys

        keys = spec_keys(spec)
        cached = store.get_many(keys)
        results: list[Optional[PointResult]] = [None] * len(points)
        hits = 0
        for i, key in enumerate(keys):
            blob = cached.get(key)
            if blob is None:
                continue
            results[i] = PointResult(
                point=points[i],
                latency=blob.get("latency"),
                error=blob.get("error"),
            )
            hits += 1
            if progress is not None:
                progress(hits, len(points), results[i])
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            sub_progress = None
            if progress is not None:
                def sub_progress(done, total, result):
                    progress(hits + done, len(points), result)
            executed = self._run_points(
                [points[i] for i in missing], sub_progress
            )
            for i, result in zip(missing, executed):
                results[i] = result
        stored = sum(store.put_result(keys[i], results[i]) for i in missing)
        store.flush_counters()
        store_meta = {
            "root": str(store.root),
            "hits": hits,
            "misses": len(missing),
            "stored": stored,
        }
        return results, store_meta

    def _run_points(
        self, points: Sequence[SamplePoint], progress: Optional[ProgressFn]
    ) -> list[PointResult]:
        raise NotImplementedError


class SerialExecutor(_BaseExecutor):
    """In-process execution with one session per machine layout."""

    kind = "serial"
    jobs = 1

    def _run_points(self, points, progress):
        results: list[Optional[PointResult]] = [None] * len(points)
        done = 0
        for indices in _group_indices(points):
            group_results = _run_group([points[i] for i in indices])
            for i, result in zip(indices, group_results):
                results[i] = result
                done += 1
                if progress is not None:
                    progress(done, len(points), result)
        return results


def _run_chunk(points: Sequence[SamplePoint]) -> list[tuple]:
    """Worker-side entry: run one same-layout chunk, return plain tuples.

    Module-level so it pickles; returns ``(latency, error)`` pairs
    instead of PointResults to keep the IPC payload minimal.
    """
    return [(r.latency, r.error) for r in _run_group(points)]


class ParallelExecutor(_BaseExecutor):
    """Process-pool fan-out with session affinity inside each chunk.

    ``jobs=None`` uses ``os.cpu_count()``.  Each layout group is split
    round-robin (``indices[k::n]``) into at most ``jobs`` chunks so that
    a sweep with a single layout — the common case, e.g. one figure —
    still spreads across all workers.
    """

    kind = "parallel"

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ReproError(f"ParallelExecutor needs jobs >= 1, got {self.jobs}")

    def _run_points(self, points, progress):
        chunks: list[list[int]] = []
        for indices in _group_indices(points):
            n = min(self.jobs, len(indices))
            chunks.extend([indices[k::n] for k in range(n)])
        results: list[Optional[PointResult]] = [None] * len(points)
        done = 0
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(_run_chunk, [points[i] for i in chunk]): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                for i, (latency, error) in zip(chunk, future.result()):
                    result = PointResult(
                        point=points[i], latency=latency, error=error
                    )
                    results[i] = result
                    done += 1
                    if progress is not None:
                        progress(done, len(points), result)
        return results


def get_executor(jobs: Optional[int] = None) -> _BaseExecutor:
    """Executor for a ``--jobs`` value: 1 (or None) serial, else parallel."""
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)


def default_executor() -> _BaseExecutor:
    """Executor honouring the ``REPRO_BENCH_JOBS`` environment variable."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    if not raw:
        return SerialExecutor()
    try:
        jobs = int(raw)
    except ValueError as e:
        raise ReproError(f"REPRO_BENCH_JOBS must be an integer, got {raw!r}") from e
    return get_executor(jobs)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run ``spec`` on the ``REPRO_BENCH_JOBS`` executor, reading through
    the ``REPRO_RESULT_STORE`` store so only uncached points simulate."""
    from repro.bench.store import store_from_env

    return default_executor().run(spec, store=store_from_env())
