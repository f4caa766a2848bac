"""Async sweep service: many concurrent sweep requests, one sim pool.

The executors in :mod:`repro.bench.executor` serve one sweep at a time.
This module turns the simulator into a *service*: an ``await``-able
:class:`SweepService` that multiplexes any number of concurrent sweep
requests — figure regeneration, CI gates, autotuning probes,
interactive what-if queries — over a bounded pool of worker threads,
each holding a small cache of reusable
:class:`~repro.mpi.runtime.SimSession` instances keyed by machine
layout.  Three mechanisms keep heavy repeated traffic cheap:

* **read-through store** — each request's points are looked up in the
  content-addressed :class:`~repro.bench.store.ResultStore` in one
  batched call before anything simulates, and fresh successes are
  written back from the worker thread;
* **in-flight dedup** — a point already executing for one request is
  awaited by every other request that needs it (keys are the store's
  full content digests), so identical concurrent sweeps cost one
  simulation, not N;
* **backpressure** — admissions go through a bounded ``asyncio.Queue``:
  once ``max_pending`` points are queued, further submissions (and the
  requests behind them) wait instead of piling up unboundedly.

Determinism: a :class:`~repro.bench.spec.SamplePoint` is a pure
function of its fields, so a result computed by any worker, any
session, or any earlier run is byte-identical to a serial reference —
``python -m repro.bench serve --demo`` asserts exactly that over
concurrent mixed sweeps.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro import canonical
from repro.bench.executor import SerialExecutor, _session_for, run_point
from repro.bench.spec import PointResult, SamplePoint, SweepResult, SweepSpec
from repro.bench.store import ResultStore, compat_snapshot, point_key
from repro.errors import ReproError

__all__ = ["SweepService", "demo_specs", "run_demo", "main"]


class SweepService:
    """Concurrent sweep execution over a bounded ``SimSession`` pool.

    ``workers`` bounds both the worker coroutines and the thread pool
    they execute on; ``max_pending`` bounds the admission queue
    (backpressure); ``session_cache`` bounds how many layouts each
    worker thread keeps warm.  Use as an async context manager, or call
    :meth:`start` / :meth:`close` explicitly::

        async with SweepService(store=store, workers=4) as service:
            results = await asyncio.gather(
                service.run_sweep(spec_a), service.run_sweep(spec_b)
            )
    """

    def __init__(
        self,
        *,
        store: Optional[ResultStore] = None,
        workers: int = 4,
        max_pending: int = 64,
        session_cache: int = 4,
    ):
        if workers < 1:
            raise ReproError(f"SweepService needs workers >= 1, got {workers}")
        if max_pending < 1:
            raise ReproError(
                f"SweepService needs max_pending >= 1, got {max_pending}"
            )
        self.store = store
        self.workers = workers
        self.max_pending = max_pending
        self.session_cache = max(1, session_cache)
        #: service-lifetime counters (telemetry, racy increments allowed)
        self.counters = {
            "requests": 0,
            "points": 0,
            "store_hits": 0,
            "executed": 0,
            "deduped": 0,
            "stored": 0,
        }
        self._queue: Optional[asyncio.Queue] = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._tasks: list[asyncio.Task] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._local = threading.local()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "SweepService":
        """Spin up the worker coroutines and thread pool (idempotent)."""
        if self._queue is not None:
            return self
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="sweep-worker"
        )
        self._tasks = [
            loop.create_task(self._worker(), name=f"sweep-service-{i}")
            for i in range(self.workers)
        ]
        return self

    async def drain(self) -> None:
        """Graceful shutdown: refuse new sweeps, finish admitted work.

        Flips the service into draining mode (further :meth:`run_sweep`
        calls raise :class:`~repro.errors.ReproError`), waits for every
        queued and in-flight point to execute and resolve its future,
        then :meth:`close`\\ s — so results already promised to callers
        are delivered, never dropped.  A drained service stays refusing;
        build a fresh one to serve again.
        """
        self._draining = True
        if self._queue is not None:
            # All admitted points: workers mark task_done() only after
            # resolving the point's future, so join() means delivered.
            await self._queue.join()
        if self._inflight:  # pragma: no cover - belt over join()
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
        await self.close()

    async def close(self) -> None:
        """Stop the workers, shut the pool down, flush store counters."""
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._queue = None
        self._inflight.clear()
        if self.store is not None:
            self.store.flush_counters()

    async def __aenter__(self) -> "SweepService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the request path ----------------------------------------------------

    async def run_sweep(self, spec: SweepSpec) -> SweepResult:
        """Run one sweep request; concurrent callers share work.

        Returns the same :class:`~repro.bench.spec.SweepResult` shape as
        the executors — canonical payload byte-identical to a
        :class:`~repro.bench.executor.SerialExecutor` run of the same
        spec — with request telemetry in ``meta["service"]``.
        """
        if self._draining:
            raise ReproError(
                "SweepService is draining: no new sweep requests accepted"
            )
        await self.start()
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        points = spec.points()
        spec_hash = spec.full_hash()
        compat = compat_snapshot()
        keys = [
            point_key(p, spec_hash=spec_hash, compat=compat) for p in points
        ]
        results: list[Optional[PointResult]] = [None] * len(points)
        hits = 0
        if self.store is not None:
            # One batched lookup per request, off the event loop.
            cached = await asyncio.to_thread(self.store.get_many, keys)
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
        waits: list[tuple[int, asyncio.Future]] = []
        executed = 0
        deduped = 0
        for i, (key, point) in enumerate(zip(keys, points)):
            if results[i] is not None:
                continue
            future = self._inflight.get(key)
            if future is not None:
                deduped += 1
            else:
                future = loop.create_future()
                self._inflight[key] = future
                # Bounded admission: blocks when max_pending points are
                # already queued, pushing back on the caller.
                await self._queue.put((key, point, future))
                executed += 1
            waits.append((i, future))
        for i, future in waits:
            results[i] = await future
        wall = time.perf_counter() - t0
        self.counters["requests"] += 1
        self.counters["points"] += len(points)
        self.counters["store_hits"] += hits
        self.counters["executed"] += executed
        self.counters["deduped"] += deduped
        return SweepResult(
            spec=spec,
            results=tuple(results),
            meta={
                "executor": "service",
                "jobs": self.workers,
                "wall_seconds": round(wall, 6),
                "n_points": len(points),
                "n_errors": sum(1 for r in results if not r.ok),
                "spec_hash": spec.spec_hash(),
                "service": {
                    "hits": hits,
                    "executed": executed,
                    "deduped": deduped,
                },
            },
        )

    # -- the worker side -----------------------------------------------------

    async def _worker(self) -> None:
        """Drain the admission queue onto the thread pool, forever."""
        loop = asyncio.get_running_loop()
        while True:
            key, point, future = await self._queue.get()
            try:
                result = await loop.run_in_executor(
                    self._pool, self._execute_and_store, key, point
                )
                if not future.done():
                    future.set_result(result)
            except Exception as exc:  # noqa: BLE001 - surface to the awaiters
                if not future.done():
                    future.set_exception(exc)
            finally:
                # Write-back happened before the future resolved, so a
                # request arriving after this pop finds the store entry.
                self._inflight.pop(key, None)
                self._queue.task_done()

    def _execute_and_store(self, key: str, point: SamplePoint) -> PointResult:
        """Thread-side: run one point on a warm session, write back."""
        result = run_point(point, session=self._session(point))
        if not result.ok:
            # The session's state is suspect after a mid-run error.
            self._drop_session(point)
        if self.store is not None and self.store.put_result(key, result):
            self.counters["stored"] += 1
        return result

    def _sessions(self) -> dict:
        sessions = getattr(self._local, "sessions", None)
        if sessions is None:
            sessions = self._local.sessions = {}
        return sessions

    def _session(self, point: SamplePoint):
        """This worker thread's session for the point's layout (LRU)."""
        sessions = self._sessions()
        key = point.session_key
        session = sessions.pop(key, None)
        if session is None:
            session = _session_for(point)
        if session is not None:
            sessions[key] = session  # most-recently-used position
            while len(sessions) > self.session_cache:
                sessions.pop(next(iter(sessions)))
        return session

    def _drop_session(self, point: SamplePoint) -> None:
        self._sessions().pop(point.session_key, None)


# -- the demo (``python -m repro.bench serve --demo``) -----------------------


def demo_specs(requests: int) -> list[SweepSpec]:
    """``requests`` mixed tiny sweeps cycling over four shapes.

    The shapes cover the service's axes: a leaders grid, a second
    cluster, an algorithm-comparison sweep, and a hybrid-fidelity sweep.
    Past four requests the cycle repeats, so concurrent duplicates
    exercise the in-flight dedup path.
    """
    templates = [
        SweepSpec(
            name="svc-leaders-b", cluster="b", nodes=2, ppn=4,
            sizes=(1024, 16384), algorithms=("dpml",),
            leader_counts=(1, 2, 4), iterations=1,
        ),
        SweepSpec(
            name="svc-leaders-a", cluster="a", nodes=2, ppn=4,
            sizes=(4096,), algorithms=("dpml",),
            leader_counts=(1, 4), iterations=1,
        ),
        SweepSpec(
            name="svc-algorithms", cluster="b", nodes=2, ppn=2,
            sizes=(1024, 4096), algorithms=("mvapich2", "recursive_doubling"),
            leader_counts=(None,), iterations=1,
        ),
        SweepSpec(
            name="svc-hybrid", cluster="b", nodes=2, ppn=4,
            sizes=(16384,), algorithms=("dpml",),
            leader_counts=(2,), iterations=1, fidelity="hybrid",
        ),
    ]
    return [templates[i % len(templates)] for i in range(requests)]


async def _demo(
    requests: int,
    workers: int,
    store: Optional[ResultStore],
    max_pending: int,
) -> dict:
    specs = demo_specs(requests)
    service = SweepService(
        store=store, workers=workers, max_pending=max_pending
    )
    await service.start()
    try:
        results = await asyncio.gather(
            *(service.run_sweep(spec) for spec in specs)
        )
        counters = dict(service.counters)
    finally:
        # Graceful: deliver everything admitted, then shut down.
        await service.drain()
    # Every request's canonical payload must match a serial reference
    # (computed once per distinct spec, store bypassed).
    serial = SerialExecutor()
    references: dict[str, str] = {}
    detail = []
    for spec, result in zip(specs, results):
        full = spec.full_hash()
        if full not in references:
            references[full] = serial.run(spec).to_json(include_meta=False)
        matched = result.to_json(include_meta=False) == references[full]
        detail.append(
            {
                "sweep": spec.name,
                "spec_hash": spec.spec_hash(),
                "n_points": spec.n_points,
                "ok": result.ok,
                "matches_serial_reference": matched,
                "service": result.meta["service"],
            }
        )
    matched = sum(1 for d in detail if d["matches_serial_reference"])
    return {
        "schema": 1,
        "suite": "repro.bench.service-demo",
        "requests": requests,
        "workers": workers,
        "max_pending": max_pending,
        "store": str(store.root) if store is not None else None,
        "matched": matched,
        "mismatched": requests - matched,
        "counters": counters,
        "detail": detail,
    }


def run_demo(
    *,
    requests: int = 6,
    workers: int = 4,
    store: Optional[ResultStore] = None,
    max_pending: int = 16,
) -> dict:
    """Drive ``requests`` concurrent mixed sweeps; verify against serial."""
    if requests < 4:
        raise ReproError(
            f"the service demo wants >= 4 concurrent requests, got {requests}"
        )
    return asyncio.run(_demo(requests, workers, store, max_pending))


def main(args) -> int:
    """The ``serve`` subcommand of ``python -m repro.bench``."""
    from repro.bench.store import resolve_store

    if not args.demo:
        print(
            "only --demo is implemented: the service is an in-process "
            "asyncio front-end (embed repro.bench.service.SweepService); "
            "try: python -m repro.bench serve --demo",
            file=sys.stderr,
        )
        return 2
    store = resolve_store(args.store, args.no_store)
    try:
        report = run_demo(
            requests=args.requests, workers=args.workers, store=store
        )
    except ReproError as e:
        print(str(e), file=sys.stderr)
        return 2
    print(canonical.dumps(report))
    if report["mismatched"]:
        print(
            f"{report['mismatched']}/{report['requests']} request(s) "
            "diverged from their serial references",
            file=sys.stderr,
        )
        return 1
    return 0
