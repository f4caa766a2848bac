"""Calibrated host time: a frozen reference loop, sampled all through a run.

The hosts this benchmark runs on switch between a fast and a slow speed
many times a second, and spend stretches of seconds to minutes mostly
in one of them, so one operation's raw wall time can move by 1.5x
inside a single process.  Every raw time is therefore divided by the
cost of a fixed piece of reference work measured while it ran, and
multiplied back by a nominal constant:

    calibrated = (wall - reference time inside it) * REF_NOMINAL_MS / ref_ms

where ``ref_ms`` is the mean of the reference samples taken during the
operation and the one on either side of it.  Every workload and the
set-up are calibrated the same way, with no per-workload tuning.  A
:class:`Sampler` takes those samples from a ``SIGALRM`` handler every
:data:`SAMPLE_INTERVAL` seconds, in the main thread between bytecodes,
so an operation that lasts two seconds is calibrated by the speed the
host had during those two seconds, not at its ends.

One reference sample is two pieces of work, timed together:

* a tiny generator-and-heapq event loop, the shape of the simulator's
  kernel with a working set that stays in the core's own caches;
* a walk of dependent loads along a random cycle through a list of
  :data:`REF_WALK_SIZE` integers, a working set that only the shared
  cache holds, like the simulator's event and message objects.

The slow phase stretches work that runs in the core's caches more than
work that waits on memory, and every workload does some of each.  The
loop alone over-corrects memory-bound operations, which made the 20k-rank
``scale`` runs spread wider calibrated than raw; the sum tracks all four
workloads (see ``README.md`` for the measured spreads).

The reference must never change: a change that edits it, or makes it
depend on the code under test, invalidates every comparison against an
older run.  That is why this module imports nothing from ``repro`` (a
test asserts it) and why the sample runs with the garbage collector off.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import signal
import statistics
import sys
import time

__all__ = [
    "REF_PROCESSES",
    "REF_YIELDS",
    "REF_WALK_SIZE",
    "REF_WALK_STEPS",
    "REF_NOMINAL_MS",
    "SAMPLE_INTERVAL",
    "CLIP",
    "IQR_WARN",
    "reference_ms",
    "scale",
    "quartile_spread",
    "Sampler",
]

#: Shape of the frozen reference loop: 40 processes x 40 yields.
REF_PROCESSES = 40
REF_YIELDS = 40
#: Integers in the walked cycle (about 9 MB of list and int objects,
#: more than a core's own caches hold) and loads per sample.
REF_WALK_SIZE = 1 << 18
REF_WALK_STEPS = 4000
#: Nominal cost of one reference sample; calibrated times are expressed
#: as if every sample had taken exactly this long (a round value; on a
#: 2-vCPU x86 cloud VM running CPython 3.11 a slow-phase sample reads
#: about 3.2 ms).
REF_NOMINAL_MS = 2.0
#: Wall seconds between two reference samples.
SAMPLE_INTERVAL = 0.04
#: Samples are capped at this multiple of the run's fast level (its
#: 10th-percentile sample) before they are averaged.
CLIP = 2.5
#: A run whose reference samples spread wider than this (interquartile
#: range over median) was measured on a host that changed speed.
IQR_WARN = 0.25


def _process(ident: int):
    """One reference process: a fixed, data-independent delay pattern."""
    for k in range(REF_YIELDS):
        yield ((ident * 7 + k * 13) % 97 + 1) * 1e-6


def _reference_loop() -> int:
    """Drive every reference process to completion; returns the event count."""
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0
    for ident in range(REF_PROCESSES):
        push(heap, (0.0, seq, _process(ident)))
        seq += 1
    events = 0
    while heap:
        now, _, proc = pop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        events += 1
        push(heap, (now + delay, seq, proc))
        seq += 1
    return events


def _build_walk() -> list[int]:
    """``walk[i]`` is the slot after ``i`` on one random cycle through all."""
    order = list(range(REF_WALK_SIZE))
    random.Random(0).shuffle(order)
    walk = [0] * REF_WALK_SIZE
    for here, after in zip(order, order[1:] + order[:1]):
        walk[here] = after
    return walk


_walk: list[int] = []
_walk_at = 0


def _reference_walk() -> int:
    """Take REF_WALK_STEPS steps along the cycle from where the last
    sample stopped, so each sample loads slots the timed code has had
    time to evict."""
    global _walk_at
    walk = _walk
    at = _walk_at
    for _ in range(REF_WALK_STEPS):
        at = walk[at]
    _walk_at = at
    return at


def reference_ms() -> float:
    """Wall milliseconds of one reference sample, with GC disabled.

    The first call also builds the walked cycle, untimed.
    """
    if not _walk:
        _walk.extend(_build_walk())
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        _reference_walk()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def scale(ref_ms: float) -> float:
    """Factor from raw to calibrated time, given the reference's ms."""
    return REF_NOMINAL_MS / ref_ms


def quartile_spread(values) -> float:
    """Interquartile range over median (0.0 for fewer than two values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Sampler:
    """Reference samples every :data:`SAMPLE_INTERVAL` seconds of a block.

    Use as a context manager around the timed region; it takes one
    sample on entry and one on exit.  Set :attr:`profiler` to a running
    ``cProfile.Profile`` while profiling so the samples stay out of the
    profile.  Only one sampler may be active per process.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ms: list[float] = []
        self.ceiling = float("inf")
        self.profiler = None
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        profiler = self.profiler
        if profiler is not None:
            profiler.disable()
        t0 = time.perf_counter()
        ms = reference_ms()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.ms.append(ms)
        if profiler is not None:
            profiler.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # A sample far above the run's fast level was interrupted rather
        # than slowed; cap it so one interruption cannot weigh as a phase.
        self.ceiling = CLIP * statistics.quantiles(self.ms, n=10)[0]

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """``(net wall seconds, reference ms)`` of the window ``[t0, t1]``.

        Call after the sampler has stopped.  The net time excludes the
        samples taken inside the window (a sample never straddles its
        edge, because both run in the main thread).  The reference is
        the mean of those samples and the one on either side: an
        operation that spent half its time in a slow phase ran at the
        average of the two speeds.
        """
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        inside = range(first, last)
        net = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in inside)
        around = [self.ms[i] for i in inside]
        if first > 0:
            around.append(self.ms[first - 1])
        if last < len(self.ms):
            around.append(self.ms[last])
        return net, statistics.fmean(min(ms, self.ceiling) for ms in around)

    def diagnostics(self) -> dict:
        """``ref_ms`` (median sample) and ``ref_iqr`` of this sampler."""
        return {
            "ref_ms": statistics.median(self.ms),
            "ref_iqr": quartile_spread(self.ms),
            "ref_samples": len(self.ms),
        }

    def warn_if_unstable(self) -> None:
        """Warn on stderr when the reference spread exceeds IQR_WARN."""
        spread = quartile_spread(self.ms)
        if spread > IQR_WARN:
            print(
                f"warning: reference samples spread {spread:.0%} "
                f"(IQR/median) > {IQR_WARN:.0%}; the host changed speed "
                f"during this run",
                file=sys.stderr,
            )
