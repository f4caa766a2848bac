"""The per-layer ledger: spans around public calls, and profile folding.

Spans are recorded by the benchmark itself, around each call into
``repro`` (a pass, an operation, its garbage collection, a reference
sample), kept in memory and written once at the end as a Chrome trace
that Perfetto and ``chrome://tracing`` load.

:func:`layer_self_seconds` folds a ``cProfile`` run into the repo's
layers by source path (``src/repro/<layer>/``, with ``mpi/collectives``
as its own layer).  Functions outside ``repro`` -- builtins such as
``heapq.heappush``, numpy, the standard library -- are charged to the
layer of their direct caller, so a kernel's heap operations count as
kernel time; what no ``repro`` function called lands in ``other``.
"""

from __future__ import annotations

import json
import os
import pstats
import time

__all__ = ["LAYERS", "Spans", "layer_self_seconds", "layer_of"]

#: The repo's modules, as layers.
LAYERS = (
    "sim", "machine", "payload", "mpi", "mpi.collectives", "core",
    "bench", "check", "faults", "resilience", "traffic", "apps",
)


def layer_of(filename: str) -> str:
    """The layer a source file belongs to, or ``""`` outside ``repro``."""
    path = filename.replace(os.sep, "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at < 0:
        return ""
    parts = path[at + len(marker):].split("/")
    if parts[:2] == ["mpi", "collectives"]:
        return "mpi.collectives"
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"  # repro/__init__.py, repro/errors.py, ...


def layer_self_seconds(profile) -> dict[str, float]:
    """Self seconds per layer (plus ``other``) of a ``cProfile.Profile``."""
    stats = pstats.Stats(profile).stats
    totals = {layer: 0.0 for layer in LAYERS + ("other",)}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer:
            totals[layer] += tt
            continue
        # Outside repro: split the self time over the callers' layers.
        for (caller_file, _l, _n), caller_stats in callers.items():
            caller_layer = layer_of(caller_file) or "other"
            totals[caller_layer] += caller_stats[2]
        if not callers:
            totals["other"] += tt
    return totals


class Spans:
    """In-memory complete spans, exported as a Chrome trace."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.events: list[dict] = []

    def add(self, name: str, cat: str, t0: float, t1: float, **args) -> None:
        """Record a span between two ``perf_counter`` readings."""
        self.events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round((t0 - self.origin) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": args,
        })

    def write(self, path: str, metadata: dict) -> None:
        """Write the spans as a Chrome trace JSON file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # Enclosing spans first, so viewers nest them correctly.
        events = sorted(self.events, key=lambda e: (e["ts"], -e["dur"]))
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata,
                },
                fh,
            )
