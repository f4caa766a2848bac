"""Terminal (ASCII) charts for the figure regenerators.

No plotting stack is available offline, so ``python -m repro bench
fig5 --plot`` renders the figure as a log-log ASCII chart — good
enough to eyeball the crossovers and slopes the paper's plots show.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

__all__ = ["ascii_chart"]

_MARKERS = "*o+x#@%&"


def _log_positions(values: Sequence[float], cells: int) -> list[int]:
    """Map positive values onto [0, cells-1] on a log scale."""
    logs = [math.log10(v) for v in values]
    lo, hi = min(logs), max(logs)
    span = hi - lo
    if span == 0:
        return [0 for _ in logs]
    return [round((v - lo) / span * (cells - 1)) for v in logs]


def ascii_chart(
    series: Mapping[str, Mapping[float, float]],
    *,
    width: int = 64,
    height: int = 16,
    title: str = "",
    xlabel: str = "message size (B)",
    ylabel: str = "latency (us)",
    yscale: float = 1e6,
) -> str:
    """Render a multi-series log-log line chart as text.

    ``series`` maps a legend label to ``{x: y}`` points; all x and y
    must be positive (latencies and sizes always are).
    """
    if not series:
        raise ValueError("ascii_chart needs at least one series")
    points: dict[str, list[tuple[float, float]]] = {}
    for label, data in series.items():
        if not data:
            raise ValueError(f"series {label!r} is empty")
        pts = sorted((float(x), float(y) * yscale) for x, y in data.items())
        if any(x <= 0 or y <= 0 for x, y in pts):
            raise ValueError("log-log chart needs positive x and y")
        points[label] = pts

    all_x = sorted({x for pts in points.values() for x, _ in pts})
    all_y = [y for pts in points.values() for _, y in pts]
    x_pos = dict(zip(all_x, _log_positions(all_x, width)))
    y_lo = math.log10(min(all_y))
    y_hi = math.log10(max(all_y))
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (label, pts) in enumerate(points.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in pts:
            col = x_pos[x]
            row = height - 1 - round(
                (math.log10(y) - y_lo) / y_span * (height - 1)
            )
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{10 ** y_hi:,.0f}"
    bottom_label = f"{10 ** y_lo:,.2f}"
    pad = max(len(top_label), len(bottom_label))
    for r, row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(pad)
        elif r == height - 1:
            prefix = bottom_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    x_left = f"{all_x[0]:,.0f}"
    x_right = f"{all_x[-1]:,.0f}"
    gap = width - len(x_left) - len(x_right)
    lines.append(" " * (pad + 2) + x_left + " " * max(1, gap) + x_right)
    lines.append(" " * (pad + 2) + f"{xlabel}   [{ylabel}]")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}"
        for i, label in enumerate(points)
    )
    lines.append(" " * (pad + 2) + legend)
    return "\n".join(lines)
