"""Exporting traces: ASCII-art Gantt charts."""

from __future__ import annotations

from typing import List

from repro.tracing.gantt import COMM_CATEGORIES, COMPUTE_CATEGORIES, GanttChart
from repro.tracing.recorder import Interval

__all__ = ["render_ascii_gantt"]

#: Cell characters of the ASCII Gantt chart.
COMPUTE_CHAR = "#"
COMM_CHAR = "-"
IDLE_CHAR = "."


def render_ascii_gantt(chart: GanttChart, width: int = 72) -> str:
    """Render the Gantt chart as fixed-width ASCII art.

    ``#`` marks computation (the paper's dark portions), ``-`` marks
    communication (light portions) and ``.`` marks idle time.
    """
    horizon = chart.horizon
    if horizon <= 0 or width <= 0:
        return ""
    lines: List[str] = []
    name_width = max((len(row.name) for row in chart.rows), default=0)
    for row in chart.rows:
        cells = [IDLE_CHAR] * width
        # paint communications first so computations overwrite them
        for interval in row.intervals:
            if interval.category in COMM_CATEGORIES:
                _paint(cells, interval, horizon, width, COMM_CHAR)
        for interval in row.intervals:
            if interval.category in COMPUTE_CATEGORIES:
                _paint(cells, interval, horizon, width, COMPUTE_CHAR)
        lines.append(f"{row.name.ljust(name_width)} |{''.join(cells)}|")
    scale = (f"{'':{name_width}} |0{'':{max(0, width - 2)}}"
             f"{horizon:.3g}|")
    lines.append(scale)
    return "\n".join(lines)


def _paint(cells: List[str], interval: Interval, horizon: float, width: int,
           char: str) -> None:
    start_idx = int(interval.start / horizon * width)
    end_idx = int(interval.end / horizon * width)
    start_idx = max(0, min(width - 1, start_idx))
    end_idx = max(start_idx, min(width - 1, end_idx if end_idx > start_idx
                                 else start_idx))
    for idx in range(start_idx, end_idx + 1):
        cells[idx] = char
