"""Tracing: recording what happened and drawing the paper's Gantt chart.

The paper's Gantt-chart figure ("Dark portions denote computations, light
portions denote communications") is regenerated from a :class:`Recorder`
attached to an engine (``Engine(platform, recorder=recorder)``).  The
engine hands it every finished activity, and :meth:`Recorder.record`
alone decides the rows and categories: a computation on its host's row, a
communication on its sender's and on its receiver's rows.  The recorder
answers the chart's per-row totals, and :func:`render_ascii_gantt` draws
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["Interval", "Recorder", "render_ascii_gantt"]

#: The categories :meth:`Recorder.record` gives: computations are drawn
#: dark, communications light.
COMPUTE_CATEGORIES = frozenset({"compute"})
COMM_CATEGORIES = frozenset({"comm-send", "comm-recv"})

#: Cell characters of the ASCII Gantt chart.
COMPUTE_CHAR = "#"
COMM_CHAR = "-"
IDLE_CHAR = "."


@dataclass(frozen=True)
class Interval:
    """One recorded interval on a row (usually a host) of the timeline."""

    row: str
    category: str
    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("interval end must be >= start")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects intervals during a simulation: a per-host timeline of
    computations and communications, one row per recorded host in name
    order.

    Attach an instance to an :class:`~repro.s4u.engine.Engine`
    (``Engine(platform, recorder=recorder)``) and it will receive every
    finished computation and communication.
    """

    def __init__(self) -> None:
        self.intervals: List[Interval] = []

    # -- recording -------------------------------------------------------------------
    def record(self, activity) -> None:
        """Record a finished activity: an ``exec`` on its host's row, a
        ``comm`` on its sender's and on its receiver's rows.  An activity
        that never started leaves no interval."""
        start = activity.start_time
        if start is None:
            return
        end = activity.finish_time
        if activity.kind == "exec":
            self.record_interval(activity.host.name, "compute", start, end,
                                 activity.name)
        elif activity.kind == "comm":
            for host, category in ((activity.src_host, "comm-send"),
                                   (activity.dst_host, "comm-recv")):
                if host is not None:
                    self.record_interval(host.name, category, start, end,
                                         activity.name)

    def record_interval(self, row: str, category: str, start: float,
                        end: float, label: str = "") -> Interval:
        """Record one interval; returns it for convenience."""
        interval = Interval(row=row, category=category, start=start, end=end,
                            label=label)
        self.intervals.append(interval)
        return interval

    # -- querying ---------------------------------------------------------------------
    def rows(self) -> List[str]:
        """Sorted list of rows that received at least one interval."""
        return sorted({i.row for i in self.intervals})

    def by_row(self, row: str) -> List[Interval]:
        """Intervals of one row, ordered by start time."""
        return sorted((i for i in self.intervals if i.row == row),
                      key=lambda i: (i.start, i.end))

    def makespan(self) -> float:
        """Date of the last recorded interval end (0 when empty)."""
        if not self.intervals:
            return 0.0
        return max(i.end for i in self.intervals)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-row totals: compute, communication and idle time up to the
        makespan (overlapping busy intervals count once)."""
        horizon = self.makespan()
        totals = {}
        for row in self.rows():
            intervals = self.by_row(row)
            merged: List[List[float]] = []
            for interval in intervals:
                if merged and interval.start <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], interval.end)
                else:
                    merged.append([interval.start, interval.end])
            totals[row] = {
                "compute": sum(i.duration for i in intervals
                               if i.category in COMPUTE_CATEGORIES),
                "comm": sum(i.duration for i in intervals
                            if i.category in COMM_CATEGORIES),
                "idle": max(0.0, horizon - sum(end - start
                                               for start, end in merged)),
            }
        return totals

    def overlapping_comms(self) -> int:
        """Number of pairs of communications that overlap in time.

        The paper's figure highlights that *"concurrent communications
        interfere with each other as the TCP flows share network links"*;
        this metric makes that interference measurable in tests.
        """
        comms = sorted((i for i in self.intervals
                        if i.category in COMM_CATEGORIES),
                       key=lambda i: i.start)
        count = 0
        for idx, first in enumerate(comms):
            for second in comms[idx + 1:]:
                if second.start >= first.end:
                    break
                count += 1
        return count


def render_ascii_gantt(recorder: Recorder, width: int = 72) -> str:
    """Render the recorder's rows as a fixed-width ASCII-art Gantt chart.

    ``#`` marks computation (the paper's dark portions), ``-`` marks
    communication (light portions) and ``.`` marks idle time.
    """
    horizon = recorder.makespan()
    if horizon <= 0 or width <= 0:
        return ""
    rows = recorder.rows()
    lines: List[str] = []
    name_width = max((len(row) for row in rows), default=0)
    for row in rows:
        intervals = recorder.by_row(row)
        cells = [IDLE_CHAR] * width
        # paint communications first so computations overwrite them
        for interval in intervals:
            if interval.category in COMM_CATEGORIES:
                _paint(cells, interval, horizon, width, COMM_CHAR)
        for interval in intervals:
            if interval.category in COMPUTE_CATEGORIES:
                _paint(cells, interval, horizon, width, COMPUTE_CHAR)
        lines.append(f"{row.ljust(name_width)} |{''.join(cells)}|")
    scale = (f"{'':{name_width}} |0{'':{max(0, width - 2)}}"
             f"{horizon:.3g}|")
    lines.append(scale)
    return "\n".join(lines)


def _paint(cells: List[str], interval: Interval, horizon: float, width: int,
           char: str) -> None:
    start_idx = int(interval.start / horizon * width)
    end_idx = int(interval.end / horizon * width)
    start_idx = max(0, min(width - 1, start_idx))
    end_idx = max(start_idx, min(width - 1, end_idx))
    for idx in range(start_idx, end_idx + 1):
        cells[idx] = char
