"""Gantt-chart model built from recorded intervals.

Reproduces the paper's execution figure: one row per host, dark blocks for
computations, light blocks for communications, idle gaps in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.tracing.recorder import Interval, Recorder

__all__ = ["GanttChart", "GanttRow"]

#: Categories considered "computation" (dark) vs "communication" (light).
COMPUTE_CATEGORIES = frozenset({"compute", "exec"})
COMM_CATEGORIES = frozenset({"comm", "comm-send", "comm-recv"})


@dataclass
class GanttRow:
    """One row of the chart: a host and its busy intervals."""

    name: str
    intervals: List[Interval]

    def compute_time(self) -> float:
        return sum(i.duration for i in self.intervals
                   if i.category in COMPUTE_CATEGORIES)

    def comm_time(self) -> float:
        return sum(i.duration for i in self.intervals
                   if i.category in COMM_CATEGORIES)

    def idle_time(self, horizon: float) -> float:
        """Idle time up to ``horizon``, merging overlapping busy intervals."""
        merged = _merge_intervals([(i.start, i.end) for i in self.intervals])
        busy = sum(end - start for start, end in merged)
        return max(0.0, horizon - busy)


def _merge_intervals(spans: Sequence[Tuple[float, float]]
                     ) -> List[Tuple[float, float]]:
    if not spans:
        return []
    ordered = sorted(spans)
    merged = [list(ordered[0])]
    for start, end in ordered[1:]:
        if start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


class GanttChart:
    """A per-host timeline of computations and communications, one row
    per recorded host in name order."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.rows: List[GanttRow] = [
            GanttRow(name, recorder.by_row(name)) for name in recorder.rows()
        ]

    @property
    def horizon(self) -> float:
        """End date of the chart (the simulation makespan)."""
        return self.recorder.makespan()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-row totals: compute, communication and idle time."""
        horizon = self.horizon
        return {
            row.name: {
                "compute": row.compute_time(),
                "comm": row.comm_time(),
                "idle": row.idle_time(horizon),
            }
            for row in self.rows
        }

    def overlapping_comms(self) -> int:
        """Number of pairs of communications that overlap in time.

        The paper's figure highlights that *"concurrent communications
        interfere with each other as the TCP flows share network links"*;
        this metric makes that interference measurable in tests.
        """
        comms = sorted((i for i in self.recorder.intervals
                        if i.category in COMM_CATEGORIES),
                       key=lambda i: i.start)
        count = 0
        for idx, first in enumerate(comms):
            for second in comms[idx + 1:]:
                if second.start >= first.end:
                    break
                count += 1
        return count
