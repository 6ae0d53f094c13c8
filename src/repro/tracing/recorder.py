"""Event recorder: collects timed intervals during a simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["Interval", "Recorder"]


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
    """Collects intervals during a simulation.

    Attach an instance to an :class:`~repro.s4u.engine.Engine`
    (``Engine(platform, recorder=recorder)``) and it will receive one
    interval per completed computation and communication.
    """

    def __init__(self) -> None:
        self.intervals: List[Interval] = []

    # -- recording -------------------------------------------------------------------
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
