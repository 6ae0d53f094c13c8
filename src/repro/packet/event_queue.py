"""The discrete-event core of the packet-level simulator."""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

__all__ = ["EventQueue", "ScheduledEvent"]


class ScheduledEvent:
    """Handle on a scheduled event; allows cancellation (lazy deletion)."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """A time-ordered queue of callbacks with a simulated clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]
                 ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        event = ScheduledEvent(self.now + delay, callback)
        heapq.heappush(self._heap, (event.time, next(self._seq), event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]
                    ) -> ScheduledEvent:
        """Schedule ``callback`` at an absolute date (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError("cannot schedule in the past")
        event = ScheduledEvent(max(time, self.now), callback)
        heapq.heappush(self._heap, (event.time, next(self._seq), event))
        return event

    def run(self, until: float = math.inf,
            max_events: Optional[int] = None) -> int:
        """Process events in order until the queue drains or ``until``.

        Returns the number of events processed.
        """
        processed = 0
        while self._heap:
            time, _, event = self._heap[0]
            if time > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = time
            event.callback()
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        return processed
