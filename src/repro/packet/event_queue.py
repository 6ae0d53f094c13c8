"""The discrete-event core of the packet-level simulator.

An event is a plain ``(date, seq, method, arg)`` heap entry that runs
``method(arg)`` at ``date``; ``seq`` breaks date ties in scheduling order.
There is no event object and no cancellation: a component that must ignore
one of its own events (a stale retransmission timer) recognises it by the
``arg`` it scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """A time-ordered queue of ``method(arg)`` calls with a simulated clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, method: Callable[[Any], None],
                 arg: Any) -> None:
        """Run ``method(arg)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._seq), method, arg))

    def run(self) -> None:
        """Process events in order until the queue drains."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            self.now, _, method, arg = pop(heap)
            method(arg)
