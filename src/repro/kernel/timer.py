"""Simulated-time timers.

Timers implement everything that is bound to a *date* rather than to the
completion of a SURF action: process sleeps, communication timeouts, GRAS
``gras_msg_wait`` deadlines, SMPI probes...

The queue is a lazy-deletion binary heap: cancelling a timer marks it dead
and it is skipped when popped.  A timer leaves the heap before it fires,
so a dead entry is always a cancelled one.  The per-event queries
(``next_date``, ``fire_until``, ``bool``) drop the dead entries at the
head of the heap and answer from the first live one, reading the flag
directly: a timer costs compares and slot reads, never a property or a
scan of the heap.  Only ``len`` and ``compact``, off the per-event path,
scan it.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, List, Tuple

__all__ = ["Timer", "TimerQueue"]


class Timer:
    """One pending timer.

    Attributes
    ----------
    date:
        Absolute simulated date at which the timer fires: a number
        ``>= 0``, or ``inf`` for a timer that never fires (``timeout=inf``).
        A NaN date is rejected with ``ValueError``: it compares false with
        everything and would break the heap order of every other timer.
    callback:
        Callable invoked (with no argument) when the timer fires.
    """

    __slots__ = ("date", "callback", "cancelled")

    def __init__(self, date: float, callback: Callable[[], None]) -> None:
        if not date >= 0:
            raise ValueError(f"timer date must be >= 0, got {date!r}")
        self.date = date
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the timer from firing (no-op if it already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"Timer(date={self.date}, {state})"


class TimerQueue:
    """Min-heap of timers ordered by firing date, ties in arm order."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Timer]] = []
        self._seq = itertools.count()

    def schedule(self, date: float, callback: Callable[[], None]) -> Timer:
        """Arm a timer at absolute ``date``."""
        timer = Timer(date, callback)
        heappush(self._heap, (date, next(self._seq), timer))
        return timer

    def next_date(self) -> float:
        """Date of the next pending timer, or ``inf`` when none remain."""
        heap = self._heap
        while heap:
            entry = heap[0]
            timer = entry[2]
            if timer.cancelled:
                heappop(heap)
                continue
            return entry[0]
        return math.inf

    def fire_until(self, now: float) -> int:
        """Fire every pending timer with ``date <= now``; return the count."""
        heap = self._heap
        horizon = now + 1e-12
        fired = 0
        while heap:
            entry = heap[0]
            timer = entry[2]
            if timer.cancelled:
                heappop(heap)
                continue
            if entry[0] > horizon:
                break
            heappop(heap)
            timer.callback()
            fired += 1
        return fired

    def compact(self) -> int:
        """Drop every cancelled entry from the heap; return the count.

        Lazy deletion leaves dead entries (e.g. the timeout timer of a wait
        that completed first) in the heap until their date passes.  Their
        callbacks often close over actor state that cannot be pickled, so
        the snapshot path compacts the queue first — removing a dead entry
        never changes what fires.  Surviving entries keep their original
        ``(date, seq)`` keys, so tie-breaks are unchanged.  The heap is
        rewritten in place: a timer callback may compact the queue while
        :meth:`fire_until` walks it.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        return before - len(heap)

    def __len__(self) -> int:
        return sum(1 for _, _, t in self._heap if not t.cancelled)

    def __bool__(self) -> bool:
        heap = self._heap
        while heap:
            if heap[0][2].cancelled:
                heappop(heap)
                continue
            return True
        return False
