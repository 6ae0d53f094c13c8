"""Trace-driven variation of resource availability and state.

The paper lists among SURF's features:

* *Trace-based simulation of performance variations due to external load*
  (CPU availability, network bandwidth), and
* *Trace-based simulation of dynamic resource failures* (transient failures).

A :class:`Trace` is an ordered list of ``(time, value)`` events, optionally
periodic.  Two kinds of traces exist:

* **availability traces** — the value is a scaling factor in ``[0, 1]``
  applied to the peak capacity of the resource (CPU speed, link bandwidth);
* **state traces** — the value is interpreted as a boolean: 0 turns the
  resource off (failure), anything else turns it back on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["Trace", "TraceEvent", "TraceKind", "TraceIterator"]


class TraceKind(enum.Enum):
    """What aspect of a resource a trace drives."""

    AVAILABILITY = "availability"
    STATE = "state"


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled change: at ``time`` the resource takes ``value``."""

    time: float
    value: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("trace event time must be >= 0")


class Trace:
    """An ordered sequence of :class:`TraceEvent`, optionally periodic.

    Parameters
    ----------
    events:
        Iterable of ``(time, value)`` pairs.  Times must be non-decreasing
        and not NaN: a NaN date compares false with everything, so it
        would head SURF's trace heap and stop every later event of the
        trace.
    period:
        If given, the trace repeats with this period: after the last event,
        the sequence restarts shifted by ``period``.  Must be strictly
        greater than the last event time (so never NaN).
    name:
        Optional label used in error messages and exports.
    """

    def __init__(self, events: Sequence[Tuple[float, float]],
                 period: Optional[float] = None,
                 name: str = "") -> None:
        evts = [TraceEvent(float(t), float(v)) for t, v in events]
        for position, evt in enumerate(evts):
            if math.isnan(evt.time):
                raise ValueError(
                    f"trace {name!r}: event #{position} has a NaN time")
        for prev, nxt in zip(evts, evts[1:]):
            if nxt.time < prev.time:
                raise ValueError(
                    f"trace {name!r}: event times must be non-decreasing "
                    f"({nxt.time} < {prev.time})")
        if period is not None:
            if not evts:
                raise ValueError("a periodic trace needs at least one event")
            if not period > evts[-1].time:
                raise ValueError(
                    f"trace {name!r}: period ({period}) must exceed the last "
                    f"event time ({evts[-1].time})")
        self.events: List[TraceEvent] = evts
        self.period = period
        self.name = name

    # -- parsing ----------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Trace":
        """Parse the classic SimGrid trace file format.

        Lines are ``<time> <value>``; a line ``PERIODICITY <p>`` (or
        ``LOOPAFTER <p>``) declares the period; ``#`` starts a comment.

        >>> Trace.parse("PERIODICITY 10\\n0.0 1.0\\n5.0 0.5\\n").period
        10.0
        """
        events: List[Tuple[float, float]] = []
        period: Optional[float] = None
        for number, raw in enumerate(text.splitlines(), 1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                first, second = parts
                if first.upper() in ("PERIODICITY", "LOOPAFTER"):
                    period = float(second)
                else:
                    events.append((float(first), float(second)))
            except ValueError:
                raise ValueError(f"cannot parse trace line {number} "
                                 f"{raw!r}") from None
        return cls(events, period=period)

    # -- validation --------------------------------------------------------------
    def validate_availability(self) -> "Trace":
        """Check every value is a valid availability factor in ``[0, 1]``.

        A :class:`Trace` is kind-agnostic at construction (state traces
        allow any value), so availability use is validated at the point a
        trace is attached to a resource as an availability/bandwidth
        trace.  Raises :class:`~repro.exceptions.TraceError` naming the
        trace and the offending event, so a bad trace file fails at load
        instead of mid-step deep inside the engine.  Returns the trace so
        call sites can chain it.
        """
        from repro.exceptions import TraceError
        for position, evt in enumerate(self.events):
            if not (0.0 <= evt.value <= 1.0):
                raise TraceError(
                    f"availability trace {self.name!r}: value {evt.value} at "
                    f"event #{position} (t={evt.time}) is outside [0, 1]")
        return self

    def iter_from(self) -> "TraceIterator":
        """Iterator over absolute-dated events from date 0."""
        return TraceIterator(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace(name={self.name!r}, nevents={len(self.events)}, "
                f"period={self.period})")


class TraceIterator:
    """Stateful cursor: :meth:`next_event` returns the next
    ``(absolute_time, value)`` pair.

    For a periodic trace the cursor never runs out; for a finite trace it
    returns ``None`` after the last event.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._index = 0
        self._cycle_offset = 0.0

    def _peek(self) -> Optional[Tuple[float, float]]:
        trace = self.trace
        if self._index < len(trace.events):
            evt = trace.events[self._index]
            return (evt.time + self._cycle_offset, evt.value)
        if trace.period is None:
            return None
        evt = trace.events[0]
        return (evt.time + self._cycle_offset + trace.period, evt.value)

    def _advance(self) -> None:
        trace = self.trace
        self._index += 1
        if self._index >= len(trace.events) and trace.period is not None:
            self._index = 0
            self._cycle_offset += trace.period

    def next_event(self) -> Optional[Tuple[float, float]]:
        """Consume and return the next event (``None`` when exhausted)."""
        nxt = self._peek()
        if nxt is not None:
            self._advance()
        return nxt
