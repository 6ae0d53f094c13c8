"""Resources: the simulated hardware entities managed by SURF models.

A :class:`Resource` wraps one LMM :class:`~repro.surf.lmm.Constraint` and
adds what the paper's SURF panel describes:

* a *peak capacity* (CPU speed in flop/s, link bandwidth in byte/s);
* an *availability* factor in ``[0, 1]`` driven by an availability trace
  ("performance variations due to external load");
* an on/off *state* driven by a state trace or an explicit ``turn_off()``
  / ``turn_on()`` ("dynamic resource failures"), both applied through
  :meth:`~repro.surf.engine.SurfEngine.set_state`.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.surf.lmm import Constraint, MaxMinSystem
from repro.surf.trace import Trace

__all__ = ["Resource"]


class Resource:
    """Base class for CPUs and network links.

    Parameters
    ----------
    name:
        Unique human-readable identifier.
    peak_capacity:
        Nominal capacity when fully available.
    system:
        The LMM system in which the resource registers its constraint.
    shared:
        Passed through to the constraint (``False`` models fat pipes).
    availability_trace / state_trace:
        Optional :class:`~repro.surf.trace.Trace` objects driving the
        availability factor and the on/off state over time.
    """

    def __init__(self, name: str, peak_capacity: float,
                 system: Optional[MaxMinSystem] = None,
                 shared: bool = True,
                 availability_trace: Optional[Trace] = None,
                 state_trace: Optional[Trace] = None,
                 index: Optional[int] = None) -> None:
        if peak_capacity < 0:
            raise ValueError(f"resource {name!r}: capacity must be >= 0")
        self.name = name
        self.peak_capacity = float(peak_capacity)
        self.availability = 1.0
        self.is_on = True
        self.availability_trace = availability_trace
        self.state_trace = state_trace
        self.constraint: Optional[Constraint] = None
        self._system = system
        if system is not None:
            # ``index`` pins the constraint id to the resource's platform
            # declaration index, making the id — and every id-based
            # tie-break downstream — independent of materialization order
            # (flat ≡ sharded to the bit).
            self.constraint = system.new_constraint(
                peak_capacity, shared=shared, data=self, cid=index)

    # -- capacity ----------------------------------------------------------------
    @property
    def current_capacity(self) -> float:
        """Capacity after applying availability and on/off state."""
        if not self.is_on:
            return 0.0
        return self.peak_capacity * self.availability

    def _push_capacity(self) -> None:
        if self.constraint is not None and self._system is not None:
            self._system.update_constraint_capacity(
                self.constraint, self.current_capacity)

    def set_peak_capacity(self, capacity: float) -> None:
        """Change the nominal capacity of the resource at runtime.

        The new value reaches the solver through
        ``update_constraint_capacity`` — the one write path the selective
        solve tracks — so only the affected component is re-solved.
        """
        if not (math.isfinite(capacity) and capacity >= 0):
            raise ValueError(f"resource {self.name!r}: capacity must be "
                             f"finite and >= 0, got {capacity!r}")
        self.peak_capacity = float(capacity)
        self._push_capacity()

    # -- trace / failure handling --------------------------------------------------
    def set_availability(self, factor: float) -> None:
        """Set the availability factor (usually from a trace event)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(
                f"resource {self.name!r}: availability factor {factor} is "
                f"outside [0, 1]")
        self.availability = float(factor)
        self._push_capacity()

    def turn_off(self) -> None:
        """Fail the resource: its capacity drops to zero.

        Only ``SurfEngine.set_state`` calls this (and ``turn_on``): it
        also fails the actions the resource was carrying.
        """
        if not self.is_on:
            return
        self.is_on = False
        self._push_capacity()

    def turn_on(self) -> None:
        """Restore the resource after a failure."""
        if self.is_on:
            return
        self.is_on = True
        self._push_capacity()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"peak={self.peak_capacity}, avail={self.availability}, "
                f"on={self.is_on})")
