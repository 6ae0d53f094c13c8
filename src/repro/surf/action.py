"""Actions: the unit of work simulated by a SURF model.

An :class:`Action` is either a computation (``CpuAction``) or a data
transfer (``NetworkAction``).  It carries a total *cost* (flops or bytes), a
*remaining* amount, and is tied to one LMM :class:`~repro.surf.lmm.Variable`
whose solved value is the instantaneous rate the action progresses at.

The state machine matches SimGrid's::

    RUNNING --> DONE        (remaining reached 0)
            --> FAILED      (a resource it uses was turned off)
            --> CANCELLED   (explicitly cancelled by the application)

Suspension is not a separate state: a suspended action stays RUNNING with a
sharing weight of zero, so it simply receives no capacity until resumed.

Lazy progress accounting
------------------------

The models no longer advance every action at every engine step.  Instead an
action records the date its remaining amount was last synchronised
(``last_sync``) and the rate in force since then (``last_rate``); its
predicted completion date sits in the owning model's event heap.  The
stored amount is only re-synchronised when the rate actually changes (the
LMM solver reports exactly those variables) or when the action terminates.
Reading :attr:`remaining` extrapolates from the stored amount at the
model's current clock, so external observers always see up-to-date
progress without any per-step work.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from repro.surf.lmm import Variable

__all__ = ["Action", "ActionState"]


class ActionState(enum.Enum):
    """Lifecycle states of an action."""

    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class Action:
    """Base class for everything that consumes simulated resources.

    Parameters
    ----------
    model:
        The owning model (CpuModel or NetworkModel); may be ``None`` in unit
        tests exercising the state machine alone.
    cost:
        Total amount of work (flops for computations, bytes for transfers).
    priority:
        Sharing weight passed to the LMM system.  Higher priority actions
        receive a proportionally larger share of contended resources.
    """

    __slots__ = ("model", "cost", "priority", "state", "variable",
                 "start_time", "finish_time", "data", "_suspended", "bound",
                 "_remaining", "last_sync", "last_rate", "_event_version")

    def __init__(self, model, cost: float, priority: float = 1.0) -> None:
        if cost < 0:
            raise ValueError("action cost must be >= 0")
        if priority < 0:
            raise ValueError("action priority must be >= 0")
        self.model = model
        self.cost = float(cost)
        self.priority = float(priority)
        self.state = ActionState.RUNNING
        self.variable: Optional[Variable] = None
        self.start_time: float = getattr(model, "clock", 0.0) if model else 0.0
        self.finish_time: Optional[float] = None
        self.data = None          # opaque back-pointer (activity, simcall...)
        self._suspended = False
        self.bound: Optional[float] = None
        # -- lazy progress bookkeeping
        self._remaining = float(cost)
        self.last_sync: float = self.start_time
        self.last_rate: float = 0.0
        # Bumped whenever the action's scheduled model event becomes stale;
        # the model's heap entries carry the version they were pushed with.
        self._event_version = 0

    # -- rate -------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Instantaneous progress rate from the last LMM solve."""
        if self.variable is None or self._suspended:
            return 0.0
        return self.variable.value

    @property
    def suspended(self) -> bool:
        """Whether the action is currently suspended (rate forced to 0)."""
        return self._suspended

    # -- lazy remaining ----------------------------------------------------------
    @property
    def remaining(self) -> float:
        """Remaining work, extrapolated to the model's current clock."""
        rem = self._remaining
        if (self.is_running() and self.last_rate > 0.0
                and self.model is not None):
            if math.isinf(self.last_rate):
                return 0.0
            elapsed = getattr(self.model, "clock", self.last_sync) - self.last_sync
            if elapsed > 0:
                rem = max(0.0, rem - self.last_rate * elapsed)
        return rem

    @remaining.setter
    def remaining(self, value: float) -> None:
        self._remaining = float(value)
        self.last_sync = getattr(self.model, "clock", 0.0) if self.model else 0.0
        # The completion heap is the only thing that finishes actions now,
        # so an external write to the remaining amount must displace the
        # previously predicted completion date.
        if self.model is not None and self.is_running():
            self.model._reschedule_action(self, self.last_sync)

    def sync_remaining(self, now: float) -> float:
        """Fold the progress made since ``last_sync`` into the stored amount.

        Must be called (by the owning model) whenever the action's rate is
        about to change, so the interval [last_sync, now] is accounted at
        the rate that was actually in force.  Returns the updated amount.
        """
        if self.is_running():
            if math.isinf(self.last_rate):
                self._remaining = 0.0
            elif self.last_rate > 0.0 and now > self.last_sync:
                self._remaining = max(
                    0.0, self._remaining - self.last_rate * (now - self.last_sync))
        self.last_sync = now
        return self._remaining

    # -- state transitions --------------------------------------------------------
    def is_running(self) -> bool:
        return self.state is ActionState.RUNNING

    def finish(self, now: float, state: ActionState) -> None:
        """Terminate the action in ``state`` at date ``now``."""
        if not self.is_running():
            return
        self.sync_remaining(now)
        self.state = state
        self.finish_time = now
        if self.model is not None:
            self.model.on_action_finished(self)

    def cancel(self, now: float) -> None:
        """Cancel the action (``MSG_task_cancel``)."""
        self.finish(now, ActionState.CANCELLED)

    def fail(self, now: float) -> None:
        """Mark the action failed because a resource it uses went down."""
        self.finish(now, ActionState.FAILED)

    def suspend(self) -> None:
        """Stop the action's progress without discarding its state."""
        if self._suspended or not self.is_running():
            return
        self._suspended = True
        if self.model is not None:
            self.model.on_action_priority_changed(self)

    def resume(self) -> None:
        """Resume a suspended action."""
        if not self._suspended or not self.is_running():
            return
        self._suspended = False
        if self.model is not None:
            self.model.on_action_priority_changed(self)

    def set_priority(self, priority: float) -> None:
        """Change the sharing weight of the action."""
        if priority < 0:
            raise ValueError("action priority must be >= 0")
        self.priority = float(priority)
        if self.model is not None:
            self.model.on_action_priority_changed(self)

    # -- progress ----------------------------------------------------------------
    def effective_weight(self) -> float:
        """Weight to hand to the LMM system (0 when suspended)."""
        return 0.0 if self._suspended else self.priority

    def progress(self) -> float:
        """Fraction of the work already performed, in ``[0, 1]``."""
        if self.cost <= 0:
            return 1.0 if not self.is_running() or self.remaining <= 0 else 0.0
        return 1.0 - self.remaining / self.cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(cost={self.cost}, "
                f"remaining={self.remaining:.6g}, state={self.state.value})")
