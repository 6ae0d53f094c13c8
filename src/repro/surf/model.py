"""Shared event-driven machinery of the SURF fluid models.

Historically every engine step asked each model to re-push every running
action's weight/bound into the LMM system, re-solve it from scratch and
linearly scan all actions twice (once for the next completion date, once to
advance progress).  That made each step O(actions) even when nothing
changed — O(n²) for a whole simulation, and worse once the solver cost is
counted.

:class:`FluidModel` replaces those scans with an event heap:

* every running action has at most one *live* entry in the heap — its
  predicted completion date (or, for transfers, the end of its latency
  phase).  Entries are invalidated lazily by bumping the action's event
  version; stale entries are dropped when they surface;
* :meth:`share_resources` runs the (selective) LMM solve and recomputes the
  completion date *only* for the actions whose solved rate actually
  changed;
* :meth:`update_actions_state` pops the events due at the new date instead
  of scanning every running action.

The only write path from actions into the LMM system is
:meth:`on_action_priority_changed`; models and upper layers must never poke
the system directly, otherwise the dirtiness tracking (and therefore the
completion heap) would miss the change.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import List, Set, Tuple

from repro.surf.action import Action, ActionState
from repro.surf.lmm import MaxMinSystem

__all__ = ["FluidModel"]

#: Amount slack under which an action is considered finished.
COMPLETION_EPSILON = 1e-6
#: Date slack when popping due events (mirrors the engine's epsilon).
TIME_EPSILON = 1e-9

_INF = math.inf
_RUNNING, _DONE = ActionState.RUNNING, ActionState.DONE


class FluidModel:
    """Base class for the CPU and network fluid models."""

    def __init__(self) -> None:
        self.system = MaxMinSystem()
        self.running: Set[Action] = set()
        #: Current simulated date, pushed down by the SURF engine at every
        #: share/update call; actions created in between are stamped with it.
        self.clock = 0.0
        # heap of (date, sequence, version, action) — version mismatches
        # mark entries that were superseded by a reschedule.  The heap and
        # its counter belong to the model *kind*: a sharded engine points
        # every shard's pair at the root model's.
        self._heap: List[Tuple[float, int, int, Action]] = []
        self._seq = itertools.count()

    # -- observability -----------------------------------------------------------
    def solver_stats(self) -> dict:
        """Counters of this model's LMM system (benchmark observability).

        ``elements_visited`` and ``heap_pops`` expose the incremental
        progressive filling's actual work so benchmarks can prove the
        O(E log C) complexity instead of inferring it from wall-clock.
        """
        system = self.system
        return {
            "solve_calls": system.solve_calls,
            "solve_skipped": system.solve_skipped,
            "constraints_solved": system.constraints_solved,
            "variables_solved": system.variables_solved,
            "elements_visited": system.elements_visited,
            "heap_pops": system.heap_pops,
        }

    # -- event heap -------------------------------------------------------------
    def _schedule_event(self, action: Action, date: float) -> None:
        """(Re)schedule the single live event of ``action`` at ``date``."""
        version = action._event_version + 1
        action._event_version = version
        heappush(self._heap, (date, next(self._seq), version, action))

    def _unschedule_event(self, action: Action) -> None:
        """Invalidate the live event of ``action`` (lazy heap removal)."""
        action._event_version += 1

    def next_event_date(self) -> float:
        """Date of the earliest live event (inf when none is scheduled)."""
        heap = self._heap
        while heap:
            date, _, version, action = heap[0]
            if (version != action._event_version
                    or action.state is not _RUNNING):
                heappop(heap)
                continue
            return date
        return _INF

    # -- LMM write paths ---------------------------------------------------------
    def on_action_priority_changed(self, action: Action) -> None:
        """Model hook: push new weight/bound to the LMM system.

        This is the *only* path by which an action's weight or bound reaches
        the solver; the solver's dirtiness tracking hinges on it.  The
        weight is 0 while the action is suspended, its priority otherwise
        (the network model overrides this for the latency phase).
        """
        var = action.variable
        if var is None:
            return
        system = self.system
        system.update_variable_weight(
            var, 0.0 if action._suspended else action.priority)
        system.update_variable_bound(var, action.bound)

    def on_resource_capacity_changed(self, resource) -> None:
        """Model hook: a resource's effective capacity changed at runtime.

        Called after an availability event (or an explicit speed change)
        already pushed the new constraint capacity through
        ``update_constraint_capacity``.  The base models need nothing
        more; the CPU model overrides this to resync the per-core bounds
        of multi-core executions.
        """

    def on_action_finished(self, action: Action) -> None:
        """Model hook: drop the LMM variable of a terminated action."""
        if action.variable is not None:
            self.system.remove_variable(action.variable)
            action.variable = None
        self._unschedule_event(action)
        self.running.discard(action)

    def release(self) -> None:
        """Break this model's back-reference cycles (its engine closed).

        A running action and its model point at each other (``running``,
        the event heap, ``action.model``), and so do an action and its
        variable or its activity, a constraint and its resource: each
        running action forgets its activity and leaves the solver and
        the running set, the heap is emptied, and every constraint
        forgets its resource.
        """
        for action in list(self.running):
            action.data = None
            self.on_action_finished(action)
        self._heap.clear()
        for constraint in self.system.constraints:
            constraint.data = None

    # -- simulation steps --------------------------------------------------------
    def share_resources(self, now: float) -> float:
        """Re-solve what changed; return the delay until the next event."""
        self.clock = now
        system = self.system
        if system._modified or system._detached_dirty:
            self._adopt_solved_rates(system.solve(), now)
        # Peek the heap in place (the loop of next_event_date, minus its
        # frame): stale heads are dropped, the first live one answers.
        heap = self._heap
        while heap:
            date, _, version, action = heap[0]
            if (version != action._event_version
                    or action.state is not _RUNNING):
                heappop(heap)
                continue
            return date - now if date > now else 0.0
        return _INF

    @staticmethod
    def _adopt_solved_rates(variables, now: float) -> None:
        """Reschedule the actions of the ``variables`` a solve changed.

        The one place a solved value becomes an action's rate.  Static
        because the order of ``variables`` is the caller's business (the
        sharded engine passes several systems' results merged into flat
        order) and each action is rescheduled by the model it lives in.
        """
        for var in variables:
            action = var.data
            if action is None or action.state is not _RUNNING:
                continue
            # The interval since the last sync ran at the previous
            # rate; account it before adopting the new one.
            action.sync_remaining(now)
            action.last_rate = 0.0 if action._suspended else var.value
            action.model._reschedule_action(action, now)

    def _reschedule_action(self, action: Action, now: float) -> None:
        """Recompute and (re)schedule the next event of ``action``.

        The base implementation handles plain completions; the network
        model overrides it to keep latency-phase events in place.
        """
        rate = action.last_rate
        if rate <= 0.0:
            self._unschedule_event(action)
            return
        if rate == _INF or action._remaining <= COMPLETION_EPSILON:
            self._schedule_event(action, now)
            return
        self._schedule_event(action, now + action._remaining / rate)

    def update_actions_state(self, now: float, delta: float) -> List[Action]:
        """Fire the events due at ``now``; return the completed actions."""
        self.clock = now
        finished: List[Action] = []
        heap = self._heap
        horizon = now + TIME_EPSILON
        while heap:
            date, _, version, action = heap[0]
            if (version != action._event_version
                    or action.state is not _RUNNING):
                heappop(heap)
                continue
            if date > horizon:
                break
            heappop(heap)
            action._event_version += 1
            # The heap may be shared by every model of this kind (sharded
            # engine): the action's own model handles its event.
            action.model._fire_event(action, now, finished)
        return finished

    def _fire_event(self, action: Action, now: float,
                    finished: List[Action]) -> None:
        """Handle one due event: by default, the action's completion."""
        self._complete(action, now, finished)

    def _complete(self, action: Action, now: float,
                  finished: List[Action]) -> None:
        # ``Action.finish(now, DONE)`` for an action known to be running
        # and about to read zero: nothing left to sync.
        action._remaining = 0.0
        action.last_sync = now
        action.state = _DONE
        action.finish_time = now
        self.on_action_finished(action)
        finished.append(action)

    # -- failures ----------------------------------------------------------------
    def _actions_using(self, resource) -> List[Action]:
        """Running actions registered on ``resource``'s constraint."""
        constraint = resource.constraint
        if constraint is None:
            return []
        return [elem.variable.data for elem in constraint.elements
                if isinstance(elem.variable.data, Action)]

    def fail_actions_on(self, resource, now: float) -> List[Action]:
        """Fail every running action using ``resource`` (resource failure)."""
        failed: List[Action] = []
        for action in self._actions_using(resource):
            if action.state is _RUNNING:
                action.fail(now)
                failed.append(action)
        return failed
