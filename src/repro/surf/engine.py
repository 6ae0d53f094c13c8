"""The SURF engine: advancing simulated time across all resource models.

The engine owns the simulated clock and repeatedly performs the fluid
simulation loop (docs/INVARIANTS.md, "SURF & LMM"):

1. ask every model to *share resources* (solve its MaxMin system) and report
   the date of its next action completion;
2. find the earliest of: action completions, trace events (availability
   changes, failures), and the caller-provided bound (used by the upper
   layers for timers and sleeps);
3. advance the clock to that date, update all running actions and apply
   the trace events that fire — a state event through :meth:`set_state`,
   which fails the actions that were using a resource that just died;
4. hand the completed and failed actions back to the caller (the s4u
   engine, under GRAS, SMPI and AMOK alike) which resumes the simulated
   actors waiting on them.

The engine is deliberately independent from the process layer so it can be
unit-tested (and benchmarked) with raw actions.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.surf.action import Action
from repro.surf.cpu import CpuModel, CpuResource
from repro.surf.network import LinkResource, NetworkModel
from repro.surf.resource import Resource
from repro.surf.trace import TraceIterator, TraceKind

__all__ = ["SurfEngine", "StepResult"]

_TIME_EPSILON = 1e-9


class StepResult:
    """Outcome of one engine step.

    Attributes
    ----------
    time:
        The new simulated date.
    completed:
        Actions that finished normally during the step.
    reached_bound:
        True when the step stopped at the caller-provided ``until`` bound
        rather than at an action completion or trace event.
    state_changes:
        List of ``(resource, is_on, failed)`` triples, one per resource
        whose on/off state changed during the step, ``failed`` being the
        actions that failed because the resource went down (the process
        layer applies each flip through its one state handler).
    speed_changes:
        List of ``(resource, availability)`` pairs for resources whose
        availability factor changed during the step (trace-driven external
        load; the process layer forwards them to its speed observers).
    """

    __slots__ = ("time", "completed", "reached_bound", "state_changes",
                 "speed_changes")

    def __init__(self, time: float, completed: List[Action],
                 reached_bound: bool,
                 state_changes: Optional[List[Tuple[Resource, bool,
                                                    List[Action]]]] = None,
                 speed_changes: Optional[List[Tuple[Resource, float]]] = None
                 ) -> None:
        # The lists handed in are kept, empty or not: a step allocates
        # its two lists once.
        self.time = time
        self.completed = completed
        self.reached_bound = reached_bound
        self.state_changes = [] if state_changes is None else state_changes
        self.speed_changes = [] if speed_changes is None else speed_changes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StepResult(time={self.time}, completed={len(self.completed)},"
                f" flips={len(self.state_changes)}, bound={self.reached_bound})")


class SurfEngine:
    """Couples the CPU and network models with a shared simulated clock."""

    def __init__(self, cpu_model: Optional[CpuModel] = None,
                 network_model: Optional[NetworkModel] = None) -> None:
        self.clock = 0.0
        self.cpu_model = cpu_model or CpuModel()
        self.network_model = network_model or NetworkModel()
        self.models = [self.cpu_model, self.network_model]
        # heap of (date, sequence, resource, kind, value, iterator)
        self._trace_heap: List[Tuple[float, int, Resource, TraceKind,
                                     float, TraceIterator]] = []
        self._seq = itertools.count()
        # Resources whose traces are already scheduled, keyed by kind and
        # name (stable across pickling, unlike id()): registering twice
        # must not double-schedule every event.
        self._trace_registered: set = set()
        self._zero_progress_steps = 0
        # Vestiges, never read since run_until_idle went: the snapshot
        # blob pins them; they go at the next benchmark re-gold.
        self.last_completed: List[Action] = []
        self.last_failed: List[Action] = []
        # Vestige, never read: perfbench's golden.json pins the snapshot
        # blob size; goes at the next benchmark re-gold.
        self.executor = None

    # -- model dispatch ----------------------------------------------------------------
    def model_of(self, resource: Resource):
        """The fluid model simulating ``resource``."""
        if isinstance(resource, CpuResource):
            return self.cpu_model
        if isinstance(resource, LinkResource):
            return self.network_model
        raise TypeError(f"unknown resource kind: {resource!r}")

    def add_cpu(self, name: str, speed: float, cores: int = 1,
                availability_trace=None, state_trace=None,
                index: Optional[int] = None, zone=None) -> CpuResource:
        """Create a CPU resource in the appropriate model.

        ``zone`` (the declaring :class:`~repro.platform.routing.NetZone`)
        selects the shard in a sharded engine; the flat engine ignores it.
        """
        return self.cpu_model.add_cpu(
            name, speed, cores, availability_trace=availability_trace,
            state_trace=state_trace, index=index)

    def add_link(self, name: str, bandwidth: float, latency: float = 0.0,
                 shared: bool = True, bandwidth_trace=None, state_trace=None,
                 index: Optional[int] = None, zone=None) -> LinkResource:
        """Create a link resource in the appropriate model (see add_cpu)."""
        return self.network_model.add_link(
            name, bandwidth, latency, shared,
            bandwidth_trace=bandwidth_trace, state_trace=state_trace,
            index=index)

    def execute(self, cpu: CpuResource, flops: float, priority: float = 1.0,
                bound: Optional[float] = None):
        """Start a computation on ``cpu`` in the CPU model (the sharded
        engine overrides it with the owning shard's)."""
        return self.cpu_model.execute(cpu, flops, priority, bound)

    def communicate(self, links, size: float,
                    rate: Optional[float] = None, priority: float = 1.0):
        """Start a transfer over ``links`` in the owning network model.

        In a sharded engine this is where cross-zone communications are
        handed off: link constraints spread over several shards migrate
        into the root shard before the flow is created.
        """
        return self.network_model.communicate(links, size, rate, priority)

    def kernel_stats(self) -> dict:
        """Aggregated kernel observability counters.

        Sums :meth:`FluidModel.solver_stats` over every model (and, in a
        sharded engine, every shard).  The platform layer merges its route
        cache stats into the same dict (see ``Platform.kernel_stats``).
        """
        solver: dict = {}
        for model in self.models:
            for key, value in model.solver_stats().items():
                solver[key] = solver.get(key, 0) + value
        return {"solver": solver, "models": len(self.models)}

    # -- resource registration -------------------------------------------------------
    def register_resource_traces(self, resource: Resource) -> None:
        """Schedule the availability and state trace events of a resource.

        The platform loader calls this automatically when it materializes
        a trace-carrying resource; calling it again (loader + user code,
        or a re-realize) is a no-op — each trace is scheduled exactly
        once, otherwise every availability/state flip would fire twice.
        Availability traces are validated here (values in ``[0, 1]``), so
        a bad trace fails at registration with the trace name instead of
        mid-step.
        """
        key = (type(resource).__name__, resource.name)
        if key in self._trace_registered:
            return
        if resource.availability_trace is not None:
            # Validate before marking registered: a rejected trace must
            # not poison the idempotency set and block a corrected retry.
            resource.availability_trace.validate_availability()
        self._trace_registered.add(key)
        if resource.availability_trace is not None:
            self._schedule_next(resource, TraceKind.AVAILABILITY,
                                resource.availability_trace.iter_from())
        if resource.state_trace is not None:
            self._schedule_next(resource, TraceKind.STATE,
                                resource.state_trace.iter_from())

    def _schedule_next(self, resource: Resource, kind: TraceKind,
                       iterator: TraceIterator) -> None:
        nxt = iterator.next_event()
        if nxt is None:
            return
        date, value = nxt
        heappush(self._trace_heap,
                 (date, next(self._seq), resource, kind, value, iterator))

    # -- resource state ----------------------------------------------------------------
    def set_state(self, resource: Resource, is_on: bool) -> List[Action]:
        """Turn ``resource`` on or off; return the actions that failed.

        The one way a resource changes state: state-trace events and the
        s4u ``turn_off()`` / ``turn_on()`` calls both land here.  When the
        resource goes down, every running action using it fails —
        transfers still paying their route latency included (their
        zero-weight LMM variable keeps them on the link's constraint).
        """
        if is_on:
            resource.turn_on()
            return []
        resource.turn_off()
        return self.model_of(resource).fail_actions_on(resource, self.clock)

    # -- time queries -----------------------------------------------------------------
    def next_trace_event_date(self) -> float:
        """Date of the next scheduled trace event (inf if none)."""
        if not self._trace_heap:
            return math.inf
        return self._trace_heap[0][0]

    def has_pending_state_events(self) -> bool:
        """True when an on/off (state) trace event is scheduled."""
        for entry in self._trace_heap:
            if entry[3] is TraceKind.STATE:
                return True
        return False

    def release(self) -> None:
        """Break the back-reference cycles of every model (and shard).

        Called once, by the closing s4u engine; the clock and the solver
        counters stay readable.
        """
        for model in self.models:
            model.release()

    def has_running_actions(self) -> bool:
        """True when an action that is not suspended runs in any model
        (only an actor resumes a suspended one)."""
        for model in self.models:
            # An empty set is skipped whole: iterating it would visit
            # every slot its largest size left.
            if model.running:
                for action in model.running:
                    if not action._suspended:
                        return True
        return False

    # -- main loop ---------------------------------------------------------------------
    def step(self, until: float = math.inf) -> Optional[StepResult]:
        """Advance the simulation by one event.

        Parameters
        ----------
        until:
            Upper bound on the new date (used by the process layer for its
            timers).  The engine never advances beyond it.

        Returns
        -------
        A :class:`StepResult`, or ``None`` when nothing can ever happen
        again (no running action, no pending trace event and no bound).
        """
        now = self.clock
        if until < now - _TIME_EPSILON:
            raise ValueError(f"cannot step backwards (until={until} < now={now})")

        min_delta = self._share_phase(now)

        # Earliest of: action event, trace event, caller bound.  A missing
        # one is +inf, and inf - now is inf, so plain compares do.
        trace_heap = self._trace_heap
        delta_trace = trace_heap[0][0] - now if trace_heap else math.inf
        delta_bound = until - now
        delta = min_delta
        if delta_trace < delta:
            delta = delta_trace
        if delta_bound < delta:
            delta = delta_bound
        if delta == math.inf:
            return None
        if delta < 0.0:
            delta = 0.0

        new_time = now + delta
        self.clock = new_time

        completed = self._update_phase(new_time, delta)

        state_changes: List[Tuple[Resource, bool, List[Action]]] = []
        speed_changes: List[Tuple[Resource, float]] = []
        if trace_heap and trace_heap[0][0] <= new_time + _TIME_EPSILON:
            self._fire_trace_events(new_time, state_changes, speed_changes)

        reached_bound = (delta_bound <= min_delta + _TIME_EPSILON
                         and delta_bound <= delta_trace + _TIME_EPSILON
                         and until != math.inf)

        # Spin guard: a model reporting "something completes in 0 s" while
        # nothing actually completes would loop here forever without
        # advancing the clock (the loopback-communication hang was exactly
        # that).  Turn such a wedge into a loud error instead.
        if (delta <= 0 and not completed and not state_changes
                and not reached_bound):
            self._zero_progress_steps += 1
            if self._zero_progress_steps > 10000:
                raise RuntimeError(
                    f"SURF engine stalled at t={self.clock:g}: "
                    f"{self._zero_progress_steps} consecutive zero-delay "
                    f"steps without any action completing")
        else:
            self._zero_progress_steps = 0
        return StepResult(new_time, completed, reached_bound,
                          state_changes, speed_changes)

    def _share_phase(self, now: float) -> float:
        """Solve every model's system; return the earliest event delay.

        The one phase the sharded engine overrides: it merges the
        per-shard solve results into the flat reschedule order.
        """
        min_delta = math.inf
        for model in self.models:
            delta = model.share_resources(now)
            if delta < min_delta:
                min_delta = delta
        return min_delta

    def _update_phase(self, now: float, delta: float) -> List[Action]:
        """Fire every model's due events; return the completed actions.

        Serves the sharded engine unchanged: its shards share one heap
        per model kind, so the first model of a kind drains it in flat
        ``(date, seq)`` order and the others find nothing due.
        """
        completed: List[Action] = []
        for model in self.models:
            # Peek before paying the call: most steps fire events in one
            # model while the others have nothing due yet.  Stale heap
            # heads (lazy removals) only ever make the peek pessimistic.
            heap = model._heap
            if heap and heap[0][0] <= now + _TIME_EPSILON:
                completed.extend(model.update_actions_state(now, delta))
            else:
                model.clock = now
        return completed

    def _fire_trace_events(
            self, now: float,
            state_changes: List[Tuple[Resource, bool, List[Action]]],
            speed_changes: List[Tuple[Resource, float]]) -> None:
        """Apply every trace event due at or before ``now``.

        A state event (0 = off, anything else = on) that flips its
        resource goes through :meth:`set_state` and is reported with the
        actions it failed; one that does not flip it is dropped.
        """
        heap = self._trace_heap
        horizon = now + _TIME_EPSILON
        while heap and heap[0][0] <= horizon:
            date, _, resource, kind, value, iterator = heappop(heap)
            if kind is TraceKind.AVAILABILITY:
                # The capacity flows through update_constraint_capacity
                # (the only-write-path rule); the owning model then
                # resyncs whatever per-action state mirrors the capacity
                # (multi-core per-core bounds).
                resource.set_availability(value)
                self.model_of(resource).on_resource_capacity_changed(resource)
                speed_changes.append((resource, value))
            else:
                is_on = value > 0
                if is_on != resource.is_on:
                    state_changes.append(
                        (resource, is_on, self.set_state(resource, is_on)))
            # Re-arm the next event of this trace (periodic traces never end).
            nxt = iterator.next_event()
            if nxt is not None:
                ndate, nvalue = nxt
                heappush(heap, (ndate, next(self._seq), resource, kind,
                                nvalue, iterator))
