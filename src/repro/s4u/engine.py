"""The S4U engine: the one simulation kernel every user-facing API runs on.

The engine is the orchestrator tying everything together (SimGrid's
*simix*, later ``s4u::Engine``):

* it owns the realized :class:`~repro.platform.platform.Platform` and its
  :class:`~repro.surf.engine.SurfEngine`;
* it schedules the simulated actors (created, suspended, resumed and
  killed dynamically, as the paper requires);
* it matches senders and receivers on mailboxes, creates the SURF actions
  realising executions and transfers, and advances simulated time;
* it converts resource failures into the exceptions the paper's API
  reports (host failure, transfer failure, timeouts).

GRAS (in simulation mode), SMPI and AMOK drive this engine directly
through the s4u actor/mailbox/activity objects — there is exactly one
simulation loop in the package and this is it.
"""

from __future__ import annotations

import math
import pickle
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.exceptions import (
    CancelledError,
    DeadlockError,
    HostFailureError,
    PlatformError,
    ProcessKilledError,
    SimGridError,
    SimTimeoutError,
    SnapshotError,
    TransferFailureError,
)
from repro.kernel.collector import paused_collector, young_passes_only
from repro.kernel.context import FINISHED, make_context_factory
from repro.kernel.timer import TimerQueue
from repro.s4u import actor as _actor_mod
from repro.s4u.activity import Activity, ActivityState, Comm, Exec
from repro.s4u.actor import Actor
from repro.s4u.host import Host
from repro.s4u.link import Link
from repro.s4u.mailbox import Mailbox
from repro.platform.platform import Platform
from repro.surf.action import ActionState
from repro.surf.network import LinkResource

__all__ = ["Engine"]

_EPS = 1e-12
# The two live states, compared by identity on the hot path ("is over" is
# "is neither"): a set lookup would run Enum.__hash__, a Python frame.
_PENDING, _STARTED = ActivityState.PENDING, ActivityState.STARTED
_RUNNING = ActionState.RUNNING


class Engine:
    """A complete simulation world: platform + actors + simulated time.

    Parameters
    ----------
    platform:
        The platform description.  It is realized automatically if needed.
    context_factory:
        ``"generator"`` (default) or ``"thread"`` — how simulated actor
        bodies are executed (see :mod:`repro.kernel.context`).
    raise_on_deadlock:
        When True, :meth:`run` raises :class:`DeadlockError` if every
        remaining actor is blocked forever; otherwise the simulation just
        ends (mirroring SimGrid's warning).  The actors are deadlocked
        when every action is over or suspended (only an actor resumes
        one), no timer is armed and no pending trace event can wake one:
        there is none, or every one is an availability change (a periodic
        trace never runs out of events, and a bare speed change wakes
        nobody, observed or not).  They are also deadlocked when actions
        run but none can ever end: no trace event is left to lift their
        zero rate.
    sharded:
        When True (and the platform is not realized yet), realize it on a
        :class:`~repro.surf.shard.ShardedSurfEngine` partitioned along
        the platform's top-level zones.  Simulated dates are bit-identical
        to the flat kernel either way.
    """

    def __init__(self, platform: Platform,
                 context_factory: str = "generator",
                 raise_on_deadlock: bool = False,
                 sharded: bool = False) -> None:
        self.platform = platform
        if not platform.realized:
            platform.realize(sharded=sharded)
        self.surf = platform.engine
        self.context_factory = make_context_factory(context_factory)
        self.raise_on_deadlock = raise_on_deadlock
        # Vestiges, never read: perfbench's golden.json pins the snapshot
        # blob size; all go at the next benchmark re-gold.
        self.recorder = None
        self.manage_gc = None
        self._lazy_platform = True
        self._link_state_listeners: list = []
        self._speed_listeners: list = []
        # Only the already-materialized resources (those carrying traces)
        # get wrappers up front; the rest materialize on first lookup,
        # keeping engine construction O(touched) for 10⁵-host platforms.
        self.hosts: Dict[str, Host] = {}
        for name in platform.cpu_by_host:
            self._materialize_host(name)

        self.links: Dict[str, Link] = {}
        for name in list(platform.link_by_name):
            self._materialize_link(name)

        self.mailboxes: Dict[str, Mailbox] = {}
        # Vestige, never read: perfbench's golden.json pins the snapshot
        # blob size; goes at the next benchmark re-gold.
        self.actors: List[Actor] = []
        self.timers = TimerQueue()
        self._ready: Deque[Tuple[Actor, object, Optional[BaseException]]] = deque()
        self._alive_nondaemon = 0
        # Alive actors as an insertion-ordered set (a dict): daemon reaping
        # and deadlock handling iterate it, and ``actor_count`` is O(1).
        self._alive_actors: Dict[Actor, None] = {}
        # Started comms, as an insertion-ordered set (a dict): host
        # failures iterate it to fail the crossing transfers, so its
        # order must survive a snapshot/restore round-trip — a plain set
        # would iterate in id()-hash order, which no restored process
        # reproduces.
        self._active_comms: Dict[Comm, None] = {}
        self._deadlocked = False
        # Failure-model bookkeeping: the hooks acting on host flips and the
        # actors awaiting an auto-restart of their failed host.
        self._host_state_listeners: List[Callable[[Host, bool], None]] = []
        self._pending_restarts: Dict[Host, List[Tuple]] = {}
        #: Number of actors rebooted by the auto-restart machinery.
        self.restart_count = 0
        # True while the run-loop reaps leftover actors (daemon kill at
        # end of run, deadlock cleanup).  Lifecycle hooks that respawn
        # actors — e.g. a repro.ft Supervisor restarting a killed child —
        # must check it: a respawn during teardown would never be
        # scheduled and would leave the engine non-quiescent.
        self._tearing_down = False

    # ------------------------------------------------------------------------------
    # world accessors
    # ------------------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.surf.clock

    def kernel_stats(self) -> dict:
        """Aggregated kernel observability (solver + caches + shards).

        Merges every fluid model's LMM counters across shards with the
        platform's route cache and routing stats and the shard section
        when the kernel is sharded.
        """
        return self.platform.kernel_stats()

    #: Set by :meth:`close`; a class default, so no snapshot carries it.
    _closed = False

    def close(self) -> None:
        """Release the engine: break every back-reference cycle it owns.

        An engine is a graph of cycles (host, link, actor and mailbox
        facades point back at it, constraints at their resources, zones
        at their platform): dropped as it is, only the cyclic collector
        can free it.  After ``close()`` reference counting frees it as
        soon as the last outside reference goes, so the young collector
        pass that ends a campaign run has nothing left to trace.

        Actors still alive are killed first, as at the end of a run.  Then
        each layer drops the references it owns: this engine its hosts,
        links, actors, mailboxes, timers, hooks, observers and pending
        restarts; the platform its zone tree; SURF its constraints' resources and
        its running actions.  :attr:`now` and :meth:`kernel_stats` still
        answer; :meth:`run` and :meth:`snapshot` raise
        :class:`~repro.exceptions.SimGridError`.  Closing twice does
        nothing.
        """
        if self._closed:
            return
        self._tearing_down = True
        for actor in list(self._alive_actors):
            self._kill_actor(actor)
        self._closed = True
        for box in self.mailboxes.values():
            box.pending_sends.clear()
            box.pending_recvs.clear()
        self.timers = TimerQueue()
        for owned in (self.hosts, self.links, self.mailboxes, self._ready,
                      self._active_comms, self._pending_restarts,
                      self._host_state_listeners):
            owned.clear()
        self._observers = ()
        self.platform.release()
        self.surf.release()

    # ------------------------------------------------------------------------------
    # snapshot / fork
    # ------------------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the whole simulation state into an opaque blob.

        The kernel state is pure Python, so the realized platform, the
        SURF models (clocks, LMM systems, completion heaps, pending trace
        events), the armed timers (e.g. a mid-churn
        :class:`~repro.s4u.failure.FailureInjector`, RNG state included)
        and the auto-restart bookkeeping all pickle directly.
        :meth:`restore` resumes from the blob with bit-identical future
        dates — in this process or another one.

        The one thing that cannot travel is a live actor body (a Python
        generator frame), so a snapshot requires a *quiescent* engine: no
        actor alive, nothing in the ready queue — i.e. right after
        :meth:`run` completed a phase.  The idiom is to run a warmed
        prefix to completion, snapshot, then add the per-experiment actors
        after :meth:`restore` (see :mod:`repro.campaign`).  Raises
        :class:`~repro.exceptions.SnapshotError` otherwise.

        Functions referenced by the surviving state (auto-restart actor
        bodies, pending payloads, hooks, observers) must be module-level
        so pickle can name them.
        """
        if self._closed:
            raise SimGridError("snapshot() on a closed engine")
        if self._alive_actors or self._ready:
            alive = ", ".join(a.name for a in self._alive_actors)
            raise SnapshotError(
                f"snapshot needs a quiescent engine (actor bodies are live "
                f"generator frames and cannot be pickled); still alive: "
                f"[{alive}] at t={self.surf.clock:g} — run() the current "
                f"phase to completion first")
        # Lazily-deleted timer entries (cancelled timeouts of completed
        # waits) can reach dead actors whose bodies were closures; they
        # never fire, so drop them rather than pickle them.
        self.timers.compact()
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "Engine":
        """Rebuild an engine from a :meth:`snapshot` blob.

        The restored engine continues exactly where the snapshot was
        taken: same clock, same pending timers/traces/restarts, same
        solver and RNG state — future simulated dates and event order are
        bit-identical to the engine that produced the blob.  Each call
        returns an independent copy, so one warmed blob can fork any
        number of experiment runs.
        """
        engine = pickle.loads(blob)
        if not isinstance(engine, Engine):
            raise SnapshotError(
                f"blob does not hold an s4u.Engine (got {type(engine).__name__})")
        return engine

    def _materialize_host(self, name: str) -> Host:
        host = Host(self, self.platform.hosts[name],
                    self.platform.cpu_of(name))
        self.hosts[name] = host
        return host

    def _materialize_link(self, name: str) -> Link:
        link = Link(self, self.platform.link_resource(name))
        self.links[name] = link
        return link

    def host(self, name: str) -> Host:
        """Lookup a host by name (materializing it on first lookup)."""
        host = self.hosts.get(name)
        if host is None:
            if name in self.platform.hosts:
                return self._materialize_host(name)
            raise PlatformError(f"unknown host {name!r}")
        return host

    def link_by_name(self, name: str) -> Link:
        """Lookup a link by name (S4U ``Link::by_name``)."""
        link = self.links.get(name)
        if link is None:
            if name in self.platform.links:
                return self._materialize_link(name)
            raise PlatformError(f"unknown link {name!r}")
        return link

    def mailbox(self, name: str) -> Mailbox:
        """Get (or lazily create) a mailbox by name."""
        box = self.mailboxes.get(name)
        if box is None:
            box = Mailbox(name, engine=self)
            self.mailboxes[name] = box
        return box

    # ------------------------------------------------------------------------------
    # actor management (engine-level API)
    # ------------------------------------------------------------------------------
    @young_passes_only
    def add_actor(self, name: str, host: Union[str, Host], func: Callable,
                  *args, daemon: bool = False, auto_restart: bool = False,
                  **kwargs) -> Actor:
        """Create a simulated actor and make it runnable immediately.

        ``func(actor, *args, **kwargs)`` is the body.  ``auto_restart``
        actors are rebooted (fresh body, same function and arguments) when
        their failed host is restored.

        The call runs with the cyclic collector paused and ends in at most
        one young pass (:func:`~repro.kernel.collector.young_passes_only`):
        adding thousands of actors never re-traces the ones added before.
        """
        host_obj = host if isinstance(host, Host) else self.host(host)
        actor = Actor(self, name, host_obj, func, args, kwargs, daemon=daemon,
                      auto_restart=auto_restart)
        actor.context = self.context_factory.create(
            func, (actor, *args), kwargs)
        self._alive_actors[actor] = None
        host_obj.actors.append(actor)
        if not daemon:
            self._alive_nondaemon += 1
        self._ready.append((actor, None, None))
        return actor

    def actor_count(self) -> int:
        """Number of actors still alive."""
        return len(self._alive_actors)

    # -- resource state ------------------------------------------------------------------
    def _set_state(self, resource, is_on: bool, failed=None) -> None:
        """The one handler of a host or link going down or up.

        ``Host`` / ``Link.turn_off()`` and ``turn_on()`` call it without
        ``failed`` and it flips ``resource`` through
        ``SurfEngine.set_state`` (nothing happens if the resource already
        is in that state); the run loop calls it once per state-trace
        flip, with the actions SURF failed.  Either way, in this order:

        1. the activities of the failed actions fail;
        2. a host going down fails the comms touching it and kills its
           actors, queueing the ``auto_restart`` ones — a host coming up
           reboots them, in creation order;
        3. the host hooks act, then the observers see a ``"state"`` event.

        All three run in kernel context, also when an actor's own call
        got here: the ``on_exit`` hooks and host hooks they fire see no
        running actor, so their ``kill()``, ``suspend()`` and ``resume()``
        act at once, as from a timer.  An actor that turns off its own
        host dies in step 2 like the others; the call then raises
        ``ProcessKilledError`` into its body instead of returning.
        """
        if failed is None:
            if resource.is_on == is_on:
                return
            failed = self.surf.set_state(resource, is_on)
        # A hook's own flip nests here with no running actor: it keeps
        # the actor of the outer flip.
        running = _actor_mod._current
        flipping = _actor_mod._flipping
        _actor_mod._current = None
        if running is not None:
            _actor_mod._flipping = running
        try:
            for action in failed:
                activity = action.data
                if activity is not None:
                    self._finish_activity(activity, ActivityState.FAILED)
            # A CPU or link resource carries its host's or link's name; a
            # facade never materialized has nobody to tell.
            if isinstance(resource, LinkResource):
                host, facade = None, self.links.get(resource.name)
            else:
                host = facade = self.hosts.get(resource.name)
            if host is not None and is_on:
                for (name, func, args, kwargs,
                     daemon) in self._pending_restarts.pop(host, []):
                    self.restart_count += 1
                    self.add_actor(name, host, func, *args, daemon=daemon,
                                   auto_restart=True, **kwargs)
            elif host is not None:
                # Started comms only: _finish_activity removes a comm
                # from _active_comms as it ends.
                for comm in list(self._active_comms):
                    if comm.src_host is host or comm.dst_host is host:
                        if comm.surf_action.is_running():
                            comm.surf_action.cancel(self.surf.clock)
                        self._finish_activity(comm, ActivityState.FAILED)
                for actor in list(host.actors):
                    if not actor.is_alive:  # died in a sibling's on_exit
                        continue
                    if actor.auto_restart:
                        self._pending_restarts.setdefault(host, []).append(
                            (actor.name, actor.func, actor.args,
                             actor.kwargs, actor.daemon))
                    self._kill_actor(actor)
            if host is not None:
                for callback in self._host_state_listeners:
                    callback(host, is_on)
            if facade is not None:
                self._emit("state", facade, is_on)
        finally:
            _actor_mod._current = running
            _actor_mod._flipping = flipping
        if running is not None and not running.is_alive:
            raise ProcessKilledError(f"killed by turning off {resource.name}")

    # -- watching the run -----------------------------------------------------------------
    def on_host_state_change(self, callback: Callable[[Host, bool], None]
                             ) -> Callable[[Host, bool], None]:
        """Register ``callback(host, is_on)``, fired on every host flip.

        Fired by the one state handler, so explicit ``turn_off`` /
        ``turn_on`` calls, state-trace events and injector pulses are seen
        alike, after the failure (or restart) side effects were applied.
        The one hook that may act (a ``Supervisor`` respawns from it).
        """
        self._host_state_listeners.append(callback)
        return callback

    #: The subscribers of :meth:`observe`; a class default, so an engine
    #: nobody observes pickles without it.
    _observers: Tuple[Callable, ...] = ()

    def observe(self, callback: Callable) -> Callable:
        """Subscribe ``callback(date, kind, subject, value)`` to the run's
        one passive event stream, called in subscription order:

        * ``"end"``: an Activity finished, ``value`` its final state;
        * ``"speed"``: a Host's core speed or a Link's bandwidth changed
          (trace event, ``set_speed``, ``set_bandwidth``) and reached the
          solver, ``value`` the new speed;
        * ``"state"``: a Host or Link went down or up, after the flip's
          failures, kills, reboots and host hooks (so a flip nested in a
          hook comes first); ``value`` is ``is_on``.

        Hosts and links never looked up (and carrying no trace) are not
        reported.  An observer watches and must not change the world (add,
        kill, suspend or resume an actor, flip a resource, arm a timer,
        run): a run ends the same whether anybody observes it or not.  A
        :class:`repro.tracing.Recorder` is one; code that must act on a
        flip uses :meth:`on_host_state_change`.  Returns the callback.
        """
        self._observers = (*self._observers, callback)
        return callback

    def _emit(self, kind: str, subject, value) -> None:
        date = self.surf.clock
        for callback in self._observers:
            callback(date, kind, subject, value)

    # ------------------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation until it ends (or until the given date).

        Returns the final simulated time.  A date that already passed is
        "nothing to do": the call returns :attr:`now` without stepping.
        A NaN ``until`` raises ``ValueError``.
        An exception escaping an actor body propagates out of this call
        after the actor was terminated (see :attr:`Actor.exit_status`), so
        the engine stays consistent and a later :meth:`run` finishes the
        healthy actors.

        The loop runs with Python's cyclic collector paused and the call
        ends in one ``gc.collect(0)`` that re-enables it, exception or
        not (:func:`~repro.kernel.collector.paused_collector`): no
        collector pass happens inside a run, and cyclic garbage an actor
        body creates is freed when the run ends.  A caller that paused
        the collector itself (a campaign run, ``gc.disable()``) keeps it
        paused, and makes the pass itself.
        """
        if self._closed:
            raise SimGridError("run() on a closed engine")
        limit = math.inf if until is None else float(until)
        if math.isnan(limit):
            raise ValueError(f"until must be None or a date: {until!r}")
        if limit < self.surf.clock:
            return self.surf.clock
        self._tearing_down = False
        self._deadlocked = False
        with paused_collector():
            self._run_loop(limit, until)
        return self.surf.clock

    def _run_loop(self, limit: float, until: Optional[float]) -> None:
        # Bound once per run: the callees of every turn.  ``surf.step``
        # and ``timers.fire_until`` stay real calls, once per event.
        schedule_ready = self._schedule_ready
        simulation_over = self._simulation_over
        finish = self._finish_activity
        next_date = self.timers.next_date
        fire_until = self.timers.fire_until
        step = self.surf.step
        done = ActivityState.DONE
        while True:
            schedule_ready()
            if simulation_over():
                break
            bound = next_date()
            if limit < bound:
                bound = limit
            result = step(until=bound)
            if result is None:
                # No action can complete, no trace event, no timer, no limit:
                # the remaining actors (if any) are deadlocked.
                self._handle_deadlock()
                break
            now = result.time
            for resource, is_on, flip_failed in result.state_changes:
                self._set_state(resource, is_on, flip_failed)
            if result.speed_changes and self._observers:
                self._emit_speed_changes(result.speed_changes)
            for action in result.completed:
                # An engine action carries its Activity until it finishes.
                activity = action.data
                if activity is not None:
                    finish(activity, done)
            fire_until(now)
            if until is not None and now >= limit - _EPS:
                schedule_ready()
                break

    @property
    def deadlocked(self) -> bool:
        """True when the last :meth:`run` ended because of a deadlock.

        Reset at the start of every run, so a deadlocked phase followed
        by a healthy one reads False.
        """
        return self._deadlocked

    @property
    def is_tearing_down(self) -> bool:
        """True while the engine reaps leftover actors at end of run.

        Actor ``on_exit`` hooks that normally respawn actors (supervision
        trees, custom restart logic) must become no-ops when this is set:
        the run is over, so a respawned actor would never be scheduled and
        would leave the engine non-quiescent for snapshots or reuse.
        """
        return self._tearing_down

    # -- loop helpers -------------------------------------------------------------------
    def _schedule_ready(self) -> None:
        """Run every ready actor up to its next simcall, and handle it.

        The whole actor turn is this one loop: pop, resume the body (the
        ``resume`` of either context of :mod:`repro.kernel.context` — the
        only call per turn besides the handler), call the handler the
        simcall it answered with carries.  An ``*_async`` handler answers
        through the back of this same queue, so the queue order is the
        event order.
        """
        ready = self._ready
        popleft = ready.popleft
        while ready:
            actor, value, exception = popleft()
            if not actor.is_alive:
                continue
            if actor._suspended:
                actor._parked_resume = (value, exception)
                continue
            previous = _actor_mod._current
            _actor_mod._current = actor
            try:
                request = actor.context.resume(value, exception)
            except BaseException as exc:
                _actor_mod._current = previous
                if not actor.is_alive:
                    # Killed inside its own turn (it turned off its own
                    # host): the error is the ProcessKilledError that
                    # unwound the body of an actor already buried.
                    continue
                # The body is gone: bury the actor (exit hooks, joiners,
                # counters) before the error leaves run(), or the next
                # run() would report the corpse as a deadlock.
                actor.exit_status = exc
                self._terminate_actor(actor, failed=True)
                raise
            _actor_mod._current = previous
            if request is FINISHED:
                self._terminate_actor(actor)
                continue
            request.handler(actor, *request.args)

    def _simulation_over(self) -> bool:
        # Called right after _schedule_ready drained the ready queue.
        if self._alive_nondaemon == 0:
            self._kill_remaining_daemons()
            return True
        if (not self.surf.has_running_actions()
                and not self.timers
                and (math.isinf(self.surf.next_trace_event_date())
                     or not self.surf.has_pending_state_events())):
            self._handle_deadlock()
            return True
        return False

    def _kill_remaining_daemons(self) -> None:
        self._tearing_down = True
        for actor in list(self._alive_actors):
            if actor.daemon:
                self._kill_actor(actor)

    def _handle_deadlock(self) -> None:
        # Both callers run with a non-daemon actor alive.
        survivors = list(self._alive_actors)
        self._deadlocked = True
        self._tearing_down = True
        for actor in survivors:
            self._kill_actor(actor)
        if self.raise_on_deadlock:
            names = ", ".join(a.name for a in survivors)
            raise DeadlockError(
                f"simulation deadlocked at t={self.surf.clock:g}: "
                f"actors [{names}] are blocked forever")

    def _emit_speed_changes(self, speed_changes) -> None:
        for resource, _factor in speed_changes:
            if isinstance(resource, LinkResource):
                link = self.links.get(resource.name)
                if link is not None:
                    self._emit("speed", link, resource.current_capacity)
            else:
                host = self.hosts.get(resource.name)
                if host is not None:
                    self._emit("speed", host, host.available_speed)

    # ------------------------------------------------------------------------------
    # simcall handling
    # ------------------------------------------------------------------------------
    # A handler is named by the ``submit("_do_...")`` of the s4u method
    # making the request, and called with the requesting actor first.
    def _do_test(self, actor: Actor, activity: Activity) -> None:
        self._ready.append((actor, activity.is_over(), None))

    def _do_kill(self, actor: Actor, target: Actor) -> None:
        self._kill_actor(target)
        if target is not actor:
            self._ready.append((actor, None, None))

    # -- execution ---------------------------------------------------------------------
    def _new_exec(self, actor: Actor, flops: float, host: Host,
                  priority: float, bound: Optional[float],
                  name: str) -> Optional[Exec]:
        """Create and start the Exec of an ``execute`` / ``exec_async`` call.

        On a host that is down the caller is answered with the failure
        and there is no activity.
        """
        if not host.cpu.is_on:
            self._ready.append((actor, None, HostFailureError(
                f"host {host.name} is down")))
            return None
        activity = Exec(actor, host, name)
        activity.start_time = self.surf.clock
        action = self.surf.execute(host.cpu, flops,
                                   priority=priority, bound=bound)
        action.data = activity
        activity.surf_action = action
        activity.state = ActivityState.STARTED
        return activity

    def _do_execute(self, actor: Actor, flops: float, host: Host,
                    priority: float, bound: Optional[float],
                    name: str) -> None:
        activity = self._new_exec(actor, flops, host, priority, bound, name)
        if activity is not None:
            self._wait_one(actor, "exec", activity)

    def _do_exec_async(self, actor: Actor, flops: float, host: Host,
                       priority: float, bound: Optional[float]) -> None:
        activity = self._new_exec(actor, flops, host, priority, bound,
                                  "compute")
        if activity is not None:
            self._ready.append((actor, activity, None))

    def _do_sleep(self, actor: Actor, duration: float) -> None:
        # A wait on nothing whose timeout is its completion: a bare timer
        # (no activity), disarmed by _unblock like any other wait's.
        self._block_on(actor, "sleep", (), duration)

    # -- communications -------------------------------------------------------------------
    def _do_send(self, actor: Actor, mailbox: Mailbox, payload, size: float,
                 rate: Optional[float], timeout: Optional[float],
                 priority: float, name: str) -> None:
        comm = self._post_send(actor, mailbox, payload, size, rate, False,
                               priority, name)
        # Matching can terminate the comm synchronously (the route was
        # broken): _wait_one then answers at once.
        self._wait_one(actor, "send", comm, timeout)

    def _do_recv(self, actor: Actor, mailbox: Mailbox,
                 timeout: Optional[float], rate: Optional[float]) -> None:
        comm = self._post_recv(actor, mailbox, rate)
        self._wait_one(actor, "recv", comm, timeout)

    def _do_isend(self, actor: Actor, mailbox: Mailbox, payload, size: float,
                  rate: Optional[float], detached: bool, priority: float,
                  name: str) -> None:
        self._ready.append((actor, self._post_send(
            actor, mailbox, payload, size, rate, detached, priority, name),
            None))

    def _do_irecv(self, actor: Actor, mailbox: Mailbox,
                  rate: Optional[float]) -> None:
        self._ready.append((actor, self._post_recv(actor, mailbox, rate),
                            None))

    def _post_send(self, actor: Actor, mailbox: Mailbox, payload,
                   size: float, rate: Optional[float], detached: bool,
                   priority: float, name: str) -> Comm:
        comm = mailbox.pop_matching_recv()
        if comm is not None:
            comm.payload = payload
            comm.size = size
            comm.src_actor = actor
            comm.priority = priority
            if name:
                comm.name = name
            if rate is not None:
                comm.rate = rate if comm.rate is None else min(comm.rate, rate)
            comm.detached = detached
            self._start_comm(comm)
        else:
            comm = Comm(
                mailbox, payload=payload, size=size, src_actor=actor,
                rate=rate, detached=detached, priority=priority, name=name)
            mailbox.post_send(comm)
        return comm

    def _post_recv(self, actor: Actor, mailbox: Mailbox,
                   rate: Optional[float]) -> Comm:
        comm = mailbox.pop_matching_send()
        if comm is not None:
            comm.dst_actor = actor
            if rate is not None:
                comm.rate = rate if comm.rate is None else min(comm.rate, rate)
            self._start_comm(comm)
        else:
            comm = Comm(mailbox, dst_actor=actor, rate=rate)
            mailbox.post_recv(comm)
        return comm

    def _start_comm(self, comm: Comm) -> None:
        src_host = comm.src_actor.host
        dst_host = comm.dst_actor.host
        if not src_host.cpu.is_on or not dst_host.cpu.is_on:
            self._finish_activity(comm, ActivityState.FAILED)
            return
        links = self.platform.route_resources(src_host.name, dst_host.name)
        action = self.surf.communicate(
            links, comm.size, rate=comm.rate, priority=comm.priority)
        action.data = comm
        comm.surf_action = action
        comm.state = ActivityState.STARTED
        comm.start_time = self.surf.clock
        if action.state is not _RUNNING:
            # A link of the route was already down when the rendezvous
            # matched: the model failed the action synchronously, so it will
            # never surface through a step result — report it here.
            self._finish_activity(comm, ActivityState.FAILED)
            return
        self._active_comms[comm] = None

    # -- waiting -----------------------------------------------------------------------
    # An actor blocks by waiting on activities: _block_on is the only
    # place a wait starts and _unblock the only place it ends, whichever
    # of completion, timeout, kill or host failure ends it.
    def _wait_one(self, actor: Actor, kind: str, activity: Activity,
                  timeout: Optional[float] = None) -> None:
        """Answer ``actor`` with the outcome of ``activity``: now if it is
        already over, else when it ends or ``timeout`` fires."""
        state = activity.state
        if state is not _PENDING and state is not _STARTED:
            value, exc = self._activity_result(actor, activity)
            self._ready.append((actor, value, exc))
            return
        activity.waiters += (actor,)
        self._block_on(actor, kind, (activity,), timeout)

    def _do_wait(self, actor: Actor, activity: Activity,
                 timeout: Optional[float]) -> None:
        self._wait_one(actor, "wait", activity, timeout)

    def _do_wait_any(self, actor: Actor, activities, owner,
                     timeout: Optional[float]) -> None:
        """``activities`` is a snapshot of the members of ``owner``, the
        ActivitySet being reaped; the member that ends first leaves it."""
        for activity in activities:
            state = activity.state
            if state is not _PENDING and state is not _STARTED:
                owner.erase(activity)
                exc = self._activity_result(actor, activity)[1]
                self._ready.append(
                    (actor, activity if exc is None else None, exc))
                return
        # One back-pointer per member, registered once; the completion
        # that fires first wakes the actor and withdraws the others.
        for activity in activities:
            if actor not in activity.waiters:
                activity.waiters += (actor,)
        self._block_on(actor, "wait_any", activities, timeout, owner)

    def _do_wait_all(self, actor: Actor, activities, owner,
                     timeout: Optional[float]) -> None:
        live = []
        for activity in activities:
            state = activity.state
            if state is _PENDING or state is _STARTED:
                live.append(activity)
            elif state is not ActivityState.DONE:
                owner.erase(activity)
                value, exc = self._activity_result(actor, activity)
                self._ready.append((actor, value, exc))
                return
        if not live:
            for activity in activities:
                owner.erase(activity)
            self._ready.append((actor, None, None))
            return
        for activity in live:
            if actor not in activity.waiters:
                activity.waiters += (actor,)
        self._block_on(actor, "wait_all", activities, timeout, owner)

    def _block_on(self, actor: Actor, kind: str, activities,
                  timeout: Optional[float] = None, owner=None) -> None:
        """Start a wait of ``actor`` on ``activities`` (it already sits in
        their ``waiters``); ``owner`` is the ActivitySet being reaped."""
        actor._wait_kind = kind
        actor._wait_activities = activities
        actor._wait_owner = owner
        actor._wait_timer = None if timeout is None else self.timers.schedule(
            self.surf.clock + timeout, partial(self._on_wait_timeout, actor))

    def _unblock(self, actor: Actor, but: Optional[Activity] = None) -> None:
        """End the wait of ``actor``: disarm its timeout and withdraw it
        from every waited activity except ``but``, the one waking it
        (which already gave its waiters away)."""
        timer = actor._wait_timer
        if timer is not None:
            timer.cancel()
            actor._wait_timer = None
        for activity in actor._wait_activities:
            if activity is not but:
                waiters = activity.waiters
                if actor in waiters:
                    kept = ()
                    for waiter in waiters:
                        if waiter is not actor:
                            kept += (waiter,)
                    activity.waiters = kept
        actor._wait_kind = None
        actor._wait_activities = ()
        actor._wait_owner = None

    def _on_wait_timeout(self, actor: Actor) -> None:
        kind = actor._wait_kind
        waited = actor._wait_activities
        self._unblock(actor)
        if kind == "sleep":
            self._ready.append((actor, None, None))
            return
        if kind == "send" or kind == "recv":
            # A synchronous put/get owns its comm: abort it, which wakes
            # the peer of a started rendezvous before the caller.  Waits on
            # async handles only stop *waiting* — the comm stays posted so
            # the actor can wait on it again later.
            self._abort_activity(waited[0], ActivityState.TIMEOUT)
        self._ready.append((actor, None, SimTimeoutError(
            f"{kind} timed out at t={self.surf.clock:g}")))

    # -- actor control ------------------------------------------------------------------
    def _do_suspend(self, actor: Actor, target: Actor) -> None:
        if target is actor:
            target._suspended = True
            # Not rescheduled: it stays parked until someone resumes it.
            target._parked_resume = (None, None)
            return
        self._suspend_other(target)
        self._ready.append((actor, None, None))

    def _suspend_other(self, target: Actor) -> None:
        if not target.is_alive or target._suspended:
            return
        target._suspended = True
        for activity in target._wait_activities:
            if isinstance(activity, Exec) and activity.surf_action:
                activity.surf_action.suspend()

    def _do_resume_other(self, actor: Actor, target: Actor) -> None:
        self._resume_other(target)
        self._ready.append((actor, None, None))

    def _resume_other(self, target: Actor) -> None:
        if not target.is_alive or not target._suspended:
            return
        target._suspended = False
        for activity in target._wait_activities:
            if isinstance(activity, Exec) and activity.surf_action:
                activity.surf_action.resume()
        if target._parked_resume is not None:
            value, exc = target._parked_resume
            target._parked_resume = None
            self._ready.append((target, value, exc))

    def _do_join(self, actor: Actor, target: Actor,
                 timeout: Optional[float]) -> None:
        if not target.is_alive:
            self._ready.append((actor, None, None))
            return
        if target._exit is None:
            # Finished by _terminate_actor: a join is a wait like any other.
            target._exit = Activity("exit")
        self._wait_one(actor, "join", target._exit, timeout)

    # ------------------------------------------------------------------------------
    # activity completion
    # ------------------------------------------------------------------------------
    def _abort_activity(self, activity: Activity, state: ActivityState) -> None:
        """End a live activity early, in ``state``: a cancel, or a comm
        one side of which timed out (``TIMEOUT``) or was killed.  Its
        action stops, a pending comm leaves its mailbox, and the waiters
        — the peer of a comm — are woken like on any other ending.
        Nothing happens to an activity that is already over.
        """
        action = activity.surf_action
        if action is not None and action.is_running():
            action.cancel(self.surf.clock)
        elif activity.state is _PENDING and isinstance(activity, Comm):
            activity.mailbox.discard(activity)
        self._finish_activity(activity, state)

    def _finish_activity(self, activity: Activity, state: ActivityState) -> None:
        current = activity.state
        if current is not _PENDING and current is not _STARTED:
            return
        activity.state = state
        activity.finish_time = self.surf.clock
        if activity.kind == "comm":
            self._active_comms.pop(activity, None)
        if self._observers:
            self._emit("end", activity, state)
        # Break the activity <-> action reference cycle: once finished,
        # the pair would otherwise only ever be reclaimed by a gc cycle
        # pass, which at 10⁵ actors dominates the collector's work.
        action = activity.surf_action
        if action is not None and action.data is activity:
            action.data = None
        waiters = activity.waiters
        if waiters:
            # A finished activity never gains a waiter again: hand the
            # tuple over.
            activity.waiters = ()
            for actor in waiters:
                self._wake_from_activity(actor, activity)

    def _wake_from_activity(self, actor: Actor, activity: Activity) -> None:
        kind = actor._wait_kind
        if kind == "wait_all" and activity.state is ActivityState.DONE:
            # Keep waiting until every member completed.
            waited = actor._wait_activities
            for other in waited:
                if other.state is _PENDING or other.state is _STARTED:
                    return
            owner = actor._wait_owner
            for member in waited:
                owner.erase(member)
            value = exc = None
        else:
            value, exc = self._activity_result(actor, activity)
            if kind == "wait_any" or kind == "wait_all":
                # Whatever the outcome, a terminated member leaves the
                # ActivitySet being reaped: otherwise a failed one would
                # make every later wait_any raise the same error forever.
                actor._wait_owner.erase(activity)
                if kind == "wait_any" and exc is None:
                    value = activity
        self._unblock(actor, activity)
        self._ready.append((actor, value, exc))

    def _activity_result(self, actor: Actor, activity: Activity
                         ) -> Tuple[object, Optional[BaseException]]:
        """What waiting on a terminated activity answers ``actor``: the
        payload on the receiving side of a comm, else its failure."""
        state = activity.state
        if state is ActivityState.DONE:
            if activity.kind == "comm" and activity.dst_actor is actor:
                return activity.payload, None
            return None, None
        if state is ActivityState.CANCELLED:
            return None, CancelledError(
                f"activity {activity.name!r} was cancelled")
        if activity.kind != "comm":
            return None, HostFailureError(
                f"host failed during {activity.name!r} "
                f"at t={self.surf.clock:g}")
        if state is ActivityState.TIMEOUT:
            # Only the peer of the side that gave up ever reads this state.
            return None, TransferFailureError(
                f"peer timed out on {activity.mailbox.name}")
        return None, TransferFailureError(
            f"transfer {activity.name!r} failed at t={self.surf.clock:g}")

    # ------------------------------------------------------------------------------
    # death
    # ------------------------------------------------------------------------------
    def _kill_actor(self, target: Actor) -> None:
        if not target.is_alive:
            return
        # A kill cancels what the victim is blocked on and nothing else:
        # its own Exec and the comm it is one side of (a detached comm
        # already in flight completes without it).  Un-waited async
        # handles keep running.
        waited = target._wait_activities
        self._unblock(target)
        for activity in waited:
            if isinstance(activity, Exec):
                if activity.actor is target:
                    self._abort_activity(activity, ActivityState.CANCELLED)
            elif isinstance(activity, Comm) and (
                    activity.src_actor is target
                    or activity.dst_actor is target):
                if activity.is_pending():
                    self._abort_activity(activity, ActivityState.CANCELLED)
                elif not activity.detached:
                    self._abort_activity(activity, ActivityState.FAILED)
        # The actor whose call flipped a resource cannot be interrupted
        # inside that call: _set_state raises ProcessKilledError into its
        # body once the flip is complete.
        if target is not _actor_mod._flipping:
            try:
                target.context.kill()
            except Exception as exc:  # noqa: BLE001 - how the victim died
                # A finally block raised while the body unwound: the kill
                # still completes, and that error is the exit status.
                target.exit_status = exc
        self._terminate_actor(target, failed=True)

    def _terminate_actor(self, actor: Actor, failed: bool = False) -> None:
        if not actor.is_alive:
            return
        actor.is_alive = False
        actor._suspended = False
        actor._parked_resume = None
        actor._exit_failed = failed
        self._alive_actors.pop(actor, None)
        actor.host.actors.remove(actor)
        # Break the actor <-> context backlink: the finished frame (a dead
        # generator or thread) is unreachable garbage now, and it could
        # never travel through a snapshot anyway.
        actor.context = None
        if not actor.daemon:
            self._alive_nondaemon -= 1
        if actor._exit is not None:
            self._finish_activity(actor._exit, ActivityState.DONE)
        # on_exit callbacks run in kernel context (no blocking simcalls);
        # ``failed`` is False only when the body returned normally.
        callbacks, actor._on_exit_callbacks = actor._on_exit_callbacks, ()
        for callback in callbacks:
            callback(failed)
