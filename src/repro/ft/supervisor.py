"""Supervision trees: declarative restart of actor fleets.

A :class:`Supervisor` owns a set of children described by
:class:`ChildSpec` entries and restarts them when they die, Erlang/OTP
style, built purely on the public surface — ``Actor.on_exit`` for death
notification, ``engine.add_actor`` for the respawn, the host-state
observer for parking children whose host is down.  Two strategies:

* ``one_for_one`` — a dead child is restarted alone;
* ``all_for_one`` — a dead child takes its siblings down with it and the
  whole group is restarted in declaration order.

Restart intensity is bounded: more than ``max_restarts`` restart cycles
within a sliding ``window`` escalates — the supervisor kills its
remaining children and dies *failed*, so a parent supervisor (a
supervisor is itself supervisable via :meth:`Supervisor.as_child`) sees
an ordinary child failure and applies its own policy.  Trees nest.

Everything here runs in kernel context (``on_exit`` callbacks, timer
callbacks, host-state observers) and therefore never blocks; the
supervisor actor itself just parks on ``suspend()`` until the tree
reaches a terminal state.  All callbacks are named picklable objects and
children are keyed by spec name — never by ``id()`` — so a mid-churn
``engine.snapshot()`` restores a live tree bit-identically.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.s4u import this_actor

__all__ = ["ChildSpec", "Supervisor"]

#: Valid ``ChildSpec.restart`` values.
RESTART_POLICIES = ("permanent", "transient", "temporary")
#: Valid ``Supervisor`` strategies.
STRATEGIES = ("one_for_one", "all_for_one")


class ChildSpec:
    """Recipe for one supervised child actor.

    ``restart`` selects when the child is respawned after it dies:
    ``permanent`` always, ``transient`` only when it *failed* (was killed
    or lost its host — a normal return is final), ``temporary`` never.
    """

    def __init__(self, name: str, host: str, func: Callable, *args,
                 restart: str = "permanent", daemon: bool = True,
                 **kwargs) -> None:
        if restart not in RESTART_POLICIES:
            raise ValueError(f"unknown restart policy {restart!r}; "
                             f"pick one of {RESTART_POLICIES}")
        self.name = name
        self.host = host if isinstance(host, str) else host.name
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.restart = restart
        self.daemon = daemon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChildSpec({self.name!r}, host={self.host!r}, "
                f"restart={self.restart!r})")


class _ChildExit:
    """Picklable ``on_exit`` hook: routes a child death to its supervisor."""

    __slots__ = ("supervisor", "child")

    def __init__(self, supervisor: "Supervisor", child: str) -> None:
        self.supervisor = supervisor
        self.child = child

    def __call__(self, failed: bool) -> None:
        self.supervisor._child_exited(self.child, failed)


class _DeadlineStop:
    """Picklable timer callback: shuts the tree down at its deadline."""

    __slots__ = ("supervisor",)

    def __init__(self, supervisor: "Supervisor") -> None:
        self.supervisor = supervisor

    def __call__(self) -> None:
        self.supervisor._deadline_fired()


def _supervisor_body(actor, sup: "Supervisor"):
    """The supervisor actor: spawn the children, then park until done.

    All real work happens in kernel context (exit hooks, host observers,
    the deadline timer); the body only exists so the tree has a liveness
    anchor — a non-daemon supervisor keeps ``engine.run()`` going while
    any child may still be restarted.
    """
    sup._attach(actor)
    while not sup._done:
        yield this_actor.suspend()


class Supervisor:
    """Restart controller for a group of child actors.

    Parameters
    ----------
    engine:
        The :class:`~repro.s4u.engine.Engine` to deploy on.
    children:
        The :class:`ChildSpec` entries, in declaration order (the
        ``all_for_one`` restart order).
    strategy:
        ``one_for_one`` or ``all_for_one``.
    max_restarts / window:
        Intensity bound: strictly more than ``max_restarts`` restart
        cycles within ``window`` simulated seconds escalates.
    host:
        Host of the supervisor actor itself (should be reliable).
    daemon:
        Spawn the supervisor actor as a daemon.  Keep the default
        (non-daemon) when the supervisor is the run's liveness anchor.
    deadline:
        Optional absolute simulated date at which the tree is shut down
        (children killed, supervisor returns) — the bounded-horizon knob
        for churn studies whose permanent children never finish.
    """

    def __init__(self, engine, children: Iterable[ChildSpec], *,
                 strategy: str = "one_for_one", max_restarts: int = 3,
                 window: float = 5.0, name: str = "supervisor",
                 host: Optional[str] = None, daemon: bool = False,
                 deadline: Optional[float] = None) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"pick one of {STRATEGIES}")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if window <= 0:
            raise ValueError("window must be > 0")
        self.engine = engine
        self.specs: List[ChildSpec] = list(children)
        if not self.specs:
            raise ValueError("a supervisor needs at least one child")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("child names must be unique")
        self._spec_by_name: Dict[str, ChildSpec] = {
            spec.name: spec for spec in self.specs}
        self.strategy = strategy
        self.max_restarts = int(max_restarts)
        self.window = float(window)
        self.name = name
        self.host = host if (host is None or isinstance(host, str)) \
            else host.name
        self.daemon = daemon
        self.deadline = deadline
        #: Chronological ``(date, event, child_name)`` log; events are
        #: ``start``, ``restart``, ``park``, ``finish``, ``escalate``,
        #: ``deadline`` and ``stop`` — the replay fingerprint of a tree.
        self.events: List[Tuple[float, str, str]] = []
        self.restarts = 0
        self.escalated = False
        self.timed_out = False
        self._live: Dict[str, "object"] = {}     # name -> Actor
        self._parked: Dict[str, List[str]] = {}  # host name -> child names
        self._finished: set = set()              # names done for good
        self._restart_dates: List[float] = []
        self._actor = None
        self._deadline_timer = None
        self._done = False
        self._stopping = False
        self._suppress = False  # we are killing children ourselves
        self._observing = False

    # ------------------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------------------
    def start(self) -> "Supervisor":
        """Spawn the supervisor actor (which spawns the children)."""
        if self._actor is not None:
            raise RuntimeError("the supervisor was already started")
        if self.host is None:
            raise ValueError("no host given for the supervisor actor")
        self.engine.add_actor(self.name, self.host, _supervisor_body, self,
                              daemon=self.daemon)
        return self

    def as_child(self, restart: str = "transient") -> ChildSpec:
        """This tree as a child spec for a parent supervisor (nesting).

        An escalated subtree dies *failed*, so the parent sees a regular
        child failure and applies its own strategy/intensity to it.
        """
        if self.host is None:
            raise ValueError("set the supervisor host before nesting")
        return ChildSpec(self.name, self.host, _supervisor_body, self,
                         restart=restart, daemon=self.daemon)

    def stop(self) -> None:
        """Shut the tree down: kill the children, let the actor return."""
        if not self._done:
            self._shutdown("stop")

    @property
    def done(self) -> bool:
        return self._done

    # ------------------------------------------------------------------------------
    # kernel-context machinery
    # ------------------------------------------------------------------------------
    def _attach(self, actor) -> None:
        # A nested tree restarted by its parent re-enters here with the
        # same Supervisor object: reset the terminal state so the new
        # incarnation starts clean (the events log keeps accumulating).
        self._actor = actor
        self._done = False
        self._stopping = False
        self._suppress = False
        self._restart_dates = []
        self._finished = set()
        self._live = {}
        self._parked = {}
        if not self._observing:
            self._observing = True
            self.engine.on_host_state_change(self._host_state)
        if self.deadline is not None:
            self._deadline_timer = self.engine.timers.schedule(
                self.deadline, _DeadlineStop(self))
        for spec in self.specs:
            self._spawn(spec, "start")

    def _spawn(self, spec: ChildSpec, event: str) -> None:
        if not self.engine.host(spec.host).is_on:
            self._park(spec)
            return
        child = self.engine.add_actor(spec.name, spec.host, spec.func,
                                      *spec.args, daemon=spec.daemon,
                                      **spec.kwargs)
        child.on_exit(_ChildExit(self, spec.name))
        self._live[spec.name] = child
        self.events.append((self.engine.now, event, spec.name))
        if event == "restart":
            self.restarts += 1

    def _park(self, spec: ChildSpec) -> None:
        names = self._parked.setdefault(spec.host, [])
        if spec.name not in names:
            names.append(spec.name)
            self.events.append((self.engine.now, "park", spec.name))

    def _host_state(self, host, is_on: bool) -> None:
        """Respawn children parked on a host that just came back up."""
        if not is_on or self._done or self._stopping:
            return
        for name in self._parked.pop(host.name, []):
            self._spawn(self._spec_by_name[name], "restart")

    def _child_exited(self, name: str, failed: bool) -> None:
        self._live.pop(name, None)
        if (self._done or self._stopping or self._suppress
                or self.engine.is_tearing_down):
            return
        spec = self._spec_by_name[name]
        wants_restart = (spec.restart == "permanent"
                         or (spec.restart == "transient" and failed))
        if not wants_restart:
            self._finished.add(name)
            self.events.append((self.engine.now, "finish", name))
            self._check_done()
            return
        if (self.strategy == "one_for_one"
                and not self.engine.host(spec.host).is_on):
            # The child died with its host: park it for the host-up
            # respawn without spending an intensity token — host churn
            # mirrors ``auto_restart``, which is unbounded by design.
            self._park(spec)
            return
        if not self._spend_restart_token():
            self._escalate()
            return
        if self.strategy == "all_for_one":
            self._suppress = True
            try:
                for other in list(self._live.values()):
                    self.engine.kill_actor(other)
            finally:
                self._suppress = False
            self._live.clear()
            self._parked.clear()
            for sibling in self.specs:
                if sibling.name not in self._finished:
                    self._spawn(sibling, "restart")
        else:
            self._spawn(spec, "restart")
        self._check_done()

    def _spend_restart_token(self) -> bool:
        """One token per restart cycle; False when the bound is tripped."""
        now = self.engine.now
        cutoff = now - self.window
        self._restart_dates = [d for d in self._restart_dates if d > cutoff]
        if len(self._restart_dates) >= self.max_restarts:
            return False
        self._restart_dates.append(now)
        return True

    def _escalate(self) -> None:
        self.escalated = True
        self.events.append((self.engine.now, "escalate", ""))
        self._shutdown(None)
        # Die failed, so a parent supervisor sees a child failure (its
        # own policy decides whether the subtree is rebuilt).
        if self._actor is not None and self._actor.is_alive:
            self.engine.kill_actor(self._actor)

    def _deadline_fired(self) -> None:
        if self._done or self._stopping:
            return
        self.timed_out = True
        self._shutdown("deadline")

    def _shutdown(self, event: Optional[str]) -> None:
        self._stopping = True
        if event is not None:
            self.events.append((self.engine.now, event, ""))
        self._suppress = True
        try:
            for child in list(self._live.values()):
                if child.is_alive:
                    self.engine.kill_actor(child)
        finally:
            self._suppress = False
        self._live.clear()
        self._parked.clear()
        self._finish()

    def _check_done(self) -> None:
        if self._live or any(self._parked.values()):
            return
        if len(self._finished) == len(self.specs):
            self._finish()

    def _finish(self) -> None:
        self._done = True
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
            self._deadline_timer = None
        if self._actor is not None and self._actor.is_alive:
            self.engine.resume_actor(self._actor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Supervisor({self.name!r}, strategy={self.strategy!r}, "
                f"live={len(self._live)}, restarts={self.restarts}, "
                f"escalated={self.escalated})")
