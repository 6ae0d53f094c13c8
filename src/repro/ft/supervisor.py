"""Supervision: declarative restart of an actor fleet.

A :class:`Supervisor` owns a set of children described by
:class:`ChildSpec` entries and restarts them one for one when they die,
Erlang/OTP style, built purely on the public surface — ``Actor.on_exit``
for death notification, ``engine.add_actor`` for the respawn, the
host-state observer for parking children whose host is down.

Restart intensity is bounded: more than ``max_restarts`` restarts within
a sliding ``window`` escalates — the supervisor kills its remaining
children and dies *failed*.  A child that dies with its host is parked
and respawned when the host comes back, and spends no restart.

Everything here runs in kernel context (``on_exit`` callbacks and
host-state observers) and therefore never blocks; the supervisor actor
itself just parks on ``suspend()`` until every child is done for good.
All callbacks are bound methods or partials over them, which pickle,
and children are keyed by spec name — never by ``id()`` — so a mid-churn
``engine.snapshot()`` restores a live fleet bit-identically.

A supervisor holds its own actor only while that actor is alive (the
actor's arguments point back at the supervisor), so once the run ends
nothing but the engine's own tables reaches either, and a closed engine
frees them by reference counting.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.s4u import this_actor

__all__ = ["ChildSpec", "Supervisor"]

#: Valid ``ChildSpec.restart`` values.
RESTART_POLICIES = ("permanent", "transient", "temporary")


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


def _supervisor_body(actor, sup: "Supervisor"):
    """The supervisor actor: spawn the children, then park until done.

    All real work happens in kernel context (exit hooks, host observers);
    the body only exists so the fleet has a liveness anchor — a
    non-daemon supervisor keeps ``engine.run()`` going while any child
    may still be restarted.
    """
    sup._attach(actor)
    while not sup._done:
        yield this_actor.suspend()


class Supervisor:
    """One-for-one restart controller for a group of child actors.

    Parameters
    ----------
    engine:
        The :class:`~repro.s4u.engine.Engine` to deploy on.
    children:
        The :class:`ChildSpec` entries, in declaration (spawn) order.
    max_restarts / window:
        Intensity bound: strictly more than ``max_restarts`` restarts
        within ``window`` simulated seconds escalates.
    host:
        Host of the supervisor actor itself (should be reliable).
    daemon:
        Spawn the supervisor actor as a daemon.  Keep the default
        (non-daemon) when the supervisor is the run's liveness anchor.
    """

    def __init__(self, engine, children: Iterable[ChildSpec], *,
                 max_restarts: int = 3, window: float = 5.0,
                 name: str = "supervisor", host: Optional[str] = None,
                 daemon: bool = False) -> None:
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
        self.max_restarts = int(max_restarts)
        self.window = float(window)
        self.name = name
        self.host = host if (host is None or isinstance(host, str)) \
            else host.name
        self.daemon = daemon
        #: Chronological ``(date, event, child_name)`` log; events are
        #: ``start``, ``restart``, ``park``, ``finish`` and ``escalate``
        #: — the replay fingerprint of a fleet.
        self.events: List[Tuple[float, str, str]] = []
        self.restarts = 0
        self.escalated = False
        self._live: Dict[str, "object"] = {}     # name -> Actor
        self._parked: Dict[str, List[str]] = {}  # host name -> child names
        self._finished: set = set()              # names done for good
        self._restart_dates: List[float] = []
        self._actor = None    # the supervisor actor, while it is alive
        self._started = False
        self._done = False

    def start(self) -> "Supervisor":
        """Spawn the supervisor actor (which spawns the children)."""
        if self._started:
            raise RuntimeError("the supervisor was already started")
        if self.host is None:
            raise ValueError("no host given for the supervisor actor")
        self._started = True
        self.engine.add_actor(self.name, self.host, _supervisor_body, self,
                              daemon=self.daemon)
        return self

    # ------------------------------------------------------------------------------
    # kernel-context machinery
    # ------------------------------------------------------------------------------
    def _attach(self, actor) -> None:
        self._actor = actor
        actor.on_exit(self._detach)
        self.engine.on_host_state_change(self._host_state)
        for spec in self.specs:
            self._spawn(spec, "start")

    def _spawn(self, spec: ChildSpec, event: str) -> None:
        if not self.engine.host(spec.host).is_on:
            self._park(spec)
            return
        child = self.engine.add_actor(spec.name, spec.host, spec.func,
                                      *spec.args, daemon=spec.daemon,
                                      **spec.kwargs)
        child.on_exit(partial(self._child_exited, spec.name))
        self._live[spec.name] = child
        self.events.append((self.engine.now, event, spec.name))
        if event == "restart":
            self.restarts += 1

    def _park(self, spec: ChildSpec) -> None:
        names = self._parked.setdefault(spec.host, [])
        if spec.name not in names:
            names.append(spec.name)
            self.events.append((self.engine.now, "park", spec.name))

    def _detach(self, failed: bool) -> None:
        """The supervisor actor died: let go of it (it points back here)."""
        self._actor = None

    def _host_state(self, host, is_on: bool) -> None:
        """Respawn children parked on a host that just came back up."""
        if not is_on or self._done:
            return
        for name in self._parked.pop(host.name, []):
            self._spawn(self._spec_by_name[name], "restart")

    def _child_exited(self, name: str, failed: bool) -> None:
        self._live.pop(name, None)
        if self._done or self.engine.is_tearing_down:
            return
        spec = self._spec_by_name[name]
        wants_restart = (spec.restart == "permanent"
                         or (spec.restart == "transient" and failed))
        if not wants_restart:
            self._finished.add(name)
            self.events.append((self.engine.now, "finish", name))
            if len(self._finished) == len(self.specs):
                # Every child is done for good: the supervisor returns.
                self._done = True
                if self._actor is not None:
                    self._actor.resume()
            return
        if not self.engine.host(spec.host).is_on:
            # The child died with its host: park it for the host-up
            # respawn without spending an intensity token — host churn
            # mirrors ``auto_restart``, which is unbounded by design.
            self._park(spec)
            return
        if self._spend_restart_token():
            self._spawn(spec, "restart")
        else:
            self._escalate()

    def _spend_restart_token(self) -> bool:
        """One token per restart; False when the bound is tripped."""
        now = self.engine.now
        cutoff = now - self.window
        self._restart_dates = [d for d in self._restart_dates if d > cutoff]
        if len(self._restart_dates) >= self.max_restarts:
            return False
        self._restart_dates.append(now)
        return True

    def _escalate(self) -> None:
        """Give up: kill the remaining children, then die failed."""
        self.escalated = True
        self._done = True
        self.events.append((self.engine.now, "escalate", ""))
        for child in list(self._live.values()):
            child.kill()
        self._live.clear()
        self._parked.clear()
        if self._actor is not None:
            self._actor.kill()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Supervisor({self.name!r}, live={len(self._live)}, "
                f"restarts={self.restarts}, escalated={self.escalated})")
