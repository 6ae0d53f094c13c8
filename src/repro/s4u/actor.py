"""S4U actors: the unit of concurrency of the simulation.

An :class:`Actor` is a function running on a :class:`~repro.s4u.host.Host`.
Actors are spawned dynamically (``Engine.add_actor``), can be suspended,
resumed, killed and joined, and perform every blocking operation through
kernel simcalls — under the default generator context factory blocking
calls are ``yield``-ed, under the thread context factory they block
directly.

Module-level helpers mirror SimGrid's ``this_actor`` namespace: they act on
whichever actor the engine is currently running (see
:func:`current_actor`), so library code does not need the actor object
threaded through every call::

    from repro.s4u import this_actor

    def worker(actor):
        yield this_actor.execute(1e9)          # same as actor.execute(...)
        yield this_actor.sleep_for(2.0)
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Any, Optional, Tuple, TYPE_CHECKING

from repro.kernel.simcall import Simcall

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.engine import Engine
    from repro.s4u.host import Host

__all__ = ["Actor", "current_actor", "submit"]

_pids = itertools.count(1)

#: The actor the engine is currently running (None between schedulings,
#: and while the hooks of a resource flip run: they are kernel code).
_current: Optional["Actor"] = None
#: The actor whose own call flipped a resource, while that flip's hooks
#: run (see ``Engine._set_state``); None otherwise.
_flipping: Optional["Actor"] = None


def current_actor() -> "Actor":
    """The actor whose code is currently executing.

    Only meaningful from inside a simulated actor; raises ``RuntimeError``
    when called from plain host code.
    """
    if _current is None:
        raise RuntimeError(
            "no actor is running; s4u blocking helpers can only be used "
            "from inside a simulated actor")
    return _current


def submit(name: str, *args):
    """Hand the kernel the request ``Engine.<name>(running actor, *args)``.

    The one way every blocking s4u call reaches the kernel.  The request
    is always the *running* actor's, whichever object the call was made
    on, and goes through its context: the result is the simcall to
    ``yield`` under generator contexts and the kernel's answer under
    thread contexts.
    """
    actor = _current
    if actor is None:
        actor = current_actor()  # raises: no actor is running
    return actor.context.submit(Simcall(getattr(actor.engine, name), args))


class Actor:
    """One simulated actor: a function running on a host."""

    __slots__ = ("engine", "name", "host", "func", "args", "kwargs",
                 "daemon", "auto_restart", "pid", "is_alive", "context",
                 "_wait_activities", "_wait_timer", "_wait_kind",
                 "_wait_owner", "_suspended", "_parked_resume", "_exit",
                 "_on_exit_callbacks", "_exit_failed", "exit_status")

    def __init__(self, engine: "Engine", name: str, host: "Host",
                 func, args: tuple, kwargs: dict,
                 daemon: bool = False, auto_restart: bool = False) -> None:
        self.engine = engine
        self.name = name
        self.host = host
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.daemon = daemon
        #: Reboot this actor (fresh body, same function/arguments) when its
        #: failed host is restored (see ``Engine._set_state``).
        self.auto_restart = auto_restart
        self.pid = next(_pids)
        #: False once the actor terminated (its body returned or raised,
        #: or it was killed); whether it is suspended is ``is_suspended``.
        self.is_alive = True
        #: The body's context (see :mod:`repro.kernel.context`), set by
        #: ``Engine.add_actor`` and dropped when the actor dies.
        self.context = None
        # kernel bookkeeping; the four _wait_* slots are written only by
        # Engine._block_on and Engine._unblock
        self._wait_activities = ()
        self._wait_timer = None
        self._wait_kind: Optional[str] = None
        self._wait_owner = None  # ActivitySet being reaped, if any
        self._suspended = False
        self._parked_resume: Optional[tuple] = None
        #: The activity ``join`` waits on, created by the first joiner and
        #: finished when the actor terminates.
        self._exit = None
        #: The ``on_exit`` callbacks; ``()`` until the first.
        self._on_exit_callbacks: Tuple[Any, ...] = ()
        #: How the actor died (False = body returned normally); only
        #: meaningful once the actor is dead.
        self._exit_failed = False
        #: The exception that escaped the body, if one did: the engine
        #: terminates the actor (``on_exit(failed=True)``, joiners woken)
        #: and re-raises it out of ``Engine.run``.  A kill (host failure
        #: included) whose unwinding raises in a ``finally`` block still
        #: completes, and that error is recorded here without leaving
        #: ``Engine.run``.  ``None`` otherwise: normal return, and a kill
        #: the body unwound from cleanly.
        self.exit_status: Optional[BaseException] = None

    # ------------------------------------------------------------------------------
    # identity & state
    # ------------------------------------------------------------------------------
    @property
    def is_suspended(self) -> bool:
        return self._suspended

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.surf.clock

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(pid={self.pid}, name={self.name!r}, "
                f"host={self.host.name!r}, alive={self.is_alive})")

    def on_exit(self, callback) -> "Actor":
        """Register ``callback(failed)`` to run when this actor terminates.

        Mirrors S4U's ``Actor::on_exit``: the callback fires exactly once,
        whether the body returned normally (``failed=False``) or the actor
        was killed — explicitly or by a host failure (``failed=True``).  It
        runs in kernel context, so it must not block (no simcalls); use it
        for cleanup and accounting.  Returns the actor so calls chain.
        """
        if not callable(callback):
            raise TypeError("on_exit needs a callable")
        if not self.is_alive:
            callback(self._exit_failed)
            return self
        self._on_exit_callbacks += (callback,)
        return self

    # ------------------------------------------------------------------------------
    # blocking operations (requests of the running actor)
    # ------------------------------------------------------------------------------
    def execute(self, flops: float, priority: float = 1.0,
                bound: Optional[float] = None,
                host: Optional["Host"] = None, name: str = "compute"):
        """Execute ``flops`` on this actor's host (blocks the caller)."""
        flops = float(flops)
        if not 0.0 <= flops < inf:
            raise ValueError(f"flops must be finite and >= 0: {flops!r}")
        if not 0.0 <= priority < inf:
            raise ValueError(f"priority must be finite and >= 0: {priority!r}")
        if bound is not None and not bound > 0:
            raise ValueError(f"bound must be None or > 0: {bound!r}")
        return submit("_do_execute", flops, host or self.host, priority,
                      bound, name)

    def exec_async(self, flops: float, priority: float = 1.0,
                   bound: Optional[float] = None,
                   host: Optional["Host"] = None):
        """Start an asynchronous execution; the result is an ``Exec``."""
        flops = float(flops)
        if not 0.0 <= flops < inf:
            raise ValueError(f"flops must be finite and >= 0: {flops!r}")
        if not 0.0 <= priority < inf:
            raise ValueError(f"priority must be finite and >= 0: {priority!r}")
        if bound is not None and not bound > 0:
            raise ValueError(f"bound must be None or > 0: {bound!r}")
        return submit("_do_exec_async", flops, host or self.host, priority,
                      bound)

    def sleep_for(self, duration: float):
        """Do nothing for ``duration`` simulated seconds (blocks the
        caller)."""
        if not 0.0 <= duration < inf:
            raise ValueError(f"duration must be finite and >= 0: {duration!r}")
        return submit("_do_sleep", duration)

    # ------------------------------------------------------------------------------
    # lifecycle control (S4U style: the target is *this* actor)
    # ------------------------------------------------------------------------------
    # From kernel context (a timer, an ``on_exit`` hook, a host state
    # hook, host code) these act at once; from an actor they are
    # that actor's request.
    def kill(self):
        """Kill this actor (``MSG_process_kill``)."""
        if _current is None:
            self.engine._kill_actor(self)
            return None
        return submit("_do_kill", self)

    def suspend(self):
        """Suspend this actor until someone resumes it
        (``MSG_process_suspend``)."""
        if _current is None:
            self.engine._suspend_other(self)
            return None
        return submit("_do_suspend", self)

    def resume(self):
        """Resume this (suspended) actor (``MSG_process_resume``)."""
        if _current is None:
            self.engine._resume_other(self)
            return None
        return submit("_do_resume_other", self)

    def join(self, timeout: Optional[float] = None):
        """Block the calling actor until this actor terminates.

        A ``timeout`` that fires first raises ``SimTimeoutError`` in the
        caller and only ends its wait: this actor runs on and can be
        joined again.
        """
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0: {timeout!r}")
        return submit("_do_join", self, timeout)
