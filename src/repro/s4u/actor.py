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
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.kernel.context import Context, ThreadContext
from repro.kernel.simcall import (
    ExecAsyncCall, ExecuteCall, JoinCall, KillCall, ResumeCall, Simcall,
    SleepAsyncCall, SleepCall, SuspendCall, YieldCall,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.engine import Engine
    from repro.s4u.host import Host

__all__ = ["Actor", "ActorState", "current_actor"]

_pids = itertools.count(1)

#: The actor the engine is currently running (None between schedulings).
_current: Optional["Actor"] = None


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


class ActorState:
    """Symbolic actor states (strings for easy debugging)."""

    CREATED = "created"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    SUSPENDED = "suspended"
    DEAD = "dead"


class Actor:
    """One simulated actor: a function running on a host."""

    __slots__ = ("engine", "name", "host", "func", "args", "kwargs",
                 "daemon", "auto_restart", "pid", "state", "context", "data",
                 "_wait_activities", "_wait_timer", "_wait_kind",
                 "_wait_owner", "_suspended", "_parked_resume", "_exit",
                 "_on_exit_callbacks", "_exit_failed", "exit_status")

    def __init__(self, engine: "Engine", name: str, host: "Host",
                 func, args: tuple = (), kwargs: Optional[dict] = None,
                 daemon: bool = False, auto_restart: bool = False) -> None:
        self.engine = engine
        self.name = name
        self.host = host
        self.func = func
        self.args = args
        self.kwargs = kwargs or {}
        self.daemon = daemon
        #: Reboot this actor (fresh body, same function/arguments) when its
        #: failed host is restored (see ``Engine.restore_host``).
        self.auto_restart = auto_restart
        self.pid = next(_pids)
        self.state = ActorState.CREATED
        self.context: Optional[Context] = None
        #: Application-visible storage: the kernel never reads it.
        self.data: Dict[str, Any] = {}
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
        self._on_exit_callbacks: List[Any] = []
        #: How the actor died (False = body returned normally); only
        #: meaningful once the actor is DEAD.
        self._exit_failed = False
        #: The exception that escaped the body, if one did: the engine
        #: terminates the actor (``on_exit(failed=True)``, joiners woken)
        #: and re-raises it out of ``Engine.run``.  ``None`` otherwise —
        #: normal return, kill and host failure included.
        self.exit_status: Optional[BaseException] = None

    # ------------------------------------------------------------------------------
    # identity & state
    # ------------------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return self.state != ActorState.DEAD

    @property
    def is_suspended(self) -> bool:
        return self._suspended

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(pid={self.pid}, name={self.name!r}, "
                f"host={self.host.name!r}, state={self.state})")

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
        if self.state == ActorState.DEAD:
            callback(self._exit_failed)
            return self
        self._on_exit_callbacks.append(callback)
        return self

    # ------------------------------------------------------------------------------
    # simcall submission
    # ------------------------------------------------------------------------------
    def _submit(self, simcall: Simcall):
        """Return the simcall (generator mode) or block on it (thread mode)."""
        if isinstance(self.context, ThreadContext):
            return self.context.block(simcall)
        return simcall

    def _submit_as_caller(self, simcall: Simcall):
        """Submit through the *calling* actor's context when inside the
        simulation, so ``other_actor.kill()`` works S4U-style."""
        if _current is None:
            raise RuntimeError(
                "this operation must be called from inside a simulated "
                "actor; use the Engine-level helpers from host code")
        return _current._submit(simcall)

    # ------------------------------------------------------------------------------
    # blocking operations of the actor itself
    # ------------------------------------------------------------------------------
    def execute(self, flops: float, priority: float = 1.0,
                bound: Optional[float] = None,
                host: Optional["Host"] = None, name: str = "compute"):
        """Execute ``flops`` on this actor's host (blocking)."""
        return self._submit(ExecuteCall(flops=float(flops),
                                        host=host or self.host,
                                        priority=priority, bound=bound,
                                        name=name))

    def exec_async(self, flops: float, priority: float = 1.0,
                   bound: Optional[float] = None,
                   host: Optional["Host"] = None, name: str = "compute"):
        """Start an asynchronous execution; the result is an ``Exec``."""
        return self._submit(ExecAsyncCall(flops=float(flops),
                                          host=host or self.host,
                                          priority=priority, bound=bound,
                                          name=name))

    def sleep_for(self, duration: float):
        """Do nothing for ``duration`` simulated seconds (blocking)."""
        if duration < 0:
            raise ValueError("sleep duration must be >= 0")
        return self._submit(SleepCall(duration=duration))

    def sleep_until(self, date: float):
        """Sleep until the absolute simulated ``date``."""
        return self.sleep_for(max(0.0, date - self.engine.now))

    def sleep_async(self, duration: float):
        """Start an asynchronous sleep; the result is a ``Sleep`` activity."""
        if duration < 0:
            raise ValueError("sleep duration must be >= 0")
        return self._submit(SleepAsyncCall(duration=duration))

    def yield_(self):
        """Let other runnable actors run (no simulated time passes)."""
        return self._submit(YieldCall())

    # ------------------------------------------------------------------------------
    # lifecycle control (S4U style: the target is *this* actor)
    # ------------------------------------------------------------------------------
    def kill(self):
        """Kill this actor (from another actor, itself, or host code)."""
        if _current is None:
            self.engine.kill_actor(self)
            return None
        return self._submit_as_caller(KillCall(process=self))

    def suspend(self):
        """Suspend this actor until someone resumes it."""
        if _current is None:
            self.engine.suspend_actor(self)
            return None
        if _current is self:
            return self._submit(SuspendCall(process=None))
        return self._submit_as_caller(SuspendCall(process=self))

    def resume(self):
        """Resume this (suspended) actor."""
        if _current is None:
            self.engine.resume_actor(self)
            return None
        return self._submit_as_caller(ResumeCall(process=self))

    def join(self, timeout: Optional[float] = None):
        """Block the calling actor until this actor terminates.

        A ``timeout`` that fires first raises ``SimTimeoutError`` in the
        caller and only ends its wait: this actor runs on and can be
        joined again.
        """
        return self._submit_as_caller(JoinCall(process=self, timeout=timeout))
