"""``this_actor`` — blocking helpers acting on the currently-running actor.

Mirrors SimGrid's ``simgrid::s4u::this_actor`` namespace.  Every helper
resolves :func:`repro.s4u.actor.current_actor` and delegates, so actor code
can stay free of explicit actor plumbing::

    from repro.s4u import this_actor

    def worker(actor):
        yield this_actor.execute(5e8)
        comp = yield this_actor.exec_async(1e9)     # overlap with...
        yield this_actor.sleep_for(0.5)             # ...something else
        yield comp.wait()

Under the generator context factory the helpers return the simcall to
``yield``; under the thread context factory they block directly.
"""

from __future__ import annotations

from typing import Optional

from repro.s4u.actor import Actor, current_actor

__all__ = [
    "exec_async", "execute", "exit", "get_engine", "get_host",
    "get_name", "get_pid", "is_suspended", "mailbox", "self_", "sleep_async",
    "sleep_for", "sleep_until", "suspend", "yield_",
]


def self_() -> Actor:
    """The currently-running actor."""
    return current_actor()


def get_engine():
    """Engine the current actor runs in."""
    return current_actor().engine


def mailbox(name: str):
    """Mailbox ``name`` of the current engine (S4U ``Mailbox::by_name``)."""
    return current_actor().engine.mailbox(name)


def get_name() -> str:
    """Name of the current actor."""
    return current_actor().name


def get_pid() -> int:
    """Pid of the current actor."""
    return current_actor().pid


def get_host():
    """Host the current actor runs on."""
    return current_actor().host


def is_suspended() -> bool:
    return current_actor().is_suspended


def execute(flops: float, priority: float = 1.0,
            bound: Optional[float] = None, name: str = "compute"):
    """Execute ``flops`` on the current host (blocking)."""
    return current_actor().execute(flops, priority=priority, bound=bound,
                                   name=name)


def exec_async(flops: float, priority: float = 1.0,
               bound: Optional[float] = None, name: str = "compute"):
    """Start an asynchronous execution; the result is an ``Exec`` future."""
    return current_actor().exec_async(flops, priority=priority, bound=bound,
                                      name=name)


def sleep_for(duration: float):
    """Block for ``duration`` simulated seconds."""
    return current_actor().sleep_for(duration)


def sleep_until(date: float):
    """Block until the absolute simulated ``date``."""
    return current_actor().sleep_until(date)


def sleep_async(duration: float):
    """Start an asynchronous sleep; the result is a ``Sleep`` activity."""
    return current_actor().sleep_async(duration)


def yield_():
    """Let other runnable actors run (no simulated time passes)."""
    return current_actor().yield_()


def suspend():
    """Suspend the current actor until someone resumes it."""
    return current_actor().suspend()


def exit():  # noqa: A001 - mirrors S4U's this_actor::exit()
    """Terminate the current actor."""
    return current_actor().kill()
