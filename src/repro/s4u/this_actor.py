"""``this_actor`` — blocking helpers acting on the currently-running actor.

Mirrors SimGrid's ``simgrid::s4u::this_actor`` namespace.  Every helper
resolves :func:`repro.s4u.actor.current_actor` and delegates, so actor code
can stay free of explicit actor plumbing::

    from repro.s4u import this_actor

    def worker(actor):
        yield this_actor.execute(5e8)
        yield this_actor.sleep_for(0.5)

Under the generator context factory the helpers return the simcall to
``yield``; under the thread context factory they block directly.
"""

from __future__ import annotations

from typing import Optional

from repro.s4u.actor import current_actor

__all__ = ["execute", "get_host", "get_name", "get_pid", "sleep_for",
           "suspend"]


def get_name() -> str:
    """Name of the current actor."""
    return current_actor().name


def get_pid() -> int:
    """Pid of the current actor."""
    return current_actor().pid


def get_host():
    """Host the current actor runs on."""
    return current_actor().host


def execute(flops: float, priority: float = 1.0,
            bound: Optional[float] = None, name: str = "compute"):
    """Execute ``flops`` on the current host (blocking)."""
    return current_actor().execute(flops, priority=priority, bound=bound,
                                   name=name)


def sleep_for(duration: float):
    """Block for ``duration`` simulated seconds."""
    return current_actor().sleep_for(duration)


def suspend():
    """Suspend the current actor until someone resumes it."""
    return current_actor().suspend()
