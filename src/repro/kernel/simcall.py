"""Simcalls: the blocking requests a simulated process hands to the kernel.

A simulated process never touches the SURF models directly.  Whenever it
needs something that takes simulated time (executing flops, transferring a
task, sleeping, waiting for another process...), it builds a *simcall*
object describing the request and yields it to the kernel (generator
contexts) or submits it through the context handshake (thread contexts).
The kernel turns the simcall into SURF actions and resumes the process with
the result once the corresponding activity completes.

This mirrors SimGrid's simcall mechanism and keeps the user-facing APIs
(s4u, and GRAS, SMPI and AMOK on top of it) thin translation layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

__all__ = [
    "Simcall", "ExecuteCall", "ExecAsyncCall", "SleepCall", "SleepAsyncCall",
    "SendCall", "RecvCall", "IsendCall", "IrecvCall",
    "WaitCall", "WaitAnyCall", "WaitAllCall", "TestCall",
    "KillCall", "SuspendCall", "ResumeCall", "JoinCall", "YieldCall",
]


class Simcall:
    """Base class of every kernel request."""

    __slots__ = ()


@dataclass(slots=True)
class ExecuteCall(Simcall):
    """Execute ``flops`` floating point operations on ``host``.

    ``host`` may be ``None`` to mean "the host the calling process runs on".
    ``priority`` is the CPU sharing weight; ``bound`` caps the speed.
    The yield result is ``None`` when the execution completes.
    """

    flops: float
    host: Optional[Any] = None
    priority: float = 1.0
    bound: Optional[float] = None
    name: str = "compute"


@dataclass(slots=True)
class ExecAsyncCall(Simcall):
    """Start an asynchronous execution: returns an ``Exec`` handle.

    Same parameters as :class:`ExecuteCall`; the caller is resumed
    immediately with the activity handle (S4U ``this_actor.exec_async``).
    """

    flops: float
    host: Optional[Any] = None
    priority: float = 1.0
    bound: Optional[float] = None
    name: str = "compute"


@dataclass(slots=True)
class SleepCall(Simcall):
    """Sleep for ``duration`` simulated seconds."""

    duration: float


@dataclass(slots=True)
class SleepAsyncCall(Simcall):
    """Start an asynchronous sleep: returns a ``Sleep`` activity handle."""

    duration: float


@dataclass(slots=True)
class SendCall(Simcall):
    """Synchronous (rendezvous) send of ``payload`` to ``mailbox``.

    Blocks the caller until the transfer has completed, like
    ``MSG_task_put`` / S4U ``Mailbox.put``.  ``size`` is the simulated
    payload size in bytes, ``rate`` optionally caps the transfer rate
    (``MSG_task_put_bounded``), ``priority`` is the flow's sharing weight
    and ``timeout`` bounds the wait.
    """

    mailbox: Any
    payload: Any
    size: float = 0.0
    rate: Optional[float] = None
    timeout: Optional[float] = None
    priority: float = 1.0
    name: str = ""


@dataclass(slots=True)
class RecvCall(Simcall):
    """Synchronous receive from ``mailbox`` (``MSG_task_get``).

    The yield result is the received payload.
    """

    mailbox: Any
    timeout: Optional[float] = None
    rate: Optional[float] = None


@dataclass(slots=True)
class IsendCall(Simcall):
    """Asynchronous send: returns a communication handle immediately.

    ``detached=True`` means the caller never waits on the handle
    (fire-and-forget, like ``MSG_task_dsend``).
    """

    mailbox: Any
    payload: Any
    size: float = 0.0
    rate: Optional[float] = None
    detached: bool = False
    priority: float = 1.0
    name: str = ""


@dataclass(slots=True)
class IrecvCall(Simcall):
    """Asynchronous receive: returns a communication handle immediately."""

    mailbox: Any
    rate: Optional[float] = None


@dataclass(slots=True)
class WaitCall(Simcall):
    """Wait for an activity handle (from Isend/Irecv or an async exec).

    The yield result is the received payload for receive communications,
    ``None`` otherwise.
    """

    activity: Any
    timeout: Optional[float] = None


@dataclass(slots=True)
class WaitAnyCall(Simcall):
    """Wait until any of several activity handles completes.

    ``activities`` is a snapshot of the members of ``owner``, the
    ``ActivitySet`` being reaped; the yield result is the completed
    activity, which is removed from the owner.
    """

    activities: Sequence[Any]
    owner: Any
    timeout: Optional[float] = None


@dataclass(slots=True)
class WaitAllCall(Simcall):
    """Wait until every one of several activity handles completed.

    ``activities`` is a snapshot of the members of ``owner``, the
    ``ActivitySet`` being reaped; the yield result is ``None`` and the
    completed activities are removed from the owner.
    """

    activities: Sequence[Any]
    owner: Any
    timeout: Optional[float] = None


@dataclass(slots=True)
class TestCall(Simcall):
    """Non-blocking completion test of an activity handle.

    The yield result is ``True`` when the activity already completed.
    """

    activity: Any


@dataclass(slots=True)
class KillCall(Simcall):
    """Kill ``process`` (possibly the caller itself)."""

    process: Any


@dataclass(slots=True)
class SuspendCall(Simcall):
    """Suspend ``process`` (``None`` means the caller)."""

    process: Optional[Any] = None


@dataclass(slots=True)
class ResumeCall(Simcall):
    """Resume a previously suspended ``process``."""

    process: Any


@dataclass(slots=True)
class JoinCall(Simcall):
    """Block until ``process`` terminates."""

    process: Any
    timeout: Optional[float] = None


@dataclass(slots=True)
class YieldCall(Simcall):
    """Give the scheduler a chance to run other processes (no time passes)."""
