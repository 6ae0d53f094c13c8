"""S4U activities: first-class futures for everything that takes time.

An :class:`Activity` binds a kernel request to the SURF action (or timer)
that realises it and exposes the asynchronous lifecycle of SimGrid's S4U
API: :meth:`test`, :meth:`wait`, :meth:`cancel`.  An activity is created
and started by the engine in one step (``*_async`` calls and the blocking
``execute``/``put``/``get``), so a handle is always the one object the
engine tracks.  Two concrete activities exist:

* :class:`Exec` — a computation on one host;
* :class:`Comm` — a payload transfer through a :class:`~repro.s4u.mailbox.Mailbox`.

A blocking ``sleep_for`` is a wait on no activity at all.

:class:`ActivitySet` groups heterogeneous activities so an actor can reap
them as they complete (``wait_any``) or in bulk (``wait_all``): one wait
of the actor on every member, like any other blocking call.

Every blocking method returns the simcall to ``yield`` under the generator
context factory and blocks directly under the thread context factory.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.s4u.actor import submit
from repro.surf.action import Action

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.actor import Actor
    from repro.s4u.host import Host
    from repro.s4u.mailbox import Mailbox

__all__ = ["Activity", "ActivityState", "ActivitySet", "Comm", "Exec"]


class ActivityState(enum.Enum):
    """Lifecycle of an activity."""

    PENDING = "pending"      # posted, not started (comm waiting for a peer)
    STARTED = "started"      # the SURF action is running
    DONE = "done"
    FAILED = "failed"        # a resource died
    CANCELLED = "cancelled"  # explicitly cancelled
    TIMEOUT = "timeout"      # the waiter's timeout fired first


class Activity:
    """Base class of every asynchronous operation a simulation performs."""

    kind = "activity"

    __slots__ = ("name", "state", "surf_action", "waiters", "start_time",
                 "finish_time")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.state = ActivityState.PENDING
        self.surf_action: Optional[Action] = None
        #: The actors blocked on this activity; ``()`` until the first.
        self.waiters: Tuple["Actor", ...] = ()
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None

    # -- state helpers -----------------------------------------------------------------
    def is_pending(self) -> bool:
        return self.state is ActivityState.PENDING

    def is_over(self) -> bool:
        """Finished, successfully or not."""
        state = self.state
        return (state is not ActivityState.PENDING
                and state is not ActivityState.STARTED)

    def succeeded(self) -> bool:
        return self.state is ActivityState.DONE

    # -- user-facing async API ---------------------------------------------------------
    def test(self):
        """Non-blocking completion probe; the result is a bool
        (``MSG_comm_test``)."""
        return submit("_do_test", self)

    def wait(self, timeout: Optional[float] = None):
        """Block until completion; raises ``SimTimeoutError`` on timeout.

        The result is the received payload for receive-side comms, ``None``
        for every other activity.  A timeout only abandons the *wait*, not
        the activity (S4U semantics): a pending comm stays posted on its
        mailbox and can be waited on again — :meth:`cancel` it explicitly
        to withdraw it.  The peer of a comm notices nothing.
        """
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0: {timeout!r}")
        return submit("_do_wait", self, timeout)

    @property
    def remaining(self) -> float:
        """Remaining work of the underlying action (0 when not started)."""
        action = self.surf_action
        if action is None:
            return 0.0
        return action.remaining

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, state={self.state.value})"


class Exec(Activity):
    """A computation on ``host`` by ``actor``; its SURF action holds the
    amount, the priority and the bound."""

    kind = "exec"

    __slots__ = ("actor", "host")

    def __init__(self, actor: "Actor", host: "Host", name: str) -> None:
        super().__init__(name)
        self.actor = actor
        self.host = host

    def cancel(self) -> None:
        """Cancel the computation and wake its waiters with
        ``CancelledError`` (``MSG_task_cancel``)."""
        self.actor.engine._abort_activity(self, ActivityState.CANCELLED)


class Comm(Activity):
    """A payload transfer through a mailbox.

    The activity is created by whichever side posts first (PENDING); when
    the other side arrives the engine *starts* it: the route between the
    sender's and the receiver's hosts is resolved and the SURF network
    action created.
    """

    kind = "comm"

    __slots__ = ("mailbox", "payload", "size", "src_actor", "dst_actor",
                 "rate", "detached", "priority")

    def __init__(self, mailbox: "Mailbox", payload: Any = None,
                 size: float = 0.0,
                 src_actor: Optional["Actor"] = None,
                 dst_actor: Optional["Actor"] = None,
                 rate: Optional[float] = None,
                 detached: bool = False,
                 priority: float = 1.0,
                 name: str = "") -> None:
        super().__init__(name or "comm")
        self.mailbox = mailbox
        self.payload = payload
        self.size = float(size)
        self.src_actor = src_actor
        self.dst_actor = dst_actor
        self.rate = rate
        self.detached = detached
        self.priority = priority

    def get_payload(self) -> Any:
        """The transported payload (valid once the comm succeeded)."""
        return self.payload

    def cancel(self) -> None:
        """Cancel the transfer and wake its waiters with ``CancelledError``
        (``MSG_task_cancel``)."""
        self.mailbox._engine._abort_activity(self, ActivityState.CANCELLED)

    @property
    def src_host(self) -> Optional["Host"]:
        src = self.src_actor
        return src.host if src is not None else None

    @property
    def dst_host(self) -> Optional["Host"]:
        dst = self.dst_actor
        return dst.host if dst is not None else None


class ActivitySet:
    """A bag of activities an actor reaps as they complete.

    Mirrors S4U's ``ActivitySet``: :meth:`wait_any` blocks until one member
    completes, removes it from the set and returns it; :meth:`wait_all`
    blocks until every member completed.
    """

    __slots__ = ("_activities",)

    def __init__(self, activities: Iterable[Activity] = ()) -> None:
        self._activities: List[Activity] = list(activities)

    # -- container protocol ------------------------------------------------------------
    def erase(self, activity: Activity) -> None:
        """Remove an activity from the set (no-op when absent)."""
        try:
            self._activities.remove(activity)
        except ValueError:
            pass

    def empty(self) -> bool:
        return not self._activities

    def __contains__(self, activity: Activity) -> bool:
        return activity in self._activities

    # -- blocking API ------------------------------------------------------------------
    def wait_any(self, timeout: Optional[float] = None):
        """Block until one member completes; it is removed and returned.

        Raises ``SimTimeoutError`` when ``timeout`` fires first, and the
        completing activity's error (``TransferFailureError``...) when it
        did not succeed.
        """
        if not self._activities:
            raise ValueError("wait_any on an empty ActivitySet")
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0: {timeout!r}")
        return submit("_do_wait_any", tuple(self._activities), self, timeout)

    def wait_all(self, timeout: Optional[float] = None):
        """Block until every member completed; the set is emptied
        (``MSG_comm_waitall``)."""
        if not self._activities:
            raise ValueError("wait_all on an empty ActivitySet")
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0: {timeout!r}")
        return submit("_do_wait_all", tuple(self._activities), self, timeout)

    def test_any(self):
        """Non-blocking reap: a completed member (removed) or ``None``
        (``MSG_comm_testany``)."""
        for activity in self._activities:
            if activity.is_over():
                self.erase(activity)
                return activity
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActivitySet({self._activities!r})"
