"""S4U mailboxes: named rendezvous points between actors.

A mailbox matches senders and receivers.  The queue mechanics (the kernel
side, used by the engine) live here together with the user-facing blocking
API: :meth:`put` / :meth:`get` block until the transfer completed,
:meth:`put_async` / :meth:`get_async` return a
:class:`~repro.s4u.activity.Comm` future immediately.

Any string names a mailbox; GRAS and SMPI derive theirs from host, port
and rank.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Deque, Optional, TYPE_CHECKING

from repro.s4u.activity import ActivityState
from repro.s4u.actor import ActorState, submit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.activity import Comm

__all__ = ["Mailbox"]


def _payload_name(payload: Any) -> str:
    name = getattr(payload, "name", None)
    if name is None:  # the common case pays no isinstance
        return "comm"
    return name if isinstance(name, str) else "comm"


_PENDING = ActivityState.PENDING
_DEAD = ActorState.DEAD


def _matchable(comm: "Comm") -> bool:
    """Can a posted comm still be matched (or probed)?

    Only while it is pending and either its poster is alive to reap it or
    it is detached and needs no one: a killed actor's ``get_async`` must
    not swallow the next message, while a detached send outlives its
    sender (mailbox redelivery after a reboot).
    """
    if comm.state is not _PENDING:
        return False
    if comm.detached:
        return True
    poster = comm.src_actor if comm.dst_actor is None else comm.dst_actor
    return poster.state != _DEAD


class Mailbox:
    """A named rendezvous point between senders and receivers."""

    def __init__(self, name: str, engine=None) -> None:
        self.name = name
        # Vestige, never read since the deferred-start path went:
        # perfbench's golden.json pins the snapshot blob size; goes at the
        # next benchmark re-gold.
        self._engine = engine
        #: Communications posted by senders, waiting for a receiver.
        self.pending_sends: Deque["Comm"] = deque()
        #: Communications posted by receivers, waiting for a sender.
        self.pending_recvs: Deque["Comm"] = deque()

    # ------------------------------------------------------------------------------
    # user-facing blocking API
    # ------------------------------------------------------------------------------
    def put(self, payload: Any, size: float = 0.0,
            rate: Optional[float] = None, timeout: Optional[float] = None,
            priority: float = 1.0, name: Optional[str] = None):
        """Send ``payload`` (``size`` simulated bytes); blocks until the
        receiver has fully received it (rendezvous semantics).

        A ``timeout`` that fires first raises ``SimTimeoutError`` and
        aborts the comm, unlike a timed-out :meth:`Comm.wait
        <repro.s4u.activity.Activity.wait>`: unmatched, it leaves the
        mailbox; mid-transfer, the receiver gets a
        ``TransferFailureError`` — now if it is waiting, at its next wait
        on the handle otherwise — and the comm leaves the ``ActivitySet``
        it was reaped through.  :meth:`get` does the same to its sender.
        """
        size = float(size)
        if not 0.0 <= size < inf:
            raise ValueError(f"size must be finite and >= 0: {size!r}")
        if rate is not None and not rate > 0:
            raise ValueError(f"rate must be None or > 0: {rate!r}")
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0: {timeout!r}")
        if not 0.0 <= priority < inf:
            raise ValueError(f"priority must be finite and >= 0: {priority!r}")
        return submit("_do_send", self, payload, size, rate, timeout,
                      priority, name or _payload_name(payload))

    def get(self, timeout: Optional[float] = None,
            rate: Optional[float] = None):
        """Receive the next payload; blocks until a sender shows up and the
        transfer completed.  The result is the payload."""
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0: {timeout!r}")
        if rate is not None and not rate > 0:
            raise ValueError(f"rate must be None or > 0: {rate!r}")
        return submit("_do_recv", self, timeout, rate)

    def put_async(self, payload: Any, size: float = 0.0,
                  rate: Optional[float] = None, detached: bool = False,
                  priority: float = 1.0, name: Optional[str] = None):
        """Start an asynchronous send; the result is a ``Comm`` future."""
        size = float(size)
        if not 0.0 <= size < inf:
            raise ValueError(f"size must be finite and >= 0: {size!r}")
        if rate is not None and not rate > 0:
            raise ValueError(f"rate must be None or > 0: {rate!r}")
        if not 0.0 <= priority < inf:
            raise ValueError(f"priority must be finite and >= 0: {priority!r}")
        return submit("_do_isend", self, payload, size, rate, detached,
                      priority, name or _payload_name(payload))

    def get_async(self, rate: Optional[float] = None):
        """Start an asynchronous receive; the result is a ``Comm`` future."""
        if rate is not None and not rate > 0:
            raise ValueError(f"rate must be None or > 0: {rate!r}")
        return submit("_do_irecv", self, rate)

    # ------------------------------------------------------------------------------
    # kernel-side matching (used by the engine)
    # ------------------------------------------------------------------------------
    def pop_matching_send(self) -> Optional["Comm"]:
        """Oldest matchable sender-side communication, if any."""
        sends = self.pending_sends
        while sends:
            comm = sends.popleft()
            if _matchable(comm):
                return comm
        return None

    def pop_matching_recv(self) -> Optional["Comm"]:
        """Oldest matchable receiver-side communication, if any."""
        recvs = self.pending_recvs
        while recvs:
            comm = recvs.popleft()
            if _matchable(comm):
                return comm
        return None

    def post_send(self, comm: "Comm") -> None:
        """Queue a sender-side communication until a receiver shows up."""
        self.pending_sends.append(comm)

    def post_recv(self, comm: "Comm") -> None:
        """Queue a receiver-side communication until a sender shows up."""
        self.pending_recvs.append(comm)

    def discard(self, comm: "Comm") -> None:
        """Remove a communication from the queues (timeout, kill, cancel)."""
        try:
            self.pending_sends.remove(comm)
        except ValueError:
            pass
        try:
            self.pending_recvs.remove(comm)
        except ValueError:
            pass

    @property
    def empty(self) -> bool:
        """True when no communication is waiting on this mailbox."""
        return not self.pending_sends and not self.pending_recvs

    def listen(self) -> bool:
        """True when a ``get`` would match an already-posted send
        (``MSG_task_listen``)."""
        return any(_matchable(c) for c in self.pending_sends)

    def pending_payloads(self) -> list:
        """Payloads of every pending send, oldest first, non-consuming.

        Selective probes (``MPI_Iprobe``-style matching on source/tag, GRAS
        message-type filters) must scan the whole queue: a matching message
        may sit behind a non-matching one.
        """
        return [comm.payload for comm in self.pending_sends
                if _matchable(comm)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Mailbox(name={self.name!r}, sends={len(self.pending_sends)},"
                f" recvs={len(self.pending_recvs)})")
