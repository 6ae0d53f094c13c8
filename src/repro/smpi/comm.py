"""Communicators, point-to-point messaging and requests.

Point-to-point semantics follow SMPI's *eager* protocol, expressed directly
in s4u terms: ``send`` posts a **detached** asynchronous put (the transfer
is simulated in the background, the sender does not wait for the
rendezvous) while ``recv`` blocks until the matching message has fully
arrived, so the simulated completion time of a receive includes the network
transfer simulated by SURF.  Messages travel as raw :class:`_Envelope`
payloads with an explicit ``size`` — no per-message task wrapper is
allocated.  Matching honours ``source``/``tag`` with the usual
``ANY_SOURCE`` / ``ANY_TAG`` wildcards and an unexpected-message queue; a
single in-flight :class:`~repro.s4u.activity.Comm` future per communicator
drains the rank's mailbox in arrival order.  ``recv``, ``wait``, ``test``,
``waitany`` and ``waitall`` are all callers of one progress loop,
:meth:`Communicator._progress`, the only code that posts the shared
receive, blocks on a transfer or withdraws a receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.exceptions import MpiError, SimTimeoutError
from repro.s4u.activity import ActivitySet, Comm
from repro.s4u.actor import Actor
from repro.smpi import collectives
from repro.smpi.datatypes import Datatype, payload_size

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "Request", "Communicator"]

#: Wildcards, as in MPI.
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Status:
    """Receive status: who sent the matched message, with which tag."""

    source: int
    tag: int
    size: float


@dataclass
class _Envelope:
    """One SMPI message as carried by an s4u comm payload."""

    source: int
    dest: int
    tag: int
    value: Any
    size: float


@dataclass
class Request:
    """Handle on a non-blocking operation (``isend`` / ``irecv``)."""

    kind: str                       # "send" or "recv"
    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    completed: bool = False
    #: The s4u comm future realising the transfer (send requests; the
    #: receive side shares the communicator's single in-flight comm).
    comm: Optional[Comm] = None
    #: Completion state, never an input: the received value and status.
    value: Any = field(default=None, init=False)
    status: Optional[Status] = field(default=None, init=False)
    #: True once :meth:`Communicator.waitany` returned this request (or
    #: :meth:`Communicator.waitall` completed it) — it then behaves like
    #: MPI's ``MPI_REQUEST_NULL`` and is skipped by later ``waitany`` /
    #: ``waitall`` calls over the same list.
    reaped: bool = field(default=False, init=False)


class Communicator:
    """An MPI communicator bound to one rank's view of the world.

    Each rank gets its own :class:`Communicator` instance (same ``comm_id``,
    different ``rank``), which is how real MPI programs experience
    ``MPI_COMM_WORLD``.
    """

    def __init__(self, comm_id: int, rank: int, size: int,
                 actor: Actor) -> None:
        self.id = comm_id
        self.rank = rank
        self.size = size
        self._actor = actor
        #: Messages received from the mailbox but not yet matched.
        self._unexpected: List[_Envelope] = []
        #: The single outstanding ``get_async`` draining this rank's
        #: mailbox.  One is enough: every inbound message arrives on the
        #: same mailbox, so arrival order (the matching order MPI
        #: guarantees per source) is preserved by construction.
        self._inflight: Optional[Comm] = None

    # -- helpers ------------------------------------------------------------------------
    def _mailbox(self, rank: int) -> str:
        return f"smpi:{self.id}:{rank}"

    def _box(self, rank: int):
        return self._actor.engine.mailbox(self._mailbox(rank))

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise MpiError(f"{what} rank {rank} out of range 0..{self.size - 1}")

    # -- point-to-point --------------------------------------------------------------------
    def _post(self, value: Any, dest: int, tag: int, count: Optional[int],
              datatype: Optional[Datatype], detached: bool) -> Comm:
        """Deposit a message: an async put of an envelope with explicit size."""
        self._check_rank(dest, "destination")
        size = payload_size(value, count, datatype)
        envelope = _Envelope(source=self.rank, dest=dest, tag=tag,
                             value=value, size=size)
        return self._box(dest).put_async(
            envelope, size=size, detached=detached,
            name=f"smpi:{self.rank}->{dest}:{tag}")

    def send(self, value: Any, dest: int, tag: int = 0,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> None:
        """Standard-mode send (eager: returns once the message is deposited)."""
        self._post(value, dest, tag, count, datatype, detached=True)

    def isend(self, value: Any, dest: int, tag: int = 0,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Non-blocking send; eager, so the request is already complete.

        The underlying detached comm is exposed on ``request.comm`` for
        callers that want to observe the transfer itself.
        """
        comm = self._post(value, dest, tag, count, datatype, detached=True)
        return Request(kind="send", source=self.rank, tag=tag,
                       completed=True, comm=comm)

    def issend(self, value: Any, dest: int, tag: int = 0,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> Request:
        """Synchronous-mode non-blocking send (``MPI_Issend``).

        Unlike the eager :meth:`isend`, the returned request completes only
        once the receiver has fully received the message — complete it with
        :meth:`wait` / :meth:`test` / :meth:`waitany`, which drive the
        underlying (non-detached) s4u comm future.
        """
        comm = self._post(value, dest, tag, count, datatype, detached=False)
        return Request(kind="send", source=self.rank, tag=tag, comm=comm)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive request.

        Completed by :meth:`wait` / :meth:`test` / :meth:`waitany`, which
        drive the communicator's shared ``get_async`` future.  The receive
        is *posted* lazily, at the first progress call, so the simulated
        transfer dates are exactly those of a blocking receive issued at
        that point (the historical SMPI behaviour).
        """
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        return Request(kind="recv", source=source, tag=tag)

    def _matches(self, envelope: _Envelope, source: int, tag: int) -> bool:
        if source != ANY_SOURCE and envelope.source != source:
            return False
        if tag != ANY_TAG and envelope.tag != tag:
            return False
        return True

    def _take_unexpected(self, request: Request) -> bool:
        """Complete a receive with the oldest matching unexpected message."""
        for pos, envelope in enumerate(self._unexpected):
            if self._matches(envelope, request.source, request.tag):
                del self._unexpected[pos]
                request.value = envelope.value
                request.status = Status(source=envelope.source,
                                        tag=envelope.tag, size=envelope.size)
                request.completed = True
                return True
        return False

    # -- the one progress path --------------------------------------------------------
    def _progress(self, requests: List[Request],
                  timeout: Optional[float] = None,
                  block: bool = True) -> Optional[int]:
        """Drive ``requests`` until one completes; returns its index.

        With ``block=False`` this is a probe: ``None`` when nothing
        completed.  Receives match the unexpected queue first; only then
        is the single shared ``get_async`` posted (lazily, so transfer
        dates are those of a blocking receive issued here).  An arrived
        message that matches no request joins the unexpected queue.
        ``timeout`` is one deadline for the whole call: on expiry the
        posted receive is withdrawn, so the mailbox keeps no stale receive
        that would eat a later message.  A failed transfer raises its
        error (``TransferFailureError``...).
        """
        deadline = None if timeout is None else self._actor.now + timeout
        while True:
            for idx, request in enumerate(requests):
                if request.completed:
                    return idx
            for idx, request in enumerate(requests):
                if request.kind == "recv" and self._take_unexpected(request):
                    return idx
            pending = [r.comm for r in requests if r.kind == "send"]
            receiving = len(pending) < len(requests)
            if receiving and self._inflight is None:
                self._inflight = self._box(self.rank).get_async()
            inflight = self._inflight
            # A finished in-flight receive is always reaped, even when no
            # request waits on it (iprobe), so that its message or its
            # failure is never lost.
            if inflight is not None and (receiving or inflight.is_over()):
                pending.insert(0, inflight)
            try:
                if not block:
                    done = next((a for a in pending if a.test()), None)
                    if done is None:
                        return None
                    if not done.succeeded():
                        done.wait()          # raises the transfer's error
                elif len(pending) == 1:
                    done = pending[0]
                    done.wait(timeout)
                else:
                    done = ActivitySet(pending).wait_any(timeout)
            except SimTimeoutError:
                if receiving:                # only a receive waited on
                    inflight.cancel()
                raise
            finally:
                if inflight is not None and inflight.is_over():
                    self._inflight = None
                    if inflight.succeeded():
                        self._unexpected.append(inflight.get_payload())
            # An arrived message now sits in the unexpected queue: the next
            # round matches it (or leaves it buffered and waits again).
            if done is not inflight:         # a synchronous send completed
                idx = next(idx for idx, r in enumerate(requests)
                           if r.comm is done)
                requests[idx].completed = True
                return idx
            if deadline is not None:
                timeout = max(0.0, deadline - self._actor.now)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = None,
             return_status: bool = False):
        """Blocking receive; returns the value (or ``(value, status)``)."""
        request = self.irecv(source, tag)
        self._progress([request], timeout)
        if return_status:
            return request.value, request.status
        return request.value

    def wait(self, request: Request, timeout: Optional[float] = None) -> Any:
        """Complete a request; returns the received value for receives.

        ``timeout`` bounds the whole call; a failed transfer raises.
        """
        self._progress([request], timeout)
        return request.value

    def test(self, request: Request) -> bool:
        """Non-blocking completion probe (``MPI_Test``); drives progress.

        A failed transfer raises the same exception :meth:`wait` would.
        """
        return self._progress([request], block=False) is not None

    def waitany(self, requests: List[Request],
                timeout: Optional[float] = None) -> Tuple[int, Any]:
        """Block until one request completes; returns ``(index, value)``.

        A request already returned by a previous ``waitany`` is inactive
        (like ``MPI_REQUEST_NULL``) and skipped.
        """
        if not requests:
            raise MpiError("waitany needs at least one request")
        active = [idx for idx, r in enumerate(requests) if not r.reaped]
        if not active:
            raise MpiError("waitany: every request was already reaped")
        idx = active[self._progress([requests[i] for i in active], timeout)]
        requests[idx].reaped = True
        return idx, requests[idx].value

    def waitall(self, requests: List[Request]) -> List[Any]:
        """Complete every request (``MPI_Waitall``); returns their values
        in request order.

        Every request makes progress at once, so a rank whose ``issend``
        waits for a peer that in turn waits for this rank's ``irecv``
        completes.  Each request ends reaped, like the ones ``waitany``
        returned, and a request already reaped is skipped.
        """
        pending = [r for r in requests if not r.reaped]
        while pending:
            del pending[self._progress(pending)]
        for request in requests:
            request.reaped = True
        return [request.value for request in requests]

    def sendrecv(self, send_value: Any, dest: int, source: int,
                 send_tag: int = 0, recv_tag: int = 0) -> Any:
        """Combined send + receive (deadlock-free)."""
        self.send(send_value, dest, tag=send_tag)
        return self.recv(source=source, tag=recv_tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking ``MPI_Iprobe``: is a matching message available?

        Folds a message already captured by the shared in-flight receive
        into the unexpected queue, then checks that queue and scans *all*
        the mailbox's pending sends (a matching message may sit behind a
        non-matching one).  Nothing is consumed and no receive is posted.
        """
        self._progress([], block=False)     # reap a finished receive
        if any(self._matches(envelope, source, tag)
               for envelope in self._unexpected):
            return True
        return any(isinstance(payload, _Envelope)
                   and self._matches(payload, source, tag)
                   for payload in self._box(self.rank).pending_payloads())

    # -- collectives: the functions of repro.smpi.collectives, as methods --
    barrier = collectives.barrier
    bcast = collectives.bcast
    reduce = collectives.reduce
    allreduce = collectives.allreduce
    gather = collectives.gather
    allgather = collectives.allgather
    scatter = collectives.scatter
    alltoall = collectives.alltoall

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(id={self.id}, rank={self.rank}, size={self.size})"
