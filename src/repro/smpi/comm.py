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
drains the rank's mailbox in arrival order, and :class:`Request` handles
are completed through it (``wait`` / ``test`` / ``waitany`` over
:class:`~repro.s4u.activity.ActivitySet`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from repro.exceptions import MpiError, SimTimeoutError
from repro.s4u.activity import ActivitySet, Comm
from repro.s4u.actor import Actor
from repro.smpi.datatypes import Datatype, payload_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smpi.api import Smpi

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "Request", "Communicator"]

#: Wildcards, as in MPI.
ANY_SOURCE = -1
ANY_TAG = -1

_comm_ids = itertools.count(0)


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
    value: Any = None
    status: Optional[Status] = None
    completed: bool = False
    #: True once :meth:`Communicator.waitany` returned this request — it
    #: then behaves like MPI's ``MPI_REQUEST_NULL`` and is skipped by
    #: later ``waitany`` calls over the same list.
    reaped: bool = False
    #: The s4u comm future realising the transfer (send requests; the
    #: receive side shares the communicator's single in-flight comm).
    comm: Optional[Comm] = None


class Communicator:
    """An MPI communicator bound to one rank's view of the world.

    Each rank gets its own :class:`Communicator` instance (same ``comm_id``,
    different ``rank``), which is how real MPI programs experience
    ``MPI_COMM_WORLD``.
    """

    def __init__(self, smpi: "Smpi", comm_id: int, rank: int, size: int,
                 actor: Actor) -> None:
        self._smpi = smpi
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
    def _post_eager(self, value: Any, dest: int, tag: int,
                    count: Optional[int], datatype: Optional[Datatype]
                    ) -> Comm:
        """Deposit a message: a detached async put with an explicit size."""
        self._check_rank(dest, "destination")
        size = payload_size(value, count, datatype)
        envelope = _Envelope(source=self.rank, dest=dest, tag=tag,
                             value=value, size=size)
        return self._box(dest).put_async(
            envelope, size=size, detached=True,
            name=f"smpi:{self.rank}->{dest}:{tag}")

    def send(self, value: Any, dest: int, tag: int = 0,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> None:
        """Standard-mode send (eager: returns once the message is deposited)."""
        self._post_eager(value, dest, tag, count, datatype)

    def isend(self, value: Any, dest: int, tag: int = 0,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Non-blocking send; eager, so the request is already complete.

        The underlying detached comm is exposed on ``request.comm`` for
        callers that want to observe the transfer itself.
        """
        comm = self._post_eager(value, dest, tag, count, datatype)
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
        self._check_rank(dest, "destination")
        size = payload_size(value, count, datatype)
        envelope = _Envelope(source=self.rank, dest=dest, tag=tag,
                             value=value, size=size)
        comm = self._box(dest).put_async(
            envelope, size=size,
            name=f"smpi:{self.rank}->{dest}:{tag}")
        return Request(kind="send", source=self.rank, tag=tag, comm=comm)

    def _matches(self, envelope: _Envelope, source: int, tag: int) -> bool:
        if source != ANY_SOURCE and envelope.source != source:
            return False
        if tag != ANY_TAG and envelope.tag != tag:
            return False
        return True

    # -- the receive machinery -----------------------------------------------------------
    def _ensure_inflight(self) -> Comm:
        """The (single) outstanding receive on this rank's mailbox."""
        if self._inflight is None:
            self._inflight = self._box(self.rank).get_async()
        return self._inflight

    def _pull_envelope(self, timeout: Optional[float]) -> _Envelope:
        """Wait for the next inbound message and consume the in-flight comm.

        A timeout withdraws the posted receive (synchronous-recv
        semantics, matching the pre-s4u behaviour): the mailbox must not
        keep a stale receive that would silently eat a later message.
        """
        comm = self._ensure_inflight()
        try:
            envelope = comm.wait(timeout)
        except SimTimeoutError:
            comm.cancel()
            self._inflight = None
            raise
        except Exception:
            if comm.is_over():
                self._inflight = None
            raise
        self._inflight = None
        return envelope

    def _take_completed_inflight(self) -> _Envelope:
        """Consume the terminated in-flight comm; raise if it failed.

        A failed/cancelled transfer must surface the same exception a
        blocking receive would, not deliver a bogus payload.
        """
        comm = self._inflight
        self._inflight = None
        if not comm.succeeded():
            comm.wait()          # raises the transfer's error
        return comm.get_payload()

    def _harvest_inflight(self) -> None:
        """Fold a terminated in-flight receive into the unexpected queue.

        Probes must see a message that already rendezvoused with the
        shared ``get_async`` (e.g. posted by an earlier ``test``): it has
        arrived even though no pending send sits on the mailbox anymore.
        """
        if self._inflight is not None and self._inflight.is_over():
            self._unexpected.append(self._take_completed_inflight())

    def _match_unexpected(self, source: int, tag: int) -> Optional[_Envelope]:
        for idx, envelope in enumerate(self._unexpected):
            if self._matches(envelope, source, tag):
                return self._unexpected.pop(idx)
        return None

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = None,
             return_status: bool = False):
        """Blocking receive; returns the value (or ``(value, status)``)."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        # 1. look in the unexpected queue
        envelope = self._match_unexpected(source, tag)
        if envelope is not None:
            return self._deliver(envelope, return_status)
        # 2. pull from the mailbox until a matching message arrives
        while True:
            envelope = self._pull_envelope(timeout)
            if self._matches(envelope, source, tag):
                return self._deliver(envelope, return_status)
            self._unexpected.append(envelope)

    def _deliver(self, envelope: _Envelope, return_status: bool):
        status = Status(source=envelope.source, tag=envelope.tag,
                        size=envelope.size)
        if return_status:
            return envelope.value, status
        return envelope.value

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive request.

        Completed by :meth:`wait` / :meth:`test` / :meth:`waitany`, which
        drive the communicator's shared ``get_async`` future.  The receive
        is *posted* lazily, at the first progress call, so the simulated
        transfer dates are exactly those of a blocking receive issued at
        that point (the historical SMPI behaviour).
        """
        return Request(kind="recv", source=source, tag=tag)

    def _complete_recv(self, request: Request, envelope: _Envelope) -> None:
        request.value = envelope.value
        request.status = Status(source=envelope.source, tag=envelope.tag,
                                size=envelope.size)
        request.completed = True

    def wait(self, request: Request, timeout: Optional[float] = None) -> Any:
        """Complete a request; returns the received value for receives."""
        if request.completed:
            return request.value
        if request.kind == "recv":
            value, status = self.recv(request.source, request.tag,
                                      timeout=timeout, return_status=True)
            request.value = value
            request.status = status
            request.completed = True
            return value
        if request.comm is not None and not request.comm.is_over():
            request.comm.wait(timeout)
        request.completed = True
        return None

    def test(self, request: Request) -> bool:
        """Non-blocking completion probe (``MPI_Test``); drives progress.

        A failed transfer raises the same exception :meth:`wait` would.
        """
        if request.completed:
            return True
        if request.kind == "send":
            if request.comm is None:
                request.completed = True
            elif request.comm.test():
                if not request.comm.succeeded():
                    request.comm.wait()      # raises the transfer's error
                request.completed = True
            return request.completed
        envelope = self._match_unexpected(request.source, request.tag)
        if envelope is not None:
            self._complete_recv(request, envelope)
            return True
        while True:
            comm = self._ensure_inflight()
            if not comm.test():
                return False
            envelope = self._take_completed_inflight()
            if self._matches(envelope, request.source, request.tag):
                self._complete_recv(request, envelope)
                return True
            self._unexpected.append(envelope)

    def waitany(self, requests: List[Request],
                timeout: Optional[float] = None) -> Tuple[int, Any]:
        """Block until one request completes; returns ``(index, value)``.

        Mixed send/receive request lists are reaped through an s4u
        :class:`~repro.s4u.activity.ActivitySet` racing the underlying
        comm futures.  A request already returned by a previous
        ``waitany`` is inactive (like ``MPI_REQUEST_NULL``) and skipped.
        """
        active = [(idx, r) for idx, r in enumerate(requests) if not r.reaped]
        if not requests:
            raise MpiError("waitany needs at least one request")
        if not active:
            raise MpiError("waitany: every request was already reaped")

        def _reap(idx: int, request: Request) -> Tuple[int, Any]:
            request.reaped = True
            return idx, request.value

        while True:
            for idx, request in active:
                if request.completed:
                    return _reap(idx, request)
            for idx, request in active:
                if request.kind == "recv":
                    envelope = self._match_unexpected(request.source,
                                                      request.tag)
                    if envelope is not None:
                        self._complete_recv(request, envelope)
                        return _reap(idx, request)
            pending = ActivitySet()
            if any(r.kind == "recv" for _, r in active):
                pending.push(self._ensure_inflight())
            for _, request in active:
                if request.kind == "send" and request.comm is not None:
                    pending.push(request.comm)
            if pending.empty():
                raise MpiError("waitany: no completable request")
            try:
                done = pending.wait_any(timeout)
            except SimTimeoutError:
                # Withdraw the posted receive (same contract as
                # _pull_envelope): leaving it on the mailbox would let the
                # next send rendezvous before the rank's next progress
                # call, breaking the lazy-post timing.
                if self._inflight is not None and not self._inflight.is_over():
                    self._inflight.cancel()
                    self._inflight = None
                raise
            if done is self._inflight:
                envelope = self._take_completed_inflight()
                for idx, request in active:
                    if request.kind == "recv" and self._matches(
                            envelope, request.source, request.tag):
                        self._complete_recv(request, envelope)
                        return _reap(idx, request)
                self._unexpected.append(envelope)
            else:
                for idx, request in active:
                    if (request.kind == "send" and request.comm is not None
                            and request.comm.is_over()):
                        request.completed = True
                        return _reap(idx, request)

    def waitall(self, requests: List[Request]) -> List[Any]:
        """Complete every request, in order."""
        return [self.wait(request) for request in requests]

    def sendrecv(self, send_value: Any, dest: int, source: int,
                 send_tag: int = 0, recv_tag: int = 0) -> Any:
        """Combined send + receive (deadlock-free)."""
        self.send(send_value, dest, tag=send_tag)
        return self.recv(source=source, tag=recv_tag)

    def probe_unexpected(self) -> int:
        """Number of buffered unexpected messages (introspection for tests)."""
        return len(self._unexpected)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking ``MPI_Iprobe``: is a matching message available?

        Folds a message already captured by the shared in-flight receive
        into the unexpected queue, then checks that queue and scans *all*
        the mailbox's pending sends (a matching message may sit behind a
        non-matching one).  Nothing is consumed and no receive is posted.
        """
        self._harvest_inflight()
        if any(self._matches(envelope, source, tag)
               for envelope in self._unexpected):
            return True
        return any(isinstance(payload, _Envelope)
                   and self._matches(payload, source, tag)
                   for payload in self._box(self.rank).pending_payloads())

    # -- collectives (implemented in repro.smpi.collectives) ------------------------------------
    def barrier(self) -> None:
        from repro.smpi import collectives
        collectives.barrier(self)

    def bcast(self, value: Any, root: int = 0) -> Any:
        from repro.smpi import collectives
        return collectives.bcast(self, value, root)

    def reduce(self, value: Any, op=None, root: int = 0) -> Any:
        from repro.smpi import collectives
        return collectives.reduce(self, value, op, root)

    def allreduce(self, value: Any, op=None) -> Any:
        from repro.smpi import collectives
        return collectives.allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        from repro.smpi import collectives
        return collectives.gather(self, value, root)

    def allgather(self, value: Any) -> List[Any]:
        from repro.smpi import collectives
        return collectives.allgather(self, value)

    def scatter(self, values: Optional[List[Any]], root: int = 0) -> Any:
        from repro.smpi import collectives
        return collectives.scatter(self, values, root)

    def alltoall(self, values: List[Any]) -> List[Any]:
        from repro.smpi import collectives
        return collectives.alltoall(self, values)

    # -- misc -----------------------------------------------------------------------------------
    def wtime(self) -> float:
        """Simulated time (``MPI_Wtime``)."""
        return self._actor.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(id={self.id}, rank={self.rank}, size={self.size})"
