"""Collective operations built on SMPI point-to-point messaging.

Algorithms are the classic ones MPI implementations of the paper's era used:

* **broadcast / reduce**: binomial tree (log₂ P rounds);
* **allreduce**: reduce to root then broadcast;
* **gather / scatter**: linear to/from the root;
* **allgather**: gather + broadcast of the assembled list;
* **alltoall**: pairwise exchange with a rank-rotation schedule;
* **barrier**: allreduce of a token.

Each function takes the calling rank's :class:`~repro.smpi.comm.Communicator`,
whose method of the same name it is, and must be called by *every* rank of
the communicator (like real MPI).
Internal messages use negative tags so they never collide with user tags.
The plumbing rides the communicator's s4u transport: every hop is a raw
envelope payload deposited by a detached async put and drained through the
rank's mailbox — no task wrappers anywhere on the collective hot path.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.exceptions import MpiError

__all__ = ["barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
           "scatter", "alltoall", "SUM", "MAX", "MIN", "PROD"]

# Reserved (negative) tag space for the collective plumbing.
_TAG_BCAST = -10
_TAG_REDUCE = -11
_TAG_GATHER = -12
_TAG_SCATTER = -13
_TAG_ALLTOALL = -14
_TAG_BARRIER = -15
_TAG_ALLGATHER = -16


def SUM(a: Any, b: Any) -> Any:
    """Default reduction operator (element-wise ``+`` for sequences/arrays)."""
    try:
        return a + b
    except TypeError:
        raise MpiError(f"cannot SUM {type(a).__name__} and {type(b).__name__}")


def MAX(a: Any, b: Any) -> Any:
    return a if a >= b else b


def MIN(a: Any, b: Any) -> Any:
    return a if a <= b else b


def PROD(a: Any, b: Any) -> Any:
    return a * b


def _relative(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _absolute(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def bcast(comm, value: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast: every rank returns the root's value."""
    comm._check_rank(root, "root")
    size = comm.size
    if size == 1:
        return value
    vrank = _relative(comm.rank, root, size)
    # Receive phase: a non-root rank receives from the rank obtained by
    # clearing its lowest set bit; ``mask`` ends at that lowest set bit.
    mask = 1
    while mask < size:
        if vrank & mask:
            value = comm.recv(source=_absolute(vrank - mask, root, size),
                              tag=_TAG_BCAST)
            break
        mask <<= 1
    # Send phase: forward to the ranks whose lowest set bit is below ours,
    # from the highest sub-tree down (classic binomial broadcast order).
    mask >>= 1
    while mask >= 1:
        child = vrank + mask
        if child < size:
            comm.send(value, dest=_absolute(child, root, size),
                      tag=_TAG_BCAST)
        mask >>= 1
    return value


def reduce(comm, value: Any, op: Optional[Callable[[Any, Any], Any]] = None,
           root: int = 0) -> Optional[Any]:
    """Binomial-tree reduction; only the root returns the reduced value."""
    comm._check_rank(root, "root")
    op = op or SUM
    size = comm.size
    vrank = _relative(comm.rank, root, size)
    accumulated = value
    mask = 1
    while mask < size:
        if vrank & mask:
            comm.send(accumulated, dest=_absolute(vrank - mask, root, size),
                      tag=_TAG_REDUCE)
            break
        partner = vrank + mask
        if partner < size:
            received = comm.recv(source=_absolute(partner, root, size),
                                 tag=_TAG_REDUCE)
            accumulated = op(accumulated, received)
        mask <<= 1
    return accumulated if comm.rank == root else None


def allreduce(comm, value: Any,
              op: Optional[Callable[[Any, Any], Any]] = None) -> Any:
    """Reduce-to-root followed by broadcast."""
    result = reduce(comm, value, op, root=0)
    return bcast(comm, result, root=0)


def gather(comm, value: Any, root: int = 0) -> Optional[List[Any]]:
    """Linear gather; the root returns the list ordered by rank."""
    comm._check_rank(root, "root")
    if comm.rank != root:
        comm.send(value, dest=root, tag=_TAG_GATHER)
        return None
    result: List[Any] = [None] * comm.size
    result[root] = value
    for source in range(comm.size):
        if source == root:
            continue
        result[source] = comm.recv(source=source, tag=_TAG_GATHER)
    return result


def allgather(comm, value: Any) -> List[Any]:
    """Gather to rank 0 then broadcast the assembled list."""
    gathered = gather(comm, value, root=0)
    return bcast(comm, gathered, root=0)


def scatter(comm, values: Optional[List[Any]], root: int = 0) -> Any:
    """Linear scatter; every rank returns its slice of the root's list."""
    comm._check_rank(root, "root")
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            raise MpiError(
                f"scatter root needs a list of exactly {comm.size} items")
        for dest in range(comm.size):
            if dest == root:
                continue
            comm.send(values[dest], dest=dest, tag=_TAG_SCATTER)
        return values[root]
    return comm.recv(source=root, tag=_TAG_SCATTER)


def alltoall(comm, values: List[Any]) -> List[Any]:
    """Personalised all-to-all exchange.

    Every rank provides one value per destination and receives one value
    per source.  The eager send protocol makes the naive schedule
    deadlock-free, but we still post the sends before the receives.
    """
    if len(values) != comm.size:
        raise MpiError(f"alltoall needs exactly {comm.size} values")
    result: List[Any] = [None] * comm.size
    result[comm.rank] = values[comm.rank]
    for offset in range(1, comm.size):
        dest = (comm.rank + offset) % comm.size
        comm.send(values[dest], dest=dest, tag=_TAG_ALLTOALL)
    for offset in range(1, comm.size):
        source = (comm.rank - offset) % comm.size
        result[source] = comm.recv(source=source, tag=_TAG_ALLTOALL)
    return result


def barrier(comm) -> None:
    """Synchronise every rank (reduce + broadcast of a token)."""
    token = allreduce(comm, 1, op=SUM)
    if token != comm.size:
        raise MpiError("barrier token mismatch (internal error)")
