"""Tests for SMPI: point-to-point, collectives, datatypes and benchmarking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MpiError, SimTimeoutError, TransferFailureError
from repro.platform import make_cluster, make_star, make_two_site_grid
from repro.smpi import (
    ANY_SOURCE,
    ANY_TAG,
    MPI_BYTE,
    MPI_DOUBLE,
    MPI_INT,
    SmpiWorld,
    payload_size,
)
from repro.smpi.collectives import MAX, MIN, PROD, SUM


def run_world(num_ranks, func, platform=None, **kwargs):
    world = SmpiWorld(platform or make_cluster(num_hosts=num_ranks),
                      num_ranks=num_ranks, **kwargs)
    elapsed = world.run(func)
    return world, elapsed


class TestDatatypes:
    def test_extent(self):
        assert MPI_INT.extent(10) == 40
        assert MPI_DOUBLE.extent(3) == 24
        with pytest.raises(ValueError):
            MPI_INT.extent(-1)

    def test_payload_size_prefers_explicit_count(self):
        assert payload_size([1, 2, 3], count=100, datatype=MPI_DOUBLE) == 800

    def test_payload_size_numpy_and_bytes(self):
        assert payload_size(np.zeros(10, dtype="f8")) == 80
        assert payload_size(b"abcd") == 4
        assert payload_size("hello") == 5
        assert payload_size(None) == 0
        assert payload_size(3.14) == 8
        assert payload_size({"a": 1}) > 0


class TestPointToPoint:
    def test_send_recv_by_tag_and_source(self):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                comm.send("for-one", dest=1, tag=5)
                comm.send("also-for-one", dest=1, tag=6)
            elif comm.rank == 1:
                second = comm.recv(source=0, tag=6)
                first = comm.recv(source=0, tag=5)
                results["order"] = (first, second)

        run_world(2, program)
        assert results["order"] == ("for-one", "also-for-one")

    def test_any_source_any_tag(self):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank)
            else:
                seen = set()
                for _ in range(comm.size - 1):
                    value, status = comm.recv(source=ANY_SOURCE, tag=ANY_TAG,
                                              return_status=True)
                    assert value == status.source == status.tag
                    seen.add(value)
                results["seen"] = seen

        run_world(4, program)
        assert results["seen"] == {1, 2, 3}

    def test_isend_irecv_wait(self):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.isend(np.arange(100), dest=1, tag=1)
                comm.wait(req)
            elif comm.rank == 1:
                req = comm.irecv(source=0, tag=1)
                data = comm.wait(req)
                results["len"] = len(data)

        run_world(2, program)
        assert results["len"] == 100

    def test_sendrecv_ring(self):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            received = comm.sendrecv(comm.rank, dest=right, source=left)
            results[comm.rank] = received

        run_world(4, program)
        assert results == {0: 3, 1: 0, 2: 1, 3: 2}

    def test_transfer_time_depends_on_size(self):
        def make_program(size_bytes):
            def program(mpi):
                comm = mpi.COMM_WORLD
                if comm.rank == 0:
                    comm.send(np.zeros(int(size_bytes), dtype="u1"), dest=1)
                else:
                    comm.recv(source=0)
            return program

        _, small = run_world(2, make_program(1_000))
        _, large = run_world(2, make_program(10_000_000))
        assert large > small

    def test_bad_rank_rejected(self):
        errors = []

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                try:
                    comm.send(1, dest=99)
                except MpiError:
                    errors.append("caught")

        run_world(2, program)
        assert errors == ["caught"]

    def test_wtime_monotonic_and_positive(self):
        times = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            t0 = mpi.wtime()
            comm.barrier()
            t1 = mpi.wtime()
            if comm.rank == 0:
                times["delta"] = t1 - t0

        run_world(4, program)
        assert times["delta"] >= 0


class TestCollectives:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 4, 5, 8])
    def test_bcast_every_rank_gets_root_value(self, num_ranks):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            value = {"data": 42} if comm.rank == 0 else None
            value = comm.bcast(value, root=0)
            results[comm.rank] = value["data"]

        run_world(num_ranks, program)
        assert results == {rank: 42 for rank in range(num_ranks)}

    @pytest.mark.parametrize("num_ranks", [2, 4, 7])
    def test_bcast_from_nonzero_root(self, num_ranks):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            root = num_ranks - 1
            value = "gold" if comm.rank == root else None
            results[comm.rank] = comm.bcast(value, root=root)

        run_world(num_ranks, program)
        assert set(results.values()) == {"gold"}

    @pytest.mark.parametrize("num_ranks", [1, 2, 4, 6])
    def test_reduce_sum_at_root(self, num_ranks):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            total = comm.reduce(comm.rank + 1, op=SUM, root=0)
            if comm.rank == 0:
                results["total"] = total
            else:
                assert total is None

        run_world(num_ranks, program)
        assert results["total"] == sum(range(1, num_ranks + 1))

    def test_reduce_other_operators(self):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            value = comm.rank + 1
            results["max"] = comm.allreduce(value, op=MAX)
            results["min"] = comm.allreduce(value, op=MIN)
            results["prod"] = comm.allreduce(value, op=PROD)

        run_world(4, program)
        assert results["max"] == 4
        assert results["min"] == 1
        assert results["prod"] == 24

    @pytest.mark.parametrize("num_ranks", [2, 4, 5])
    def test_allreduce_numpy_arrays(self, num_ranks):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            local = np.full(8, float(comm.rank))
            total = comm.allreduce(local)
            if comm.rank == 0:
                results["sum"] = total

        run_world(num_ranks, program)
        expected = sum(range(num_ranks))
        assert np.allclose(results["sum"], expected)

    @pytest.mark.parametrize("num_ranks", [2, 3, 6])
    def test_gather_scatter_allgather(self, num_ranks):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            gathered = comm.gather(comm.rank * 10, root=0)
            if comm.rank == 0:
                results["gathered"] = gathered
                pieces = [i * 100 for i in range(comm.size)]
            else:
                assert gathered is None
                pieces = None
            piece = comm.scatter(pieces, root=0)
            assert piece == comm.rank * 100
            everything = comm.allgather(comm.rank)
            assert everything == list(range(comm.size))

        run_world(num_ranks, program)
        assert results["gathered"] == [i * 10 for i in range(num_ranks)]

    @pytest.mark.parametrize("num_ranks", [2, 3, 4])
    def test_alltoall(self, num_ranks):
        checks = []

        def program(mpi):
            comm = mpi.COMM_WORLD
            outgoing = [comm.rank * 100 + dest for dest in range(comm.size)]
            incoming = comm.alltoall(outgoing)
            expected = [src * 100 + comm.rank for src in range(comm.size)]
            checks.append(incoming == expected)

        run_world(num_ranks, program)
        assert all(checks) and len(checks) == num_ranks

    def test_barrier_synchronises_ranks(self):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                mpi.compute(2e9)    # 2 seconds on a 1 Gflop/s host
            comm.barrier()
            results[comm.rank] = mpi.wtime()

        run_world(4, program)
        # every rank leaves the barrier only after rank 0's computation
        assert min(results.values()) >= 2.0 - 1e-6

    def test_scatter_requires_full_list(self):
        errors = []

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                try:
                    comm.scatter([1], root=0)
                except MpiError:
                    errors.append("caught")
                    # feed the real scatter so rank 1 does not deadlock
                    comm.scatter([0, 1], root=0)
            else:
                comm.scatter(None, root=0)

        run_world(2, program)
        assert errors == ["caught"]


def _outcome(call):
    """What ``call()`` did: ``("returned", value)`` or ``("raised", type)``."""
    try:
        return "returned", call()
    except Exception as error:          # noqa: BLE001 - the outcome is the test
        return "raised", type(error)


class TestRequestProgress:
    """recv / wait / test / waitany share one progress path, so they agree
    on deadlines, transfer failures and rank checks."""

    @pytest.mark.parametrize("call", ["recv", "wait", "waitany"])
    def test_timeout_is_a_deadline_across_nonmatching_messages(self, call):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                if call == "recv":
                    op = lambda: comm.recv(source=1, tag=1, timeout=0.5)
                elif call == "wait":
                    op = lambda: comm.wait(comm.irecv(source=1, tag=1), 0.5)
                else:
                    op = lambda: comm.waitany([comm.irecv(source=1, tag=1)],
                                              timeout=0.5)
                results["outcome"] = _outcome(op)
                results["at"] = mpi.wtime()
            elif comm.rank == 2:
                # noise: a non-matching message every 0.3 s
                for i in range(10):
                    mpi.compute(0.3e9)
                    comm.send(i, dest=0, tag=2)

        run_world(3, program)
        assert results["outcome"] == ("raised", SimTimeoutError)
        assert results["at"] == 0.5

    @pytest.mark.parametrize("call, outcome", [
        ("wait", ("raised", TransferFailureError)),
        ("test", ("raised", TransferFailureError)),
        ("waitany", ("raised", TransferFailureError)),
    ])
    def test_failed_issend_raises(self, call, outcome):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.issend("big", dest=1, count=100_000_000,
                                  datatype=MPI_BYTE)
                mpi.compute(2e9)           # the transfer fails meanwhile
                if call == "waitany":
                    results["outcome"] = _outcome(lambda: comm.waitany([req]))
                else:
                    results["outcome"] = _outcome(
                        lambda: getattr(comm, call)(req))
            elif comm.rank == 1:
                comm.recv(source=0)
            else:
                mpi.compute(0.1e9)         # mid-transfer: take rank 1 down
                mpi.world.engine.host(mpi.world.rank_hosts[1]).turn_off()

        run_world(3, program)
        assert results["outcome"] == outcome

    @pytest.mark.parametrize("call", ["wait", "waitany"])
    def test_send_timeout_keeps_the_posted_receive(self, call):
        """A timed-out wait on a send leaves a receive posted by an earlier
        ``test`` alone, even while a message is transferring into it."""
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.irecv(source=1)
                assert not comm.test(req)  # posts the shared receive
                sreq = comm.issend("s", dest=2, count=1000, datatype=MPI_BYTE)
                if call == "waitany":
                    op = lambda: comm.waitany([sreq], timeout=0.5)
                else:
                    op = lambda: comm.wait(sreq, 0.5)
                results["send"] = _outcome(op), mpi.wtime()
                results["value"] = comm.wait(req)
                results["at"] = mpi.wtime()
            elif comm.rank == 1:
                comm.send("big", dest=0, count=200_000_000, datatype=MPI_BYTE)

        run_world(3, program)
        assert results["send"] == (("raised", SimTimeoutError), 0.5)
        assert results["value"] == "big"
        assert results["at"].hex() == "0x1.99c0ebedfa440p+0"

    @pytest.mark.parametrize("call", ["send", "issend", "recv", "irecv"])
    def test_out_of_range_rank_raises_at_the_call(self, call):
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                if call in ("send", "issend"):
                    op = lambda: getattr(comm, call)(1, dest=99)
                else:
                    op = lambda: getattr(comm, call)(source=99)
                results["outcome"] = _outcome(op)

        run_world(2, program)
        assert results["outcome"] == ("raised", MpiError)


def _symmetric_issend_exchange(complete):
    """Two ranks on a star each post ``issend`` + ``irecv`` to the other,
    then finish both requests with ``complete(comm, requests)``.

    Returns what each rank's ``complete`` returned and the final date.
    """
    results = {}

    def program(mpi):
        comm = mpi.COMM_WORLD
        peer = 1 - comm.rank
        requests = [comm.issend(f"from {comm.rank}", dest=peer, tag=7),
                    comm.irecv(source=peer, tag=7)]
        results[comm.rank] = complete(comm, requests)

    _, end = run_world(2, program, platform=make_star(2))
    return results, end


def _by_waitany(comm, requests):
    for _ in requests:
        comm.waitany(requests)
    return [request.value for request in requests]


class TestWaitall:
    """``MPI_Waitall`` progresses every request at once.  Waiting on each
    request in turn deadlocks the symmetric synchronous exchange: each
    rank's ``issend`` waits for a receive its peer never posts."""

    def test_symmetric_issend_exchange_completes_like_waitany(self):
        results, end = _symmetric_issend_exchange(
            lambda comm, requests: comm.waitall(requests))
        twin, twin_end = _symmetric_issend_exchange(_by_waitany)
        assert results == twin == {0: [None, "from 1"], 1: [None, "from 0"]}
        assert end.hex() == twin_end.hex() == "0x1.47be2fa60aec2p-8"

    def test_waitall_skips_and_reaps_requests(self):
        """After ``waitany`` reaped one request, ``waitall`` completes the
        other, and a later ``waitany`` finds every request reaped."""
        outcomes = {}

        def complete(comm, requests):
            comm.waitany(requests)
            values = comm.waitall(requests)
            outcomes[comm.rank] = _outcome(lambda: comm.waitany(requests))
            return values

        values, _ = _symmetric_issend_exchange(complete)
        assert values == {0: [None, "from 1"], 1: [None, "from 0"]}
        assert outcomes == {0: ("raised", MpiError), 1: ("raised", MpiError)}


class TestBenchAndHeterogeneity:
    def test_bench_once_skips_the_block(self):
        """In simulation the block never runs; each pass charges the
        world's record: 5 x 0.5 s on a 1 Gflop/s host."""
        counts = {"ran": 0}

        def program(mpi):
            for _ in range(5):
                with mpi.sampler.bench_once("kernel") as should_run:
                    if should_run:
                        counts["ran"] += 1

        world = SmpiWorld(make_cluster(num_hosts=1), num_ranks=1)
        world.bench_record["kernel"] = 0.5
        assert world.run(program).hex() == (2.5).hex()
        assert counts["ran"] == 0

    def test_compute_charges_simulated_time(self):
        times = {}

        def program(mpi):
            mpi.compute(3e9)
            times["t"] = mpi.wtime()

        run_world(1, program)          # cluster hosts run at 1 Gflop/s
        assert times["t"].hex() == "0x1.8000000000000p+1"

    def test_compute_rejects_a_bad_amount(self):
        """A negative or NaN amount raises like ``Actor.execute``; zero
        costs nothing."""
        outcomes = []

        def program(mpi):
            mpi.compute(0)
            for flops in (-1e9, float("nan")):
                outcomes.append(_outcome(lambda: mpi.compute(flops)))
            outcomes.append(mpi.wtime())

        run_world(1, program)
        assert outcomes == [("raised", ValueError), ("raised", ValueError),
                            0.0]

    def test_heterogeneous_platform_slower_than_cluster(self):
        def program(mpi):
            comm = mpi.COMM_WORLD
            data = np.zeros(1_000_000, dtype="u1")
            for _ in range(3):
                comm.bcast(data if comm.rank == 0 else None, root=0)

        _, lan_time = run_world(4, program)
        _, wan_time = run_world(
            4, program,
            platform=make_two_site_grid(hosts_per_site=2,
                                        wan_bandwidth=1.25e6,
                                        wan_latency=50e-3))
        assert wan_time > lan_time

    def test_world_validation(self):
        with pytest.raises(MpiError):
            SmpiWorld(make_cluster(num_hosts=2), num_ranks=0)

    def test_more_ranks_than_hosts_round_robin(self):
        placements = {}

        def program(mpi):
            placements[mpi.rank] = mpi.host_name

        run_world(4, program, platform=make_cluster(num_hosts=2))
        assert placements[0] == placements[2]
        assert placements[1] == placements[3]
        assert placements[0] != placements[1]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=1000))
def test_property_allreduce_sum_is_rank_independent(num_ranks, offset):
    """allreduce(SUM) returns the same total on every rank."""
    results = []

    def program(mpi):
        comm = mpi.COMM_WORLD
        total = comm.allreduce(comm.rank + offset, op=SUM)
        results.append(total)

    world = SmpiWorld(make_cluster(num_hosts=num_ranks), num_ranks=num_ranks)
    world.run(program)
    expected = sum(range(num_ranks)) + offset * num_ranks
    assert results == [expected] * num_ranks


class TestOneSmpiProgressPath:
    """Structural guard: every SMPI request makes progress through
    ``Communicator._progress``.  A second copy of the post / block /
    withdraw logic is how the deadline, failure and lazy-post semantics
    drift apart again, so it must fail here."""

    ACTIVITY_CALLS = {"wait", "wait_any", "test", "cancel", "get_async"}

    def test_only_progress_drives_activities(self):
        import ast
        import pathlib

        from repro.smpi import comm as module

        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        callers = set()
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.ClassDef, ast.Module)):
                continue
            prefix = f"{scope.name}." if isinstance(scope, ast.ClassDef) else ""
            for function in scope.body:
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    # calls on ``self`` are the communicator's own API
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in self.ACTIVITY_CALLS
                            and not (isinstance(node.func.value, ast.Name)
                                     and node.func.value.id == "self")):
                        callers.add(prefix + function.name)
        assert callers == {"Communicator._progress"}
