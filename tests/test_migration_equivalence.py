"""Simulated-date equivalence pins for the MSG→s4u port of GRAS/SMPI/AMOK.

Every date below was captured by running the *same* scenario on the
pre-port implementation (GRAS/SMPI/AMOK going through the MSG compat shim,
commit `a318711`) and is asserted to the bit on the ported, s4u-native
implementation.  A change to any of these numbers means the port altered
the simulation semantics, not just the plumbing.

The file also covers the s4u primitives the port introduced
(``Comm.detach``, mailbox probe/peek, the SMPI ``Request``
wait/test/waitany machinery) and pins the workload that once
cross-checked the (since removed) MSG compatibility shim.
"""

import pytest

from repro import Engine
from repro.amok import BandwidthMeter, SaturationExperiment
from repro.exceptions import SimTimeoutError
from repro.gras import SimWorld
from repro.platform import make_cluster, make_dumbbell, make_star, \
    make_two_site_grid
from repro.smpi import ANY_SOURCE, MPI_BYTE, SmpiWorld

REL = 1e-9


# ---------------------------------------------------------------------------------
# GRAS: typed request/reply exchange through the sim backend
# ---------------------------------------------------------------------------------
class TestGrasDates:
    def test_request_reply_dates_match_pre_port(self):
        world = SimWorld(make_star(num_hosts=2, link_bandwidth=1.25e6,
                                   link_latency=1e-3))
        dates = {}

        def server(proc):
            proc.msgtype_declare("req", "int")
            proc.msgtype_declare("rep", "double")
            proc.socket_server(4000)
            for _ in range(3):
                src, payload = proc.msg_wait(60.0, "req")
                proc.msg_send(proc.socket_client(src.host, src.port), "rep",
                              float(payload) * 2.0)
            dates["server_done"] = proc.os_time()

        def client(proc):
            proc.msgtype_declare("req", "int")
            proc.msgtype_declare("rep", "double")
            proc.socket_server(4001)
            sock = proc.socket_client("leaf-0", 4000)
            for i in range(3):
                proc.msg_send(sock, "req", i + 1)
                _, value = proc.msg_wait(60.0, "rep")
                dates[f"reply_{i}"] = (proc.os_time(), value)

        world.add_process("server", "leaf-0", server)
        world.add_process("client", "leaf-1", client)
        final = world.run()

        assert dates["reply_0"][0].hex() == "0x1.0c1ef2338ea2dp-8"  # 0.0040912
        assert dates["reply_1"][0].hex() == "0x1.0c1ef2338ea2dp-7"  # 0.0081824
        assert dates["reply_2"][0].hex() == "0x1.922e6b4d55f44p-7"  # 0.0122736
        assert [dates[f"reply_{i}"][1] for i in range(3)] == [2.0, 4.0, 6.0]
        assert dates["server_done"].hex() == "0x1.922e6b4d55f44p-7"
        assert final.hex() == "0x1.922e6b4d55f44p-7"


# ---------------------------------------------------------------------------------
# SMPI: p2p + collectives on a cluster and across a WAN
# ---------------------------------------------------------------------------------
def _smpi_mixed_program(dates):
    import numpy as np

    def program(mpi):
        comm = mpi.COMM_WORLD
        data = np.zeros(500_000, dtype="u1")
        if comm.rank == 0:
            comm.send(data, dest=1, tag=3)
        elif comm.rank == 1:
            comm.recv(source=0, tag=3)
            dates["recv_done"] = mpi.wtime()
        comm.barrier()
        dates[f"barrier_{comm.rank}"] = mpi.wtime()
        total = comm.allreduce(comm.rank)
        value = comm.bcast(np.ones(100_000, dtype="u1") if comm.rank == 2
                           else None, root=2)
        gathered = comm.gather(comm.rank * 2, root=0)
        dates[f"done_{comm.rank}"] = (mpi.wtime(), total, len(value),
                                      gathered if comm.rank == 0 else None)

    return program


class TestSmpiDates:
    def test_cluster_dates_match_pre_port(self):
        dates = {}
        world = SmpiWorld(make_cluster(num_hosts=4), num_ranks=4)
        final = world.run(_smpi_mixed_program(dates))

        assert dates["recv_done"].hex() == "0x1.2d7844708386fp-8"  # 0.004600064
        assert dates["barrier_0"].hex() == "0x1.54cbabb1ec6e2p-8"  # 0.005200128
        assert dates["barrier_1"].hex() == "0x1.7c2025d413d7cp-8"  # 0.005800256
        assert dates["barrier_2"].hex() == "0x1.7c2025d413d7cp-8"  # 0.005800256
        assert dates["barrier_3"].hex() == "0x1.a3738d157cbefp-8"  # 0.00640032
        assert dates["done_0"][0].hex() == "0x1.82b0045057ed7p-7"  # 0.011800768
        assert dates["done_2"][0].hex() == "0x1.0cb76add3afb8p-7"  # 0.008200576
        assert dates["done_3"][0].hex() == "0x1.54cf6dc48736bp-7"  # 0.010400704
        # values, not just dates: allreduce total, bcast length, gather
        assert dates["done_0"][1:] == (6, 100000, [0, 2, 4, 6])
        assert final.hex() == "0x1.82b0045057ed7p-7"  # 0.011800768

    def test_wan_grid_dates_match_pre_port(self):
        dates = {}
        world = SmpiWorld(make_two_site_grid(hosts_per_site=2,
                                             wan_bandwidth=1.25e6,
                                             wan_latency=50e-3),
                          num_ranks=4)
        final = world.run(_smpi_mixed_program(dates))

        assert dates["recv_done"].hex() == "0x1.13404ea4a8c15p-8"  # 0.0042
        assert dates["barrier_0"].hex() == "0x1.9e9194d72be53p-5"  # 0.050606528
        assert dates["barrier_2"].hex() == "0x1.9cee044c6250bp-4"  # 0.100812928
        assert dates["done_0"][0].hex() == "0x1.bad1373fb247bp-2"  # 0.43243872
        assert dates["done_0"][1:] == (6, 100000, [0, 2, 4, 6])
        assert final.hex() == "0x1.bad1373fb247bp-2"  # 0.43243872

    def test_isend_irecv_dates_match_pre_port(self):
        """Eager isend completes at deposit; irecv is posted lazily at wait."""
        import numpy as np
        dates = {}
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.isend(np.zeros(2_000_000, dtype="u1"), dest=1,
                                 tag=1)
                comm.wait(req)
                dates["send_wait"] = mpi.wtime()
            else:
                req = comm.irecv(source=0, tag=1)
                mpi.compute(1e9)
                comm.wait(req)
                dates["recv_wait"] = mpi.wtime()

        final = world.run(program)
        assert dates["send_wait"] == 0.0       # eager: already deposited
        assert dates["recv_wait"].hex() == "0x1.043fe5c91d14ep+0"  # 1.0166
        assert final.hex() == "0x1.043fe5c91d14ep+0"  # 1.0166


# ---------------------------------------------------------------------------------
# AMOK: saturation interference + bandwidth meter
# ---------------------------------------------------------------------------------
class TestAmokDates:
    def test_saturation_bandwidths_match_pre_port(self):
        result = SaturationExperiment().run(
            lambda: make_dumbbell(num_left=2, num_right=2),
            measured_pair=("left-0", "right-0"),
            saturating_pair=("left-1", "right-1"))
        assert result.baseline_bandwidth == pytest.approx(12315270.93596059,
                                                          rel=REL)
        assert result.saturated_bandwidth == pytest.approx(6203473.945409429,
                                                           rel=REL)
        ratio = result.saturated_bandwidth / result.baseline_bandwidth
        assert ratio == pytest.approx(0.5037220843672456, rel=REL)

    def test_bandwidth_meter_matches_pre_port(self):
        world = SimWorld(make_star(num_hosts=2, link_bandwidth=1.25e6,
                                   link_latency=1e-3))
        meter = BandwidthMeter(payload_bytes=2_000_000)
        res = {}

        def source(proc):
            res["m"] = meter.measure(proc, "leaf-1", 6100, reply_port=6101)
            meter.stop_sink(proc, "leaf-1", 6100)

        def sink(proc):
            meter.sink(proc, 6100)

        world.add_process("sink", "leaf-1", sink)
        world.add_process("source", "leaf-0", source)
        final = world.run()

        measurement = res["m"]
        assert final.hex() == "0x1.9c3a9379c4e80p+0"  # 1.6102688
        assert measurement.latency.hex() == "0x1.0d2b61ad9a01ap-9"  # 0.0020536
        # 1249997.5000049998
        assert measurement.bandwidth.hex() == "0x1.312cd800053e2p+20"
        assert measurement.probe_rtt.hex() == "0x1.0d2b61ad9a01ap-8"  # 0.0041072
        # 1.6041104
        assert measurement.payload_duration.hex() == "0x1.9aa6faab2c692p+0"


# ---------------------------------------------------------------------------------
# The workload that once validated the MSG shim, pinned on s4u
# ---------------------------------------------------------------------------------
class TestPinnedShimWorkload:
    def test_ping_then_compute_final_time_is_pinned(self):
        """The shim-equivalence workload's date, pinned since the shim left."""
        engine = Engine(make_star(num_hosts=2))

        def sender(actor):
            yield actor.engine.mailbox("box").put("ping", size=1e6)

        def receiver(actor):
            yield actor.engine.mailbox("box").get()
            yield actor.execute(1e9)

        engine.add_actor("sender", "leaf-0", sender)
        engine.add_actor("receiver", "leaf-1", receiver)
        assert engine.run() == pytest.approx(1.09, abs=0, rel=0)


# ---------------------------------------------------------------------------------
# The s4u primitives the port introduced
# ---------------------------------------------------------------------------------
class TestPortPrimitives:
    def test_detached_put_lets_sender_die_before_delivery(self):
        engine = Engine(make_star(num_hosts=2))
        got = []

        def sender(actor):
            # do not wait: terminate immediately
            yield engine.mailbox("d").put_async("fire", size=1e6,
                                                detached=True)

        def receiver(actor):
            yield actor.sleep_for(0.5)
            got.append((yield engine.mailbox("d").get()))

        engine.add_actor("sender", "leaf-0", sender)
        engine.add_actor("receiver", "leaf-1", receiver)
        engine.run()
        assert got == ["fire"]

    def test_mailbox_listen_and_peek(self):
        engine = Engine(make_star(num_hosts=2))
        seen = {}

        def sender(actor):
            yield engine.mailbox("probe").put_async("hello", size=1.0,
                                                    detached=True)
            yield actor.sleep_for(1.0)

        def prober(actor):
            box = engine.mailbox("probe")
            seen["before"] = (box.listen(), box.pending_payloads())
            yield actor.sleep_for(0.1)
            seen["pending"] = (box.listen(), box.pending_payloads())
            seen["payload"] = yield box.get()
            seen["after"] = (box.listen(), box.pending_payloads())

        engine.add_actor("prober", "leaf-1", prober)
        engine.add_actor("sender", "leaf-0", sender)
        engine.run()
        assert seen["before"] == (False, [])
        assert seen["pending"] == (True, ["hello"])
        assert seen["payload"] == "hello"
        assert seen["after"] == (False, [])

    def test_smpi_request_test_and_waitany(self):
        world = SmpiWorld(make_cluster(num_hosts=3), num_ranks=3)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                comm.send("late", dest=2, tag=7, count=1_000_000,
                          datatype=MPI_BYTE)
            elif comm.rank == 1:
                comm.send("early", dest=2, tag=8, count=10,
                          datatype=MPI_BYTE)
            else:
                late = comm.irecv(source=0, tag=7)
                early = comm.irecv(source=1, tag=8)
                assert not comm.test(late)     # nothing arrived yet
                index, value = comm.waitany([late, early])
                results["first"] = (index, value)
                index, value = comm.waitany([late, early])
                results["second"] = (index, value)
                assert comm.test(late) and comm.test(early)

        world.run(program)
        # mailbox matching is rendezvous-FIFO: rank 0 deposited first, so
        # its 1 MB message is matched (and fully received) first even
        # though the tag-8 message is tiny — the pre-port behaviour.
        assert results["first"] == (0, "late")
        assert results["second"] == (1, "early")

    def test_smpi_waitany_mixed_send_and_recv(self):
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                send_req = comm.isend("payload", dest=1, tag=1)
                recv_req = comm.irecv(source=1, tag=2)
                index, _ = comm.waitany([send_req, recv_req])
                results["first_done"] = index   # eager send: already done
                _, value = comm.waitany([recv_req])
                results["echo"] = value
            else:
                value = comm.recv(source=0, tag=1)
                comm.send(value.upper(), dest=0, tag=2)

        world.run(program)
        assert results["first_done"] == 0
        assert results["echo"] == "PAYLOAD"

    def test_smpi_iprobe_and_unexpected_queue(self):
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                comm.send("x", dest=1, tag=4)
            else:
                # wait until the eager message is parked on the mailbox
                while not comm.iprobe(source=0, tag=4):
                    mpi.compute(1e6)
                results["probed"] = True
                assert not comm.iprobe(source=0, tag=99)
                results["value"] = comm.recv(source=0, tag=4)

        world.run(program)
        assert results == {"probed": True, "value": "x"}

    def test_smpi_issend_completes_at_reception(self):
        """Synchronous-mode send: the request is a live comm future."""
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.issend("sync", dest=1, tag=1, count=1_000_000,
                                  datatype=MPI_BYTE)
                assert not req.completed
                assert not comm.test(req)      # receiver sleeps first
                comm.wait(req)
                results["send_done_at"] = mpi.wtime()
            else:
                mpi.compute(1e9)               # 1 s before receiving
                comm.recv(source=0, tag=1)
                results["recv_done_at"] = mpi.wtime()

        world.run(program)
        # unlike eager isend, the issend completes only at reception time
        assert results["send_done_at"] > 1.0
        assert results["send_done_at"].hex() == \
            results["recv_done_at"].hex() == "0x1.02339c0ebedfap+0"

    def test_smpi_waitany_races_a_live_issend(self):
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                send_req = comm.issend("ping", dest=1, tag=1)
                recv_req = comm.irecv(source=1, tag=2)
                first, _ = comm.waitany([send_req, recv_req])
                second, value = comm.waitany([send_req, recv_req])
                results["order"] = (first, second, value)
            else:
                value = comm.recv(source=0, tag=1)
                mpi.compute(1e9)
                comm.send(value.upper(), dest=0, tag=2)

        world.run(program)
        # the issend finishes at reception (fast); the echo lands 1 s later
        assert results["order"] == (0, 1, "PING")

    def test_smpi_iprobe_sees_message_behind_nonmatching_head(self):
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
            else:
                while not comm.iprobe(source=0, tag=2):
                    mpi.compute(1e6)
                # tag-2 sits behind tag-1 on the mailbox, yet is visible
                results["probe_tag2"] = True
                results["v2"] = comm.recv(source=0, tag=2)
                results["v1"] = comm.recv(source=0, tag=1)

        world.run(program)
        assert results == {"probe_tag2": True, "v2": "second", "v1": "first"}

    def test_smpi_iprobe_sees_message_captured_by_inflight_receive(self):
        """A message harvested by test()'s posted receive stays probeable."""
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=9)
                comm.test(req)                 # posts the shared receive
                comm.send("go", dest=1, tag=0)
                while not comm.iprobe(source=1, tag=9):
                    mpi.compute(1e6)
                results["probed"] = True
                assert comm.test(req)
                results["value"] = req.value
            else:
                comm.recv(source=0, tag=0)
                comm.send("seen", dest=0, tag=9)

        world.run(program)
        assert results == {"probed": True, "value": "seen"}

    def test_smpi_waitany_timeout_withdraws_posted_receive(self):
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=5)
                with pytest.raises(SimTimeoutError):
                    comm.waitany([req], timeout=0.25)
                results["timed_out_at"] = mpi.wtime()
                # the withdrawn receive must not steal rank 1's message
                # before the next progress call: sleep past the send date,
                # then receive explicitly
                mpi.compute(2e9)
                results["value"] = comm.wait(req)
                results["recv_done_at"] = mpi.wtime()
            else:
                mpi.compute(1e9)
                comm.send("late", dest=0, tag=5)

        world.run(program)
        assert results["timed_out_at"].hex() == "0x1.0000000000000p-2"
        assert results["value"] == "late"
        # lazy-post contract: the transfer starts at rank 0's wait (t=2.25),
        # not at rank 1's send (t=1)
        assert results["recv_done_at"] > 2.25

    def test_smpi_recv_timeout_withdraws_posted_receive(self):
        world = SmpiWorld(make_cluster(num_hosts=2), num_ranks=2)
        results = {}

        def program(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                with pytest.raises(SimTimeoutError):
                    comm.recv(source=ANY_SOURCE, timeout=0.5)
                results["timed_out_at"] = mpi.wtime()
                # a later send/recv pair still works: no stale receive
                # lingers on the mailbox
                comm.send("go", dest=1, tag=0)
            else:
                mpi.compute(1e9)   # 1 s: longer than rank 0's patience
                results["value"] = comm.recv(source=0, tag=0)

        world.run(program)
        assert results["timed_out_at"].hex() == "0x1.0000000000000p-1"
        assert results["value"] == "go"
