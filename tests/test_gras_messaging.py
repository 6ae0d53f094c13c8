"""Tests for GRAS messaging: simulation backend, real-life backend, bench."""

import socket
import struct
import threading

import pytest

from repro.exceptions import SimTimeoutError, UnknownMessageError
from repro.gras import RlWorld, SimWorld
from repro.gras.bench import BenchRecorder
from repro.gras.message import MessageRegistry
from repro.gras.datadesc import datadesc_by_name
from repro.platform import make_star


def star(bandwidth=12.5e6, latency=5e-4):
    return make_star(num_hosts=2, link_bandwidth=bandwidth,
                     link_latency=latency)


class TestMessageRegistry:
    def test_declare_and_lookup(self):
        registry = MessageRegistry()
        registry.declare("ping", "int")
        assert registry.by_name("ping").payload_desc is datadesc_by_name("int")

    def test_undeclared_type_rejected(self):
        registry = MessageRegistry()
        with pytest.raises(UnknownMessageError):
            registry.by_name("nope")

    def test_callback_registration_requires_declared_type(self):
        registry = MessageRegistry()
        with pytest.raises(UnknownMessageError):
            registry.register_callback("nope", lambda *a: None)
        registry.declare("ok")
        registry.register_callback("ok", lambda *a: None)
        assert registry.callback_for("ok") is not None


class TestSimulationMode:
    def test_ping_pong_with_msg_wait(self):
        world = SimWorld(star())
        log = {}

        def server(proc):
            proc.msgtype_declare("ping", "int")
            proc.msgtype_declare("pong", "int")
            proc.socket_server(4000)
            source, payload = proc.msg_wait(60.0, "ping")
            proc.msg_send(proc.socket_client(source.host, source.port),
                          "pong", payload * 2)

        def client(proc):
            proc.msgtype_declare("ping", "int")
            proc.msgtype_declare("pong", "int")
            proc.socket_server(4001)
            proc.os_sleep(0.5)
            proc.msg_send(proc.socket_client("leaf-1", 4000), "ping", 21)
            _, answer = proc.msg_wait(60.0, "pong")
            log["answer"] = answer
            log["time"] = proc.os_time()

        world.add_process("server", "leaf-1", server)
        world.add_process("client", "leaf-0", client)
        world.run()
        assert log["answer"] == 42
        assert log["time"] > 0.5

    def test_callback_dispatch_with_msg_handle(self):
        world = SimWorld(star())
        handled = []

        def server(proc):
            proc.msgtype_declare("ping", "int")

            def on_ping(p, source, payload):
                handled.append(payload)

            proc.cb_register("ping", on_ping)
            proc.socket_server(4000)
            assert proc.msg_handle(60.0)

        def client(proc):
            proc.msgtype_declare("ping", "int")
            proc.socket_server(4001)
            proc.msg_send(proc.socket_client("leaf-1", 4000), "ping", 7)

        world.add_process("server", "leaf-1", server)
        world.add_process("client", "leaf-0", client)
        world.run()
        assert handled == [7]

    def test_msg_handle_without_callback_raises(self):
        world = SimWorld(star())
        errors = []

        def server(proc):
            proc.msgtype_declare("mystery", "int")
            proc.socket_server(4000)
            try:
                proc.msg_handle(60.0)
            except UnknownMessageError:
                errors.append("unknown")

        def client(proc):
            proc.msgtype_declare("mystery", "int")
            proc.socket_server(4001)
            proc.msg_send(proc.socket_client("leaf-1", 4000), "mystery", 1)

        world.add_process("server", "leaf-1", server)
        world.add_process("client", "leaf-0", client)
        world.run()
        assert errors == ["unknown"]

    def test_msg_wait_buffers_unexpected_types(self):
        world = SimWorld(star())
        order = []

        def server(proc):
            proc.msgtype_declare("a", "int")
            proc.msgtype_declare("b", "int")
            proc.socket_server(4000)
            # wait for "b" first even though "a" arrives first
            _, b_val = proc.msg_wait(60.0, "b")
            order.append(("b", b_val))
            _, a_val = proc.msg_wait(60.0, "a")
            order.append(("a", a_val))

        def client(proc):
            proc.msgtype_declare("a", "int")
            proc.msgtype_declare("b", "int")
            proc.socket_server(4001)
            peer = proc.socket_client("leaf-1", 4000)
            proc.msg_send(peer, "a", 1)
            proc.msg_send(peer, "b", 2)

        world.add_process("server", "leaf-1", server)
        world.add_process("client", "leaf-0", client)
        world.run()
        assert order == [("b", 2), ("a", 1)]

    def test_msg_wait_timeout(self):
        world = SimWorld(star())
        outcome = {}

        def lonely(proc):
            proc.msgtype_declare("ping", "int")
            proc.socket_server(4000)
            try:
                proc.msg_wait(3.0, "ping")
            except SimTimeoutError:
                outcome["timeout_at"] = proc.os_time()

        world.add_process("lonely", "leaf-0", lonely)
        world.run()
        assert outcome["timeout_at"] == pytest.approx(3.0, abs=1e-6)

    def test_msg_handle_timeout_returns_false(self):
        world = SimWorld(star())
        outcome = {}

        def lonely(proc):
            proc.msgtype_declare("ping", "int")
            proc.cb_register("ping", lambda *a: None)
            proc.socket_server(4000)
            outcome["handled"] = proc.msg_handle(2.0)

        world.add_process("lonely", "leaf-0", lonely)
        world.run()
        assert outcome["handled"] is False

    def test_cross_architecture_payload(self):
        world = SimWorld(star(), arch_by_host={"leaf-0": "x86",
                                               "leaf-1": "powerpc"})
        received = {}

        def server(proc):
            proc.msgtype_declare("numbers", "double")
            proc.socket_server(4000)
            _, value = proc.msg_wait(60.0, "numbers")
            received["value"] = value

        def client(proc):
            proc.msgtype_declare("numbers", "double")
            proc.socket_server(4001)
            proc.msg_send(proc.socket_client("leaf-1", 4000), "numbers",
                          2.718281828)

        world.add_process("server", "leaf-1", server)
        world.add_process("client", "leaf-0", client)
        world.run()
        assert received["value"] == pytest.approx(2.718281828)

    def test_bench_always_charges_the_recorded_duration(self):
        """The block runs, and the world's record (not a clock reading)
        is charged: 0.25 s on a 1 Gflop/s host, to the bit."""
        world = SimWorld(star())
        world.bench_record["spin"] = 0.25
        times = {}

        def worker(proc):
            start = proc.os_time()
            with proc.bench_always("spin"):
                times["ran"] = sum(range(50000))
            times["elapsed"] = proc.os_time() - start

        world.add_process("worker", "leaf-0", worker)
        world.run()
        assert times["ran"] == 1249975000
        assert times["elapsed"].hex() == (0.25).hex()

    def test_message_size_drives_transfer_time(self):
        """A bigger payload takes longer on the same (slow) link."""
        durations = {}
        for label, count in (("small", 10), ("large", 100000)):
            world = SimWorld(make_star(num_hosts=2, link_bandwidth=1e5,
                                       link_latency=1e-4))

            def server(proc):
                from repro.gras.datadesc import ArrayDesc, ScalarDesc
                proc.msgtype_declare("blob", ArrayDesc(ScalarDesc("uint8")))
                proc.socket_server(4000)
                proc.msg_wait(600.0, "blob")

            def client(proc, n):
                from repro.gras.datadesc import ArrayDesc, ScalarDesc
                proc.msgtype_declare("blob", ArrayDesc(ScalarDesc("uint8")))
                proc.socket_server(4001)
                proc.msg_send(proc.socket_client("leaf-1", 4000), "blob",
                              [0] * n)

            world.add_process("server", "leaf-1", server)
            world.add_process("client", "leaf-0", client, count)
            durations[label] = world.run()
        assert durations["large"] > durations["small"] * 10


class TestRealLifeMode:
    def test_real_ping_pong_over_localhost(self):
        world = RlWorld()
        log = {}

        def server(proc):
            proc.msgtype_declare("ping", "int")
            proc.msgtype_declare("pong", "int")
            proc.socket_server(4310)
            source, payload = proc.msg_wait(10.0, "ping")
            proc.msg_send(proc.socket_client(source.host, source.port),
                          "pong", payload + 1)

        def client(proc):
            proc.msgtype_declare("ping", "int")
            proc.msgtype_declare("pong", "int")
            proc.socket_server(0)
            proc.os_sleep(0.2)
            proc.msg_send(proc.socket_client("127.0.0.1", 4310), "ping", 41)
            _, answer = proc.msg_wait(10.0, "pong")
            log["answer"] = answer

        world.add_process("server", server)
        world.add_process("client", client)
        world.run(timeout=20.0)
        assert log["answer"] == 42

    def test_bench_blocks_run_for_real_without_a_record(self):
        """In real life both macros run the block and charge nothing."""
        world = RlWorld()
        ran = []

        def worker(proc):
            with proc.bench_once("kernel") as run_for_real:
                if run_for_real:
                    ran.append("once")
            with proc.bench_always("kernel"):
                ran.append("always")

        world.add_process("worker", worker)
        world.run(timeout=10.0)
        assert ran == ["once", "always"]

    def test_real_cross_architecture_encoding(self):
        """Payloads encoded with a big-endian layout decode correctly."""
        world = RlWorld()
        received = {}

        def server(proc):
            proc.msgtype_declare("value", "int")
            proc.socket_server(4311)
            _, value = proc.msg_wait(10.0, "value")
            received["value"] = value

        def client(proc):
            proc.msgtype_declare("value", "int")
            proc.socket_server(0)
            proc.os_sleep(0.2)
            proc.msg_send(proc.socket_client("127.0.0.1", 4311), "value",
                          123456789)

        world.add_process("server", server, arch="x86")
        world.add_process("client", client, arch="sparc")
        world.run(timeout=20.0)
        assert received["value"] == 123456789

    @staticmethod
    def _send_raw_then_ping(port, arch, payload):
        """A client that sends one hand-made ``ping`` frame claiming
        architecture ``arch`` (bytes), then a well-formed ``ping`` of 8."""
        def client(proc):
            proc.msgtype_declare("ping", "int")
            proc.socket_server(0)
            proc.os_sleep(0.2)
            frame = struct.pack("!4sH I H I", b"GRAS", len(arch), 0, 4,
                                len(payload)) + arch + b"ping" + payload
            with socket.create_connection(("127.0.0.1", port)) as conn:
                conn.sendall(frame)
            proc.msg_send(proc.socket_client("127.0.0.1", port), "ping", 8)
        return client

    def _receive_pings(self, port, arch, payload):
        received = []

        def server(proc):
            proc.msgtype_declare("ping", "int")
            proc.socket_server(port)
            received.append(proc.msg_wait(5.0, "ping")[1])
            with pytest.raises(SimTimeoutError):
                proc.msg_wait(0.3, "ping")

        world = RlWorld()
        world.add_process("server", server)
        world.add_process("client", self._send_raw_then_ping(port, arch,
                                                             payload))
        world.run(timeout=20.0)
        return received

    def test_malformed_frame_is_dropped_and_the_next_one_delivered(self):
        """Architecture bytes that are not ASCII once killed the accept
        thread: every later message was lost."""
        assert self._receive_pings(4313, b"\xff\xfe", b"") == [8]

    def test_frame_from_unknown_architecture_is_dropped(self):
        """It was decoded with the receiver's layout instead: a
        big-endian 7 from ``vax`` came out as 117440512."""
        assert self._receive_pings(4314, b"vax", (7).to_bytes(4, "big")) \
            == [8]

    def test_stalled_connection_is_dropped(self, monkeypatch):
        """A peer that sends half a header and then neither writes nor
        closes once held the accept loop until it closed."""
        from repro.gras import rl_backend
        monkeypatch.setattr(rl_backend, "_IO_TIMEOUT", 0.3)
        received = []
        done = threading.Event()

        def server(proc):
            proc.msgtype_declare("ping", "int")
            proc.socket_server(4315)
            received.append(proc.msg_wait(5.0, "ping")[1])
            done.set()

        def client(proc):
            proc.msgtype_declare("ping", "int")
            proc.socket_server(0)
            proc.os_sleep(0.2)
            with socket.create_connection(("127.0.0.1", 4315)) as conn:
                conn.sendall(b"GRA")
                proc.msg_send(proc.socket_client("127.0.0.1", 4315),
                              "ping", 8)
                done.wait(10.0)

        world = RlWorld()
        world.add_process("server", server)
        world.add_process("client", client)
        world.run(timeout=20.0)
        assert received == [8]

    def test_rl_errors_are_reported(self):
        world = RlWorld()

        def buggy(proc):
            raise ValueError("application bug")

        world.add_process("buggy", buggy)
        with pytest.raises(ValueError):
            world.run(timeout=10.0)


def _run_simulated(server, client):
    world = SimWorld(star())
    world.add_process("server", "leaf-1", server)
    world.add_process("client", "leaf-0", client, "leaf-1")
    world.run()


def _run_real(server, client):
    world = RlWorld()
    world.add_process("server", server)
    world.add_process("client", client, "127.0.0.1")
    world.run(timeout=20.0)


@pytest.mark.parametrize("run_pair", [_run_simulated, _run_real],
                         ids=["sim", "rl"])
def test_out_of_order_receive_on_both_backends(run_pair):
    """``msg_wait`` skips past an earlier message of another type, which
    stays buffered for ``msg_handle`` — the protocol half of GRAS is one
    code path, so both backends must agree."""
    order = []

    def server(proc):
        proc.msgtype_declare("a", "int")
        proc.msgtype_declare("b", "int")
        proc.cb_register("a", lambda p, source, value:
                         order.append(("a", value)))
        proc.socket_server(4312)
        _, b_val = proc.msg_wait(5.0, "b")
        order.append(("b", b_val))
        assert proc.msg_handle(5.0) is True

    def client(proc, server_host):
        proc.msgtype_declare("a", "int")
        proc.msgtype_declare("b", "int")
        proc.socket_server(0)
        proc.os_sleep(0.2)      # let the real server socket come up
        peer = proc.socket_client(server_host, 4312)
        proc.msg_send(peer, "a", 1)
        proc.msg_send(peer, "b", 2)

    run_pair(server, client)
    assert order == [("b", 2), ("a", 1)]


class TestBenchRecorder:
    def test_measure_records_the_duration_and_returns_the_result(self):
        record = BenchRecorder()
        assert record.measure("sum", sum, range(100000)) == 4999950000
        assert record["sum"] > 0.0

    def test_missing_key_is_named(self):
        with pytest.raises(KeyError, match="no benchmark recorded for "
                                           "'missing'"):
            BenchRecorder()["missing"]

    def test_negative_duration_fails_the_charge(self):
        world = SimWorld(star())
        world.bench_record["k"] = -1.0

        def worker(proc):
            with proc.bench_always("k"):
                pass

        world.add_process("worker", "leaf-0", worker)
        with pytest.raises(ValueError, match="flops must be finite"):
            world.run()
