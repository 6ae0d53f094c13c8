"""Active bandwidth and latency measurement between GRAS processes.

The classic AMOK bandwidth module: a *source* process sends a small probe
(latency estimate) and then a large message (bandwidth estimate) to a
*sink* process that echoes acknowledgements.  Because it is written against
the GRAS API it runs both in simulation and in real-life mode; in
simulation the measured values converge to the platform description, which
tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gras.datadesc import ArrayDesc, ScalarDesc
from repro.gras.process import GrasProcess

__all__ = ["BandwidthMeter", "MeasurementResult"]

#: Message types used by the bandwidth meter protocol.
MSG_PROBE = "amok:bw:probe"
MSG_PROBE_ACK = "amok:bw:probe-ack"
MSG_PAYLOAD = "amok:bw:payload"
MSG_PAYLOAD_ACK = "amok:bw:payload-ack"
MSG_QUIT = "amok:bw:quit"

#: Bytes of the latency probe.
PROBE_BYTES = 64
#: Seconds either side waits for a message before giving up.
TIMEOUT = 120.0


@dataclass
class MeasurementResult:
    """One bandwidth/latency measurement between two endpoints."""

    peer: str
    latency: float            # seconds (one-way estimate: RTT / 2)
    bandwidth: float          # bytes per second
    probe_rtt: float
    payload_bytes: float
    payload_duration: float


def _declare_messages(proc: GrasProcess) -> None:
    proc.msgtype_declare(MSG_PROBE, "int")
    proc.msgtype_declare(MSG_PROBE_ACK, "int")
    # the payload message carries a byte array of configurable size
    proc.msgtype_declare(MSG_PAYLOAD, ArrayDesc(ScalarDesc("uint8")))
    proc.msgtype_declare(MSG_PAYLOAD_ACK, "int")
    proc.msgtype_declare(MSG_QUIT, "int")


class BandwidthMeter:
    """The two halves of the AMOK bandwidth measurement protocol."""

    def __init__(self, payload_bytes: int) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be > 0")
        self.payload_bytes = payload_bytes

    # -- sink side ------------------------------------------------------------------------
    def sink(self, proc: GrasProcess, port: int) -> None:
        """Run the echo side: acknowledge probes and payloads until QUIT."""
        _declare_messages(proc)
        proc.socket_server(port)
        # One dispatch table serves probes, payloads and quit messages for
        # the whole lifetime of the sink.
        done = {"quit": False}

        def on_probe(p, source, payload):
            p.msg_send(p.socket_client(source.host, source.port),
                       MSG_PROBE_ACK, payload)

        def on_payload(p, source, payload):
            p.msg_send(p.socket_client(source.host, source.port),
                       MSG_PAYLOAD_ACK, len(payload) if payload else 0)

        def on_quit(p, source, payload):
            done["quit"] = True

        proc.cb_register(MSG_PROBE, on_probe)
        proc.cb_register(MSG_PAYLOAD, on_payload)
        proc.cb_register(MSG_QUIT, on_quit)
        while not done["quit"]:
            if not proc.msg_handle(TIMEOUT):
                return

    # -- source side -----------------------------------------------------------------------
    def measure(self, proc: GrasProcess, peer_host: str, port: int,
                reply_port: int) -> MeasurementResult:
        """Measure latency and bandwidth towards ``peer_host:port``."""
        _declare_messages(proc)
        proc.socket_server(reply_port)
        peer = proc.socket_client(peer_host, port)

        # latency: RTT of a tiny probe
        t0 = proc.os_time()
        proc.msg_send(peer, MSG_PROBE, PROBE_BYTES)
        proc.msg_wait(TIMEOUT, MSG_PROBE_ACK)
        probe_rtt = proc.os_time() - t0

        # bandwidth: one large payload, acknowledged
        payload = [0] * self.payload_bytes
        t1 = proc.os_time()
        proc.msg_send(peer, MSG_PAYLOAD, payload)
        proc.msg_wait(TIMEOUT, MSG_PAYLOAD_ACK)
        duration = proc.os_time() - t1

        # subtract the round-trip latency contribution, then one-way time
        transfer_time = max(duration - probe_rtt, 1e-9)
        bandwidth = self.payload_bytes / transfer_time
        return MeasurementResult(
            peer=f"{peer_host}:{port}",
            latency=probe_rtt / 2.0,
            bandwidth=bandwidth,
            probe_rtt=probe_rtt,
            payload_bytes=float(self.payload_bytes),
            payload_duration=duration,
        )

    def stop_sink(self, proc: GrasProcess, peer_host: str, port: int) -> None:
        """Tell a sink to terminate."""
        _declare_messages(proc)
        proc.msg_send(proc.socket_client(peer_host, port), MSG_QUIT, 0)
