"""TCP Reno flows for the packet-level simulator.

Implements the congestion-control behaviour that makes packet-level
simulators (NS2, GTNetS) share bandwidth the way real TCP does:

* **slow start**: the congestion window doubles every RTT until it reaches
  the slow-start threshold;
* **congestion avoidance**: the window then grows by one segment per RTT;
* **fast retransmit / fast recovery**: three duplicate ACKs trigger a
  retransmission and halve the window;
* **retransmission timeout**: silence for an RTO collapses the window to
  one segment and re-enters slow start.

The receiver sends one cumulative ACK per received segment (no delayed
ACKs, like NS2's default ``Agent/TCP`` + ``Agent/TCPSink``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.packet.event_queue import EventQueue, ScheduledEvent
from repro.packet.nic import PacketLink

__all__ = ["Packet", "TcpConfig", "TcpFlow"]


class Packet:
    """A data segment or an ACK travelling through the network."""

    __slots__ = ("flow", "seq", "size", "is_ack", "ack_seq",
                 "pending_delivery", "path", "hop")

    def __init__(self, flow: "TcpFlow", seq: int, size: float,
                 is_ack: bool = False, ack_seq: int = 0) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.pending_delivery: Optional[Callable[["Packet"], None]] = None
        self.path: Sequence[PacketLink] = ()
        self.hop = 0


@dataclass
class TcpConfig:
    """Tunable TCP parameters (NS2-like defaults)."""

    segment_size: float = 1500.0        # bytes per data segment
    ack_size: float = 40.0              # bytes per ACK
    initial_cwnd: float = 2.0           # segments
    initial_ssthresh: float = 64.0      # segments
    max_cwnd: float = 10000.0           # segments (window clamp)
    min_rto: float = 0.2                # seconds
    rto_alpha: float = 0.125            # RTT EWMA weight (RFC 6298)
    rto_beta: float = 0.25              # RTT variance EWMA weight
    dupack_threshold: int = 3

    def __post_init__(self) -> None:
        if self.segment_size <= 0:
            raise ValueError("segment_size must be > 0")
        if self.initial_cwnd < 1:
            raise ValueError("initial_cwnd must be >= 1")


class TcpFlow:
    """One TCP Reno transfer of ``total_bytes`` along a fixed path."""

    def __init__(self, flow_id: int, events: EventQueue,
                 forward_path: Sequence[PacketLink],
                 reverse_path: Sequence[PacketLink],
                 total_bytes: float,
                 config: Optional[TcpConfig] = None,
                 on_complete: Optional[Callable[["TcpFlow"], None]] = None
                 ) -> None:
        self.id = flow_id
        self.events = events
        self.forward_path = list(forward_path)
        self.reverse_path = list(reverse_path)
        self.config = config or TcpConfig()
        self.total_segments = max(1, int(math.ceil(
            total_bytes / self.config.segment_size)))
        self.total_bytes = total_bytes
        self.on_complete = on_complete

        # sender state
        self.cwnd = float(self.config.initial_cwnd)
        self.ssthresh = float(self.config.initial_ssthresh)
        self.next_seq = 0                 # next new segment to send
        self.highest_acked = -1           # last cumulatively acked segment
        self.dupacks = 0
        self.in_fast_recovery = False
        self.retransmit_seq: Optional[int] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.completed = False

        # receiver state
        self.received: set = set()
        self.next_expected = 0

        # RTT estimation / RTO
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0
        self._rto_event: Optional[ScheduledEvent] = None
        self._send_times: Dict[int, float] = {}

        # statistics
        self.retransmissions = 0
        self.timeouts = 0

    # -- public ------------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting."""
        self.start_time = self.events.now
        self._send_window()

    @property
    def inflight(self) -> int:
        return self.next_seq - (self.highest_acked + 1)

    # -- sending -----------------------------------------------------------------------
    def _send_window(self) -> None:
        while (not self.completed
               and self.next_seq < self.total_segments
               and self.inflight < int(self.cwnd)):
            self._send_segment(self.next_seq)
            self.next_seq += 1
        self._arm_rto()

    def _send_segment(self, seq: int, retransmission: bool = False) -> None:
        packet = Packet(self, seq, self.config.segment_size)
        packet.path = self.forward_path
        packet.hop = 0
        if retransmission:
            self.retransmissions += 1
        else:
            self._send_times[seq] = self.events.now
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        """Send ``packet`` over the next hop of its path."""
        if packet.hop >= len(packet.path):
            # reached the destination
            if packet.is_ack:
                self._on_ack(packet)
            else:
                self._on_data_arrival(packet)
            return
        link = packet.path[packet.hop]
        packet.hop += 1
        link.transmit(packet, self._forward)

    # -- receiver side -------------------------------------------------------------------
    def _on_data_arrival(self, packet: Packet) -> None:
        self.received.add(packet.seq)
        while self.next_expected in self.received:
            self.next_expected += 1
        ack = Packet(self, packet.seq, self.config.ack_size, is_ack=True,
                     ack_seq=self.next_expected - 1)
        ack.path = self.reverse_path
        ack.hop = 0
        self._forward(ack)

    # -- sender side: ACK processing -------------------------------------------------------
    def _on_ack(self, ack: Packet) -> None:
        if self.completed:
            return
        acked = ack.ack_seq
        if acked > self.highest_acked:
            newly = acked - self.highest_acked
            self.highest_acked = acked
            self.dupacks = 0
            self._update_rtt(acked)
            if self.in_fast_recovery:
                self.cwnd = self.ssthresh
                self.in_fast_recovery = False
            else:
                for _ in range(newly):
                    if self.cwnd < self.ssthresh:
                        self.cwnd += 1.0                       # slow start
                    else:
                        self.cwnd += 1.0 / max(1.0, self.cwnd)  # cong. avoid
            self.cwnd = min(self.cwnd, self.config.max_cwnd)
            if self.highest_acked >= self.total_segments - 1:
                self._complete()
                return
            self._send_window()
        else:
            # duplicate ACK
            self.dupacks += 1
            if (self.dupacks == self.config.dupack_threshold
                    and not self.in_fast_recovery):
                # fast retransmit + fast recovery
                self.ssthresh = max(2.0, self.cwnd / 2.0)
                self.cwnd = self.ssthresh + self.config.dupack_threshold
                self.in_fast_recovery = True
                self._send_segment(self.highest_acked + 1, retransmission=True)
            elif self.in_fast_recovery:
                self.cwnd += 1.0
                self._send_window()

    def _update_rtt(self, acked_seq: int) -> None:
        sent_at = self._send_times.pop(acked_seq, None)
        if sent_at is None:
            return
        sample = self.events.now - sent_at
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            alpha, beta = self.config.rto_alpha, self.config.rto_beta
            self.rttvar = (1 - beta) * self.rttvar + beta * abs(self.srtt - sample)
            self.srtt = (1 - alpha) * self.srtt + alpha * sample
        self.rto = max(self.config.min_rto, self.srtt + 4 * self.rttvar)

    # -- timeouts ----------------------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self.completed or self.inflight <= 0:
            self._rto_event = None
            return
        self._rto_event = self.events.schedule(self.rto, self._on_timeout)

    def _on_timeout(self) -> None:
        if self.completed or self.inflight <= 0:
            return
        self.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = float(self.config.initial_cwnd)
        self.in_fast_recovery = False
        self.dupacks = 0
        self.rto = min(60.0, self.rto * 2.0)  # exponential backoff
        # Go-back-N from the first unacked segment.
        self.next_seq = self.highest_acked + 1
        self._send_segment(self.next_seq, retransmission=True)
        self.next_seq += 1
        self._arm_rto()

    # -- completion ---------------------------------------------------------------------------
    def _complete(self) -> None:
        self.completed = True
        self.finish_time = self.events.now
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self.on_complete is not None:
            self.on_complete(self)
