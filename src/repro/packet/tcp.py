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
ACKs, like NS2's default ``Agent/TCP`` + ``Agent/TCPSink``).  The TCP
parameters are NS2-like module constants (``SEGMENT_SIZE`` ...
``DUPACK_THRESHOLD``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.packet.event_queue import EventQueue
from repro.packet.nic import PacketLink

__all__ = ["Packet", "TcpFlow"]

SEGMENT_SIZE = 1500.0       # bytes per data segment
ACK_SIZE = 40.0             # bytes per ACK
INITIAL_CWND = 2.0          # segments
INITIAL_SSTHRESH = 64.0     # segments
MAX_CWND = 10000.0          # segments (window clamp)
MIN_RTO = 0.2               # seconds
RTO_ALPHA = 0.125           # RTT EWMA weight (RFC 6298)
RTO_BETA = 0.25             # RTT variance EWMA weight
DUPACK_THRESHOLD = 3


class Packet:
    """A data segment or an ACK travelling along ``path``; ``hop`` is the
    index of the next link to cross."""

    __slots__ = ("flow", "seq", "size", "path", "is_ack", "ack_seq", "hop")

    def __init__(self, flow: "TcpFlow", seq: int, size: float,
                 path: Sequence[PacketLink], is_ack: bool = False,
                 ack_seq: int = 0) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size
        self.path = path
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.hop = 0


class TcpFlow:
    """One TCP Reno transfer of ``total_bytes`` along a fixed path."""

    def __init__(self, events: EventQueue,
                 forward_path: Sequence[PacketLink],
                 reverse_path: Sequence[PacketLink],
                 total_bytes: float) -> None:
        self.events = events
        self.forward_path = list(forward_path)
        self.reverse_path = list(reverse_path)
        self.total_segments = max(1, int(math.ceil(
            total_bytes / SEGMENT_SIZE)))
        self.total_bytes = total_bytes

        # sender state
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.next_seq = 0                 # next new segment to send
        self.highest_acked = -1           # last cumulatively acked segment
        self.dupacks = 0
        self.in_fast_recovery = False
        self.retransmit_seq: Optional[int] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.completed = False

        # receiver state: the first missing segment, and the segments
        # that arrived out of order above it
        self.received: set = set()
        self.next_expected = 0

        # RTT estimation / RTO
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0
        # Bumped at every (re)arm: a timer event that carries an older
        # stamp is stale and does nothing.
        self._rto_stamp = 0
        # Send dates of the segments not acked yet, read for RTT samples;
        # a segment sent with retransmission=True records none.
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
    def throughput(self) -> float:
        """Average transfer rate of a completed flow, in bytes/s."""
        return self.total_bytes / (self.finish_time - self.start_time)

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
        packet = Packet(self, seq, SEGMENT_SIZE, self.forward_path)
        if retransmission:
            self.retransmissions += 1
        elif seq > self.highest_acked:
            self._send_times[seq] = self.events.now
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """Send ``packet`` over the next hop of its path (every link
        calls this when a packet reaches its far end)."""
        if packet.hop >= len(packet.path):
            # reached the destination
            if packet.is_ack:
                self._on_ack(packet)
            else:
                self._on_data_arrival(packet)
            return
        link = packet.path[packet.hop]
        packet.hop += 1
        link.transmit(packet)

    # -- receiver side -------------------------------------------------------------------
    def _on_data_arrival(self, packet: Packet) -> None:
        if packet.seq >= self.next_expected:
            received = self.received
            received.add(packet.seq)
            while self.next_expected in received:
                received.remove(self.next_expected)
                self.next_expected += 1
        self.forward(Packet(self, packet.seq, ACK_SIZE, self.reverse_path,
                            is_ack=True, ack_seq=self.next_expected - 1))

    # -- sender side: ACK processing -------------------------------------------------------
    def _on_ack(self, ack: Packet) -> None:
        if self.completed:
            return
        acked = ack.ack_seq
        if acked > self.highest_acked:
            newly = acked - self.highest_acked
            send_times = self._send_times
            for seq in range(self.highest_acked + 1, acked):
                send_times.pop(seq, None)
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
            self.cwnd = min(self.cwnd, MAX_CWND)
            if self.highest_acked >= self.total_segments - 1:
                self._complete()
                return
            self._send_window()
        else:
            # duplicate ACK
            self.dupacks += 1
            if (self.dupacks == DUPACK_THRESHOLD
                    and not self.in_fast_recovery):
                # fast retransmit + fast recovery
                self.ssthresh = max(2.0, self.cwnd / 2.0)
                self.cwnd = self.ssthresh + DUPACK_THRESHOLD
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
            self.rttvar = ((1 - RTO_BETA) * self.rttvar
                           + RTO_BETA * abs(self.srtt - sample))
            self.srtt = (1 - RTO_ALPHA) * self.srtt + RTO_ALPHA * sample
        self.rto = max(MIN_RTO, self.srtt + 4 * self.rttvar)

    # -- timeouts ----------------------------------------------------------------------------
    def _arm_rto(self) -> None:
        self._rto_stamp += 1
        if self.completed or self.inflight <= 0:
            return
        self.events.schedule(self.rto, self._on_timeout, self._rto_stamp)

    def _on_timeout(self, stamp: int) -> None:
        if (stamp != self._rto_stamp or self.completed
                or self.inflight <= 0):
            return
        self.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = INITIAL_CWND
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
