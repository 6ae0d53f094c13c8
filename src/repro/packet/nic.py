"""Packet-level links: drop-tail queues, serialisation and propagation.

Each :class:`PacketLink` is unidirectional (the simulator creates one per
direction from each platform link) and models the three classic components
of packet forwarding:

* a finite FIFO **drop-tail queue** — packets arriving when the queue is
  full are dropped (this is what creates TCP losses and therefore the
  congestion signal);
* **serialisation**: a packet of ``size`` bytes occupies the transmitter
  for ``size / bandwidth`` seconds;
* **propagation**: after serialisation the packet takes ``latency`` seconds
  to reach the other end, where its flow's ``forward`` method takes it on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, TYPE_CHECKING

from repro.packet.event_queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packet.tcp import Packet

__all__ = ["PacketLink"]

#: Packets a link's drop-tail queue holds besides the one on the wire.
QUEUE_CAPACITY = 100


class PacketLink:
    """One unidirectional link of the packet-level network."""

    def __init__(self, name: str, bandwidth: float, latency: float,
                 events: EventQueue) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self.events = events
        #: Packets waiting for the transmitter (at most QUEUE_CAPACITY).
        self.queue: Deque["Packet"] = deque()
        self.dropped = 0
        self.busy = False
        self.bytes_sent = 0.0
        self.packets_sent = 0

    def transmit(self, packet: "Packet") -> None:
        """Hand ``packet`` to this link; a full queue drops it silently."""
        if not self.busy:
            self._start_transmission(packet)
        elif len(self.queue) < QUEUE_CAPACITY:
            self.queue.append(packet)
        else:
            self.dropped += 1

    def _start_transmission(self, packet: "Packet") -> None:
        self.busy = True
        self.bytes_sent += packet.size
        self.packets_sent += 1
        # Delivery happens after serialisation + propagation; the link is
        # free for the next packet as soon as serialisation ends.
        self.events.schedule(packet.size / self.bandwidth,
                             self._end_serialisation, packet)

    def _end_serialisation(self, packet: "Packet") -> None:
        self.events.schedule(self.latency, packet.flow.forward, packet)
        if self.queue:
            self._start_transmission(self.queue.popleft())
        else:
            self.busy = False
