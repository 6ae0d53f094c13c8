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
  to reach the other end.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

from repro.packet.event_queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packet.tcp import Packet

__all__ = ["DropTailQueue", "PacketLink"]


class DropTailQueue:
    """Bounded FIFO of packets; arrivals beyond the capacity are dropped."""

    def __init__(self, capacity_packets: int = 100) -> None:
        if capacity_packets < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity_packets
        self._queue: Deque["Packet"] = deque()
        self.dropped = 0
        self.enqueued = 0

    def push(self, packet: "Packet") -> bool:
        """Try to enqueue; returns False (and counts a drop) when full."""
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(packet)
        self.enqueued += 1
        return True

    def pop(self) -> Optional["Packet"]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class PacketLink:
    """One unidirectional link of the packet-level network."""

    def __init__(self, name: str, bandwidth: float, latency: float,
                 events: EventQueue, queue_capacity: int = 100) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self.events = events
        self.queue = DropTailQueue(queue_capacity)
        self.busy = False
        self.bytes_sent = 0.0
        self.packets_sent = 0

    def transmit(self, packet: "Packet",
                 deliver: Callable[["Packet"], None]) -> None:
        """Hand ``packet`` to this link; ``deliver`` runs at the far end."""
        packet.pending_delivery = deliver
        if self.busy:
            self.queue.push(packet)  # dropped silently when full
            return
        self._start_transmission(packet)

    def _start_transmission(self, packet: "Packet") -> None:
        self.busy = True
        tx_time = packet.size / self.bandwidth
        self.bytes_sent += packet.size
        self.packets_sent += 1
        # Delivery happens after serialisation + propagation; the link is
        # free for the next packet as soon as serialisation ends.
        self.events.schedule(tx_time, lambda: self._end_serialisation(packet))

    def _end_serialisation(self, packet: "Packet") -> None:
        deliver = packet.pending_delivery
        self.events.schedule(self.latency, lambda: deliver(packet))
        nxt = self.queue.pop()
        if nxt is None:
            self.busy = False
        else:
            self._start_transmission(nxt)
