"""A packet-level network simulator (the NS2 / GTNetS stand-in).

The paper's validation experiment compares SimGrid's fluid MaxMin model to
the NS2 and GTNetS packet-level simulators.  Those are external C++
projects, so this package provides a from-scratch packet-level simulator
with the ingredients that matter for the comparison:

* a discrete-event queue whose events are plain ``(date, seq, method,
  arg)`` tuples (:mod:`repro.packet.event_queue`);
* store-and-forward links with finite drop-tail queues, serialisation time
  and propagation latency (:mod:`repro.packet.nic`);
* per-flow TCP Reno congestion control — slow start, congestion avoidance,
  duplicate-ACK fast retransmit, retransmission timeouts, with NS2-like
  constants for the segment size, windows and timers
  (:mod:`repro.packet.tcp`);
* a :class:`~repro.packet.simulator.PacketSimulator` facade that takes
  the very same :class:`~repro.platform.platform.Platform` and ``(src, dst,
  size)`` flows as the fluid model, so experiment E1 runs both on
  identical inputs, and returns the :class:`~repro.packet.tcp.TcpFlow` it
  simulated for each flow: a flow is its own result.
"""

from repro.packet.event_queue import EventQueue
from repro.packet.nic import PacketLink
from repro.packet.simulator import PacketSimulator
from repro.packet.tcp import TcpFlow

__all__ = [
    "EventQueue",
    "PacketLink",
    "PacketSimulator",
    "TcpFlow",
]
