"""The packet-level simulator facade.

Takes the same inputs as the fluid model — a
:class:`~repro.platform.platform.Platform` and a list of ``(src, dst,
size)`` flows — runs them through the packet-level TCP machinery and
returns the flows themselves, so experiment E1 can compare the two
simulators on identical topologies and workloads (exactly what the paper
does against NS2 and GTNetS).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.packet.event_queue import EventQueue
from repro.packet.nic import PacketLink
from repro.packet.tcp import TcpFlow
from repro.platform.platform import Platform

__all__ = ["PacketSimulator"]


class PacketSimulator:
    """Runs TCP flows at packet granularity over a platform description."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.events = EventQueue()
        # One PacketLink per (platform link, direction).
        self._links: Dict[Tuple[str, str], PacketLink] = {}

    def _link_for(self, name: str, direction: str) -> PacketLink:
        key = (name, direction)
        link = self._links.get(key)
        if link is None:
            spec = self.platform.links[name]
            link = PacketLink(f"{name}:{direction}", spec.bandwidth,
                              spec.latency, self.events)
            self._links[key] = link
        return link

    def _flow(self, src: str, dst: str, size: float) -> TcpFlow:
        if size <= 0:
            raise ValueError("flow size must be > 0")
        forward = [self._link_for(n, "fwd")
                   for n in self.platform.route_links(src, dst)]
        # The reverse path uses the opposite direction of each link so data
        # and ACKs never compete for the same transmitter (full duplex).
        reverse = [self._link_for(n, "rev")
                   for n in self.platform.route_links(dst, src)]
        return TcpFlow(self.events, forward, reverse, size)

    def run(self, flows: Sequence[Tuple[str, str, float]]) -> List[TcpFlow]:
        """Start every ``(src, dst, size)`` flow at t=0, in order, and run
        until all complete; returns the flows in input order."""
        tcp_flows = [self._flow(src, dst, size) for src, dst, size in flows]
        for flow in tcp_flows:
            flow.start()
        self.events.run()
        return tcp_flows
