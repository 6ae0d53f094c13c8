"""The packet-level simulator facade.

Takes the same inputs as the fluid model — a
:class:`~repro.platform.platform.Platform` and a list of flows — and runs
them through the packet-level TCP machinery, so experiment E1 can compare
the two simulators on identical topologies and workloads (exactly what the
paper does against NS2 and GTNetS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.packet.event_queue import EventQueue
from repro.packet.nic import PacketLink
from repro.packet.tcp import TcpFlow
from repro.platform.platform import Platform

__all__ = ["FlowSpec", "FlowResult", "PacketSimulator"]


@dataclass
class FlowSpec:
    """One transfer to simulate: ``size`` bytes from ``src`` to ``dst``."""

    src: str
    dst: str
    size: float
    flow_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("flow size must be > 0")


@dataclass
class FlowResult:
    """Outcome of one simulated flow."""

    flow_id: int
    src: str
    dst: str
    size: float
    start_time: float
    finish_time: float
    retransmissions: int
    timeouts: int

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def throughput(self) -> float:
        """Average transfer rate in bytes/s."""
        return self.size / self.duration if self.duration > 0 else math.inf


class PacketSimulator:
    """Runs TCP flows at packet granularity over a platform description."""

    def __init__(self, platform: Platform,
                 queue_capacity: int = 100) -> None:
        self.platform = platform
        self.queue_capacity = queue_capacity
        self.events = EventQueue()
        # One PacketLink per (platform link, direction).
        self._links: Dict[Tuple[str, str], PacketLink] = {}
        self.flows: List[TcpFlow] = []
        self._results: List[FlowResult] = []
        self._specs: Dict[int, FlowSpec] = {}

    # -- construction ------------------------------------------------------------------
    def _link_for(self, name: str, direction: str) -> PacketLink:
        key = (name, direction)
        link = self._links.get(key)
        if link is None:
            spec = self.platform.links[name]
            link = PacketLink(f"{name}:{direction}", spec.bandwidth,
                              spec.latency, self.events,
                              queue_capacity=self.queue_capacity)
            self._links[key] = link
        return link

    def _paths_for(self, src: str, dst: str
                   ) -> Tuple[List[PacketLink], List[PacketLink]]:
        forward_names = self.platform.route_links(src, dst)
        reverse_names = self.platform.route_links(dst, src)
        forward = [self._link_for(n, "fwd") for n in forward_names]
        # The reverse path uses the opposite direction of each link so data
        # and ACKs never compete for the same transmitter (full duplex).
        reverse = [self._link_for(n, "rev") for n in reverse_names]
        return forward, reverse

    def add_flow(self, spec: FlowSpec) -> TcpFlow:
        """Register a flow (it starts when :meth:`run` is called).

        A flow without an explicit ``flow_id`` takes the number of flows
        registered before it; two flows may not share an id.
        """
        flow_id = spec.flow_id if spec.flow_id is not None else len(self.flows)
        if flow_id in self._specs:
            raise ValueError(f"duplicate flow id {flow_id}")
        forward, reverse = self._paths_for(spec.src, spec.dst)
        flow = TcpFlow(flow_id, self.events, forward, reverse, spec.size,
                       on_complete=self._on_flow_complete)
        self.flows.append(flow)
        self._specs[flow.id] = spec
        return flow

    def _on_flow_complete(self, flow: TcpFlow) -> None:
        spec = self._specs[flow.id]
        self._results.append(FlowResult(
            flow_id=flow.id, src=spec.src, dst=spec.dst, size=spec.size,
            start_time=flow.start_time or 0.0,
            finish_time=flow.finish_time or 0.0,
            retransmissions=flow.retransmissions,
            timeouts=flow.timeouts))

    # -- running ------------------------------------------------------------------------
    def run(self, flows: Optional[Sequence[FlowSpec]] = None
            ) -> List[FlowResult]:
        """Start every flow at t=0 and run until all complete.

        Returns the per-flow results ordered by flow id.
        """
        if flows is not None:
            for spec in flows:
                self.add_flow(spec)
        if not self.flows:
            return []
        for flow in self.flows:
            flow.start()
        self.events.run()
        return sorted(self._results, key=lambda r: r.flow_id)
