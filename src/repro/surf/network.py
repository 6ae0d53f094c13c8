"""Network model: TCP flows sharing links, with multi-hop routing.

The paper's SURF panel lists the capabilities reproduced here:

* *Simulation of complex communications (multi-hop routing)* — a transfer
  uses every link along its route, so its LMM variable crosses one
  constraint per link;
* *Simulation of resource sharing* — multiple TCP flows sharing links get
  MaxMin-fair shares;
* *Simulation of LAN and WAN links* — links carry both a bandwidth and a
  latency; the latency of a route is the sum of its links' latencies;
* trace-driven bandwidth variation and link failures.

The model follows SimGrid's CM02 fluid model of that era:

* a transfer of ``size`` bytes over a route first pays the route latency,
  then transfers its payload at the MaxMin-fair rate;
* optionally, the rate of a flow is bounded by ``gamma / (2 * latency)``
  — the classic TCP congestion-window bound (window / RTT) that makes the
  fluid model much closer to packet-level simulators for long fat pipes;
* empirical correction factors on bandwidth and latency are configurable
  (the original CM02 paper uses 0.92 and 10.4; we default to neutral 1.0
  values so results are easy to reason about, and the validation benchmark
  explores their effect).

A transfer has at most one live event in the model's heap at a time: the
end of its latency phase while it is being paid, then its predicted
completion date once the solver has assigned it a bandwidth share (see
:class:`~repro.surf.model.FluidModel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.surf.action import Action
from repro.surf.lmm import MaxMinSystem
from repro.surf.model import COMPLETION_EPSILON, FluidModel
from repro.surf.resource import Resource
from repro.surf.trace import Trace

__all__ = ["NetworkModel", "NetworkModelConfig", "LinkResource", "NetworkAction"]

_LATENCY_EPSILON = 1e-12
_LATENCY = attrgetter("latency")


@dataclass
class NetworkModelConfig:
    """Tunable knobs of the fluid network model.

    Attributes
    ----------
    bandwidth_factor:
        Multiplier applied to nominal link bandwidths (models protocol
        overhead; CM02 uses 0.92).
    latency_factor:
        Multiplier applied to route latencies (CM02 uses 10.4 to account
        for TCP slow-start on short transfers).
    tcp_gamma:
        Maximum TCP congestion window in bytes.  A flow's rate is bounded
        by ``tcp_gamma / (2 * route_latency)``; set to 0 to disable the
        bound.  The default (4 MiB) only matters on high-latency routes.
    """

    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0
    tcp_gamma: float = 4194304.0

    def __post_init__(self) -> None:
        if self.bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be > 0")
        if self.latency_factor <= 0:
            raise ValueError("latency_factor must be > 0")
        if self.tcp_gamma < 0:
            raise ValueError("tcp_gamma must be >= 0")


class LinkResource(Resource):
    """A network link with bandwidth (byte/s) and latency (s).

    ``shared=False`` models a fat-pipe backbone where concurrent flows do
    not interfere (each can use the full bandwidth).
    """

    def __init__(self, name: str, bandwidth: float, latency: float,
                 system: MaxMinSystem, shared: bool = True,
                 bandwidth_trace: Optional[Trace] = None,
                 state_trace: Optional[Trace] = None,
                 index: Optional[int] = None) -> None:
        if latency < 0:
            raise ValueError(f"link {name!r}: latency must be >= 0")
        super().__init__(name, bandwidth, system, shared=shared,
                         availability_trace=bandwidth_trace,
                         state_trace=state_trace,
                         index=index)
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)


class NetworkAction(Action):
    """One data transfer; its variable spans the links of its route."""

    __slots__ = ("total_latency", "latency_remaining")

    def __init__(self, model: "NetworkModel", size: float, latency: float,
                 priority: float = 1.0) -> None:
        Action.__init__(self, model, size, priority)
        self.total_latency = float(latency)
        self.latency_remaining = float(latency)


class NetworkModel(FluidModel):
    """Fluid model of data transfers sharing network links."""

    def __init__(self, config: Optional[NetworkModelConfig] = None) -> None:
        super().__init__()
        self.config = config or NetworkModelConfig()
        self.links: Dict[str, LinkResource] = {}

    # -- platform construction -----------------------------------------------------
    def add_link(self, name: str, bandwidth: float, latency: float = 0.0,
                 shared: bool = True,
                 bandwidth_trace: Optional[Trace] = None,
                 state_trace: Optional[Trace] = None,
                 index: Optional[int] = None) -> LinkResource:
        """Register a new link resource.

        ``index`` (when given) pins the constraint id to the link's
        declaration index so numbering is materialization-order
        independent.
        """
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        link = LinkResource(name, bandwidth * self.config.bandwidth_factor,
                            latency, self.system, shared,
                            bandwidth_trace, state_trace, index=index)
        self.links[name] = link
        return link

    # -- dynamic reconfiguration ---------------------------------------------------
    def set_link_bandwidth(self, link: LinkResource, bandwidth: float) -> None:
        """Change a link's nominal bandwidth at runtime.

        ``bandwidth`` is the raw (unfactored) value, like :meth:`add_link`
        takes; the model's ``bandwidth_factor`` is applied here.  The change
        flows to running transfers through the constraint-capacity write
        path, so the selective solve re-shares only the flows crossing this
        link.
        """
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(f"link {link.name!r}: bandwidth must be finite "
                             f"and > 0, got {bandwidth!r}")
        link.bandwidth = bandwidth * self.config.bandwidth_factor
        link.set_peak_capacity(link.bandwidth)

    def set_link_latency(self, link: LinkResource, latency: float) -> None:
        """Change a link's latency at runtime.

        Only transfers *started after* the change see the new value: a
        transfer's route latency (and its TCP window bound) is computed once
        when the communication starts, exactly like SimGrid.
        """
        if not (math.isfinite(latency) and latency >= 0):
            raise ValueError(f"link {link.name!r}: latency must be finite "
                             f"and >= 0, got {latency!r}")
        link.latency = float(latency)

    # -- action creation -----------------------------------------------------------
    def communicate(self, links: Sequence[LinkResource], size: float,
                    rate: Optional[float] = None,
                    priority: float = 1.0) -> NetworkAction:
        """Start the transfer of ``size`` bytes over ``links``.

        Parameters
        ----------
        links:
            The route, in order.  May be empty for a loopback communication
            (no latency then).
        size:
            Payload size in bytes.
        rate:
            Optional application-level cap on the transfer rate
            (``MSG_task_put_bounded``).
        priority:
            Sharing weight of the flow.
        """
        # ``sum`` over the links, never a ``+=`` loop: the builtin's float
        # summation differs between Python versions, and the route
        # latency must be the same double as it always was.
        config = self.config
        route_latency = sum(map(_LATENCY, links))
        route_latency *= config.latency_factor
        action = NetworkAction(self, size, route_latency, priority)

        # ``min(rate, tcp_bound)`` as a compare: the same value, NaN included.
        bound = rate
        gamma = config.tcp_gamma
        if gamma > 0 and route_latency > 0:
            tcp_bound = gamma / (2.0 * route_latency)
            if bound is None or tcp_bound < bound:
                bound = tcp_bound
        action.bound = bound

        # The latency phase and the initial weight (no bandwidth while the
        # latency is paid) are decided once, here.
        in_latency = action.latency_remaining > _LATENCY_EPSILON
        system = self.system
        var = system.new_variable(
            weight=0.0 if in_latency else action.priority, bound=bound,
            data=action)
        action.variable = var
        link_down = False
        for link in links:
            system.expand(link.constraint, var, 1.0)
            if not link.is_on:
                link_down = True
        self.running.add(action)

        if in_latency:
            # The latency phase ends at a known absolute date; schedule it
            # now so the heap drives the phase switch.
            self._schedule_event(action, self.clock + action.latency_remaining)

        if link_down:
            action.fail(action.start_time)
        return action

    # -- event handling ------------------------------------------------------------
    def on_action_priority_changed(self, action: NetworkAction) -> None:
        """Push the weight and bound of a transfer (see FluidModel).

        No bandwidth is consumed while the latency is being paid: the
        weight stays 0 until the latency-end event flips it.
        """
        var = action.variable
        if var is None:
            return
        system = self.system
        system.update_variable_weight(
            var, 0.0 if (action._suspended
                         or action.latency_remaining > _LATENCY_EPSILON)
            else action.priority)
        system.update_variable_bound(var, action.bound)

    def _reschedule_action(self, action: NetworkAction, now: float) -> None:
        if action.latency_remaining > _LATENCY_EPSILON:
            # The latency-end event is already in the heap; a solve that
            # touched the flow's links must not displace it.
            return
        FluidModel._reschedule_action(self, action, now)

    def _fire_event(self, action: NetworkAction, now: float,
                    finished: List[Action]) -> None:
        if action.latency_remaining > _LATENCY_EPSILON:
            # End of the latency phase.
            action.latency_remaining = 0.0
            action.last_sync = now
            if (action._remaining <= COMPLETION_EPSILON
                    or action.last_rate == math.inf):
                # A zero-byte message completes right at the end of latency.
                self._complete(action, now, finished)
                return
            # Start consuming bandwidth: the weight flip dirties the LMM
            # system, and the next solve assigns a rate and schedules the
            # completion.
            self.on_action_priority_changed(action)
            return
        self._complete(action, now, finished)
