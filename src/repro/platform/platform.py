"""The virtual platform: hosts, links, routes, and their realization in SURF.

Routing is hierarchical (see :mod:`repro.platform.routing`): the platform
is a tree of :class:`~repro.platform.routing.NetZone` objects, each with a
Dijkstra intra-zone strategy: links are edges of a graph; routes are
shortest paths on the link latencies (explicit routes win), read off
predecessor trees sealed on first use.  This is what the BRITE-generated
random topologies of the validation experiment use, and a flat platform
built through the zone-less API is one root zone routed that way.
``Floyd`` names the same strategy.

End-to-end routes are concatenations of intra-zone segments up and down
the zone tree, resolved on demand behind an LRU-bounded cache, so a fully
touched platform stays O(touched) in memory instead of O(hosts²).

Realization is lazy: hosts, links and their SURF resources materialize
on first touch, so a 10⁵-host topology loads in O(touched).  SURF
constraint ids are pinned to declaration indices, so the order in which
resources happen to materialize never reaches the solver's tie-breaking
or the simulated dates.  ``realize(sharded=True)`` additionally
partitions the kernel along the top-level zones (see
:mod:`repro.surf.shard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import NoRouteError, PlatformError
from repro.platform.routing import LRUCache, NetZone, resolve_route
from repro.surf.cpu import CpuResource
from repro.surf.engine import SurfEngine
from repro.surf.network import LinkResource
from repro.surf.trace import Trace

__all__ = ["HostSpec", "LinkSpec", "RouteSpec", "Platform", "RealizedHost",
           "NetZone"]


@dataclass
class HostSpec:
    """Description of one host (a machine with a CPU)."""

    name: str
    speed: float                      # flop/s
    cores: int = 1
    availability_trace: Optional[Trace] = None
    state_trace: Optional[Trace] = None
    # Vestige, never read since the JSON platform format went: pickled
    # in every snapshot; goes at the next benchmark re-gold.
    properties: Dict[str, str] = field(default_factory=dict)
    # Declaration index, set by Platform.add_host: pins the SURF
    # constraint id so every materialization order (and both kernels)
    # number the resource identically.
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise PlatformError(f"host {self.name!r}: speed must be > 0")
        if self.cores < 1:
            raise PlatformError(f"host {self.name!r}: cores must be >= 1")


@dataclass
class LinkSpec:
    """Description of one network link."""

    name: str
    bandwidth: float                  # byte/s
    latency: float = 0.0              # seconds
    shared: bool = True
    bandwidth_trace: Optional[Trace] = None
    state_trace: Optional[Trace] = None
    # Declaration index, set by Platform.add_link (see HostSpec.index).
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise PlatformError(f"link {self.name!r}: bandwidth must be > 0")
        if self.latency < 0:
            raise PlatformError(f"link {self.name!r}: latency must be >= 0")


@dataclass
class RouteSpec:
    """An explicit route between two endpoints (hosts, routers or zones)."""

    src: str
    dst: str
    links: List[str]
    symmetric: bool = True


@dataclass
class RealizedHost:
    """A host bound to its SURF CPU resource after :meth:`Platform.realize`."""

    spec: HostSpec
    cpu: CpuResource


class Platform:
    """A complete platform description plus (after realization) its resources.

    Parameters
    ----------
    name:
        Display name.
    route_cache_size:
        Bound of the two route LRU caches (resolved link-name routes and
        realized resource routes).  ``None`` removes the bound.
    """

    def __init__(self, name: str = "platform",
                 route_cache_size: Optional[int] = 16384) -> None:
        self.name = name
        self.hosts: Dict[str, HostSpec] = {}
        self.routers: Dict[str, str] = {}            # name -> name (a set, really)
        self.links: Dict[str, LinkSpec] = {}
        # The zone tree.  The root zone holds every node declared through
        # the flat (zone-less) API; its Dijkstra strategy with
        # explicit-route precedence is the legacy flat behaviour.
        self.root_zone = NetZone(self, "root", parent=None, routing="Dijkstra")
        self.zones: Dict[str, NetZone] = {}
        self._node_zone: Dict[str, NetZone] = {}
        # realization state
        self._realized = False
        # Vestige, never read: perfbench's golden.json pins the snapshot
        # blob size; goes at the next benchmark re-gold.
        self._lazy = True
        self.engine: Optional[SurfEngine] = None
        self.cpu_by_host: Dict[str, CpuResource] = {}
        self.link_by_name: Dict[str, LinkResource] = {}
        self._link_zone: Dict[str, Optional[NetZone]] = {}
        # Route resolution is on-demand behind LRU-bounded caches: names
        # per (src, dst), and — after realization — the resolved
        # LinkResource tuples the s4u comm hot path consumes.
        self.route_cache_size = route_cache_size
        self._route_cache: LRUCache = LRUCache(route_cache_size)
        self._resource_route_cache: LRUCache = LRUCache(route_cache_size)

    # -- description ------------------------------------------------------------------
    def add_zone(self, name: str, routing: str = "Dijkstra",
                 parent: Optional[Union[str, NetZone]] = None,
                 gateway: Optional[str] = None) -> NetZone:
        """Create a routing zone (child of ``parent``, default the root).

        ``routing`` names the intra-zone strategy (``"Dijkstra"``, alias
        ``"Floyd"``); ``gateway`` optionally names the node (or child zone)
        through which routes enter and leave.
        """
        self._check_not_realized()
        parent_zone = self._resolve_zone(parent)
        if name in self.zones or name in self.hosts or name in self.routers:
            raise PlatformError(f"duplicate zone name {name!r}")
        zone = NetZone(self, name, parent_zone, routing=routing,
                       gateway=gateway)
        self.zones[name] = zone
        self._invalidate_route_caches()
        return zone

    def _resolve_zone(self, zone: Optional[Union[str, NetZone]]) -> NetZone:
        if zone is None:
            return self.root_zone
        if isinstance(zone, NetZone):
            if zone.platform is not self:
                raise PlatformError(
                    f"zone {zone.name!r} belongs to another platform")
            return zone
        try:
            return self.zones[zone]
        except KeyError:
            raise PlatformError(f"unknown zone {zone!r}") from None

    def add_host(self, name: str, speed: float, cores: int = 1,
                 availability_trace: Optional[Trace] = None,
                 state_trace: Optional[Trace] = None,
                 zone: Optional[Union[str, NetZone]] = None) -> HostSpec:
        """Declare a host.  ``speed`` is in flop/s."""
        self._check_not_realized()
        zone_obj = self._resolve_zone(zone)
        self._check_fresh_node_name(name)
        if availability_trace is not None:
            # Fail at declaration, naming the trace, not mid-step when the
            # bad scaling factor would finally be applied.
            availability_trace.validate_availability()
        spec = HostSpec(name, speed, cores, availability_trace, state_trace)
        spec.index = len(self.hosts)
        self.hosts[name] = spec
        zone_obj.nodes[name] = None
        self._node_zone[name] = zone_obj
        return spec

    def add_router(self, name: str,
                   zone: Optional[Union[str, NetZone]] = None) -> str:
        """Declare a router: a routing-only node without a CPU."""
        self._check_not_realized()
        zone_obj = self._resolve_zone(zone)
        self._check_fresh_node_name(name)
        self.routers[name] = name
        zone_obj.nodes[name] = None
        self._node_zone[name] = zone_obj
        return name

    def add_link(self, name: str, bandwidth: float, latency: float = 0.0,
                 shared: bool = True,
                 bandwidth_trace: Optional[Trace] = None,
                 state_trace: Optional[Trace] = None) -> LinkSpec:
        """Declare a link.  ``bandwidth`` is in byte/s, ``latency`` in s."""
        self._check_not_realized()
        if name in self.links:
            raise PlatformError(f"duplicate link name {name!r}")
        if bandwidth_trace is not None:
            bandwidth_trace.validate_availability()
        spec = LinkSpec(name, bandwidth, latency, shared,
                        bandwidth_trace, state_trace)
        spec.index = len(self.links)
        self.links[name] = spec
        return spec

    def add_route(self, src: str, dst: str, links: Sequence[str],
                  symmetric: bool = True) -> RouteSpec:
        """Declare an explicit route between two vertices of one zone.

        Both endpoints must be vertices of the same zone: nodes declared
        directly in it, or names of its child zones.
        """
        self._check_not_realized()
        zone = self._common_zone_of_vertices(src, dst)
        spec = zone.add_route(src, dst, links, symmetric)
        self._invalidate_route_caches()
        return spec

    def connect(self, node_a: str, node_b: str, link_name: str) -> None:
        """Declare a graph edge: ``link_name`` joins two vertices.

        Routes between vertices without an explicit route are computed by
        the zone's strategy over these edges.  Vertices naming child zones
        attach the link at the zone's gateway (an inter-zone link).
        """
        self._check_not_realized()
        zone = self._common_zone_of_vertices(node_a, node_b)
        zone.connect(node_a, node_b, link_name)
        self._invalidate_route_caches()

    def _common_zone_of_vertices(self, name_a: str, name_b: str) -> NetZone:
        """The zone that has both names as vertices (node or child zone)."""
        zone_a = self._vertex_zone(name_a)
        zone_b = self._vertex_zone(name_b)
        if zone_a is not zone_b:
            raise PlatformError(
                f"{name_a!r} (zone {zone_a.name!r}) and {name_b!r} "
                f"(zone {zone_b.name!r}) are not vertices of the same zone; "
                "connect their zones in the common ancestor instead")
        return zone_a

    def _vertex_zone(self, name: str) -> NetZone:
        """The zone in which ``name`` is a vertex."""
        zone = self._node_zone.get(name)
        if zone is not None:
            return zone
        child = self.zones.get(name)
        if child is not None:
            if child.parent is None:
                raise PlatformError(f"zone {name!r} has no parent zone")
            return child.parent
        raise PlatformError(f"unknown node or zone {name!r}")

    def _check_fresh_node_name(self, name: str) -> None:
        if name in self.hosts or name in self.routers:
            raise PlatformError(f"duplicate node name {name!r}")
        if name in self.zones:
            raise PlatformError(
                f"node name {name!r} collides with a zone name")

    def _check_node(self, name: str) -> None:
        if name not in self.hosts and name not in self.routers:
            raise PlatformError(f"unknown node {name!r}")

    def _check_not_realized(self) -> None:
        if self._realized:
            raise PlatformError(
                "the platform was already realized; describe it fully first")

    def _invalidate_route_caches(self) -> None:
        """Topology changed pre-realization: drop memoized routes."""
        self._route_cache.clear()
        self._resource_route_cache.clear()

    # -- routing ------------------------------------------------------------------
    def route_links(self, src: str, dst: str) -> List[str]:
        """Ordered link names of the route from ``src`` to ``dst``.

        The route is resolved on demand across the zone tree (see
        :mod:`repro.platform.routing`) and memoized in an LRU-bounded
        cache.  The returned list is a fresh copy — mutating it never
        corrupts the cache.  A loopback route (``src == dst``) is the
        empty list.
        """
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return []
        key = (src, dst)
        links = self._route_cache.get(key)
        if links is None:
            links = tuple(resolve_route(self, src, dst))
            self._route_cache.put(key, links)
        return list(links)

    def route_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Counters of the two route caches (routing's observable contract)."""
        return {"routes": self._route_cache.stats(),
                "resource_routes": self._resource_route_cache.stats()}

    def routing_stats(self) -> Dict[str, int]:
        """Shortest-path work counters, summed over every zone.

        ``relaxations`` (edges examined while sealing), ``trees_sealed``
        and ``tree_lookups`` — wall-clock-free evidence of what route
        resolution costs (a leaf source must not pay for its hub's edges).
        """
        totals = {"relaxations": 0, "trees_sealed": 0, "tree_lookups": 0}
        for zone in (self.root_zone, *self.zones.values()):
            for key in totals:
                totals[key] += getattr(zone.strategy, key)
        return totals

    # -- realization -----------------------------------------------------------------
    def realize(self, engine: Optional[SurfEngine] = None,
                sharded: bool = False) -> SurfEngine:
        """Bind the platform to a SURF engine.

        Resources materialize on first touch (``cpu_of``,
        ``route_resources``, ``link_resource``), so a huge platform
        realizes in O(touched); only resources carrying traces are
        materialized here (their events must be able to fire whether or
        not the resource is otherwise used).

        ``sharded=True`` builds a :class:`ShardedSurfEngine` partitioned
        along the top-level zones of this platform (ignored when an
        ``engine`` is supplied).

        Returns the engine (creating a fresh one when none is supplied).
        Realization may only happen once per Platform instance.
        """
        if self._realized:
            raise PlatformError("platform already realized")
        if engine is None:
            if sharded:
                from repro.surf.shard import ShardedSurfEngine
                engine = ShardedSurfEngine(list(self.root_zone.children))
            else:
                engine = SurfEngine()
        self.engine = engine
        self._realized = True
        self._link_zone = self._compute_link_zones()
        for spec in self.hosts.values():
            if (spec.availability_trace is not None
                    or spec.state_trace is not None):
                self._materialize_cpu(spec)
        for spec in self.links.values():
            if (spec.bandwidth_trace is not None
                    or spec.state_trace is not None):
                self._materialize_link(spec)
        return engine

    def _compute_link_zones(self) -> Dict[str, Optional[NetZone]]:
        """Owning zone per link: the single zone referencing it, else root.

        A link referenced by the routes/edges of exactly one zone belongs
        to that zone (a sharded engine keeps its constraint in the zone's
        shard); links referenced from several zones — inter-zone links
        attached in a common ancestor — map to ``None``, the root shard.
        """
        owners: Dict[str, Optional[NetZone]] = {}
        ambiguous: Dict[str, bool] = {}
        for zone in [self.root_zone, *self.zones.values()]:
            names = set()
            for route in zone.routes.values():
                names.update(route.links)
            for edges in zone.adjacency.values():
                for _vertex, link_name in edges:
                    names.add(link_name)
            for name in names:
                if name not in owners:
                    owners[name] = None if zone.parent is None else zone
                elif owners[name] is not zone:
                    ambiguous[name] = True
        for name in ambiguous:
            owners[name] = None
        return owners

    def _materialize_cpu(self, spec: HostSpec) -> CpuResource:
        cpu = self.engine.add_cpu(
            spec.name, spec.speed, spec.cores,
            availability_trace=spec.availability_trace,
            state_trace=spec.state_trace,
            index=spec.index,
            zone=self._node_zone.get(spec.name))
        self.engine.register_resource_traces(cpu)
        self.cpu_by_host[spec.name] = cpu
        return cpu

    def _materialize_link(self, spec: LinkSpec) -> LinkResource:
        link = self.engine.add_link(
            spec.name, spec.bandwidth, spec.latency, spec.shared,
            bandwidth_trace=spec.bandwidth_trace,
            state_trace=spec.state_trace,
            index=spec.index,
            zone=self._link_zone.get(spec.name))
        self.engine.register_resource_traces(link)
        self.link_by_name[spec.name] = link
        return link

    def kernel_stats(self) -> Dict[str, object]:
        """Engine solver/shard stats merged with the routing stats.

        One aggregated observability dict (satellite of the sharded
        kernel): ``solver`` sums every model's LMM counters across shards,
        ``route_caches`` is :meth:`route_cache_stats`, ``routing`` is
        :meth:`routing_stats`, plus the ``shards`` section on a sharded
        kernel.
        """
        if self.engine is None:
            raise PlatformError("platform not realized yet")
        stats = dict(self.engine.kernel_stats())
        stats["route_caches"] = self.route_cache_stats()
        stats["routing"] = self.routing_stats()
        return stats

    @property
    def realized(self) -> bool:
        """Whether :meth:`realize` has been called."""
        return self._realized

    def link_resource(self, name: str) -> LinkResource:
        """The realized :class:`LinkResource` of a link (materializing it)."""
        if not self._realized:
            raise PlatformError("platform not realized yet")
        link = self.link_by_name.get(name)
        if link is None:
            spec = self.links.get(name)
            if spec is None:
                raise PlatformError(f"unknown link {name!r}")
            link = self._materialize_link(spec)
        return link

    def route_resources(self, src: str, dst: str) -> Tuple[LinkResource, ...]:
        """The realized :class:`LinkResource` objects along a route.

        Returns a **tuple** — route lists are read-only by contract (PR 5)
        and a tuple enforces it.  Memoized per ``(src, dst)`` in an
        LRU-bounded cache; the links of the route materialize here, on
        first touch.
        """
        if not self._realized:
            raise PlatformError("platform not realized yet")
        key = (src, dst)
        links = self._resource_route_cache.get(key)
        if links is None:
            links = tuple(self.link_resource(name)
                          for name in self.route_links(src, dst))
            self._resource_route_cache.put(key, links)
        return links

    def cpu_of(self, host_name: str) -> CpuResource:
        """The realized CPU of a host (materializing it on first touch)."""
        if not self._realized:
            raise PlatformError("platform not realized yet")
        cpu = self.cpu_by_host.get(host_name)
        if cpu is None:
            spec = self.hosts.get(host_name)
            if spec is None:
                raise PlatformError(f"unknown host {host_name!r}")
            cpu = self._materialize_cpu(spec)
        return cpu

    # -- introspection ------------------------------------------------------------------
    def host_names(self) -> List[str]:
        """Sorted list of host names."""
        return sorted(self.hosts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Platform(name={self.name!r}, hosts={len(self.hosts)}, "
                f"routers={len(self.routers)}, links={len(self.links)}, "
                f"zones={len(self.zones)})")
