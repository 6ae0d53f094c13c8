"""Hierarchical zone routing: a tree of NetZones routed by shortest paths.

Flat per-pair route tables are O(hosts²) once fully touched, which caps
platforms at a few thousand hosts.  This module provides SimGrid-style
nested *routing zones* instead: the platform is a tree of
:class:`NetZone` objects, each routing between its own *vertices* (the
hosts/routers declared directly in it, plus its child zones) with one
strategy:

* ``"Dijkstra"`` — latency-weighted shortest paths (explicit routes still
  win for their exact pair), read off predecessor trees sealed on first
  use: O(E log V) per tree, O(path) per route, and every host hanging off
  a hub by one link shares the hub's tree (see :class:`DijkstraRouting`);
* ``"Floyd"``    — an alias of ``"Dijkstra"`` (it always ran the same
  search; the name is kept for platform files that carry it).

An end-to-end route between two hosts is the concatenation of intra-zone
segments up and down the zone tree: the route climbs from the source to
the common-ancestor zone (crossing each zone's *gateway*), crosses the
ancestor zone between the two child-zone vertices, and descends to the
destination.  A zone represented as a vertex in its parent's graph is
entered and left through its gateway node, so transiting a zone
contributes only the links of the parent-level edges that reach it.

A flat platform is simply one root zone holding every host — the legacy
:class:`~repro.platform.platform.Platform` API (``add_host`` /
``connect`` / ``add_route`` without a zone) targets the root zone and
behaves exactly as before.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import NoRouteError, PlatformError

__all__ = ["LRUCache", "NetZone", "ROUTING_STRATEGIES"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Replaces the unbounded ``(src, dst)`` route memos: route resolution
    stays O(touched) in memory no matter how many pairs a long-running
    simulation eventually communicates across.  ``maxsize=None`` disables
    the bound (an ordinary dict with LRU bookkeeping).
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: Optional[int] = 16384) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("LRUCache maxsize must be >= 1 (or None)")
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """Return the cached value or ``None``, refreshing recency."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        """Cache counters (observable contract of the routing subsystem)."""
        return {"size": len(self._data), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


# ----------------------------------------------------------------------------------
# the intra-zone routing strategy
# ----------------------------------------------------------------------------------

#: Predecessor entries one zone may hold across all its sealed trees; the
#: tree-count bound of a zone is this budget over its vertex count.
_TREE_ENTRY_BUDGET = 1 << 18


class DijkstraRouting:
    """Latency-weighted shortest paths; explicit routes take precedence.

    The one shortest-path strategy — registered as ``"Dijkstra"`` and as
    ``"Floyd"`` — and the default of the root zone (the legacy flat
    behaviour).  A route is read off a *sealed tree*: the full predecessor
    map of one deterministic Dijkstra run — weight = link latency plus a
    tiny epsilon so hop count breaks ties, vertices settled in heap order
    with an insertion counter, improvements must beat the incumbent by
    more than 1e-15 (the algorithm the flat platform has used since the
    seed).  After the O(E log V) seal every lookup is O(path).

    *Leaf contraction.*  A source with exactly one adjacency entry
    ``(hub, link)`` does not own a tree: its route is ``[link]`` plus the
    path from ``hub`` in the tree sealed at ``hub`` with initial distance
    ``w = latency(link) + 1e-9``.  That is the exact double a search from
    the leaf holds when it pops ``hub``, and from that pop on both
    searches add the same doubles, make the same comparisons and push in
    the same relative order (the leaf has no other edge and can never be
    improved) — the routes are identical by construction, not by
    tolerance.  Keying trees on ``(hub, w)`` makes every leaf of a star
    site share one tree per distinct access latency.

    Trees and the work counters are derived state: an LRU bounds the tree
    count per zone, a zone mutation drops the trees, and neither is
    pickled — a restored strategy re-seals lazily and counts from zero.
    What is pickled is the memo of resolved ``(src, dst)`` paths, O(path)
    per queried pair and dropped on mutation like the trees.
    """

    _trees: Optional[LRUCache] = None
    #: Work counters (``Platform.routing_stats()`` sums them over zones).
    relaxations = 0
    trees_sealed = 0
    tree_lookups = 0

    def __init__(self, zone: "NetZone") -> None:
        self.zone = zone
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._cached_version = -1

    def __getstate__(self):
        # Exactly what snapshots have carried since PR 8 (the benchmark
        # pins their size); trees and counters are rebuilt on demand.
        return {"zone": self.zone, "_path_cache": self._path_cache,
                "_cached_version": self._cached_version}

    def route(self, src: str, dst: str) -> List[str]:
        links = self._explicit(src, dst)
        if links is not None:
            return links
        if self._cached_version != self.zone.version:
            self._path_cache.clear()
            self._trees = None
            self._cached_version = self.zone.version
        path = self._path_cache.get((src, dst))
        if path is None:
            path = self._path_cache[(src, dst)] = self._resolve(src, dst)
        return list(path)

    def _explicit(self, src: str, dst: str) -> Optional[List[str]]:
        spec = self.zone.routes.get((src, dst))
        if spec is not None:
            return list(spec.links)
        return None

    def _no_route(self, src: str, dst: str) -> NoRouteError:
        return NoRouteError(
            f"no route from {src!r} to {dst!r} in zone {self.zone.name!r}")

    def _resolve(self, src: str, dst: str) -> List[str]:
        zone = self.zone
        adjacent = zone.adjacency.get(src)
        if not adjacent:
            raise self._no_route(src, dst)
        if len(adjacent) == 1:
            root, access = adjacent[0]
            if dst == root:
                return [access]
            # 0.0 + weight: what the leaf's own search holds at the hub.
            start = zone.platform.links[access].latency + 1e-9
        else:
            root, access, start = src, None, 0.0
        if self._trees is None:
            self._trees = LRUCache(
                max(4, _TREE_ENTRY_BUDGET // len(zone.adjacency)))
        self.tree_lookups += 1
        prev = self._trees.get((root, start))
        if prev is None:
            prev = self._seal(root, start)
            self._trees.put((root, start), prev)
        if dst not in prev:
            raise self._no_route(src, dst)
        path: List[str] = []
        vertex = dst
        while vertex != root:
            vertex, link_name = prev[vertex]
            path.append(link_name)
        if access is not None:
            path.append(access)
        path.reverse()
        return path

    def _seal(self, root: str, start: float) -> Dict[str, Tuple[str, str]]:
        """Predecessor map ``vertex -> (parent, link name)`` of the whole
        component of ``root``, searched from distance ``start``."""
        adjacency = self.zone.adjacency
        links = self.zone.platform.links
        dist: Dict[str, float] = {root: start}
        prev: Dict[str, Tuple[str, str]] = {}
        heap: List[Tuple[float, int, str]] = [(start, 0, root)]
        counter = 1
        visited = set()
        relaxations = 0
        while heap:
            d, _, vertex = heapq.heappop(heap)
            if vertex in visited:
                continue
            visited.add(vertex)
            edges = adjacency.get(vertex, ())
            relaxations += len(edges)
            for neighbour, link_name in edges:
                nd = d + (links[link_name].latency + 1e-9)
                if neighbour not in dist or nd < dist[neighbour] - 1e-15:
                    dist[neighbour] = nd
                    prev[neighbour] = (vertex, link_name)
                    heapq.heappush(heap, (nd, counter, neighbour))
                    counter += 1
        self.relaxations += relaxations
        self.trees_sealed += 1
        return prev


ROUTING_STRATEGIES = {
    "Dijkstra": DijkstraRouting,
    "Floyd": DijkstraRouting,
}


# ----------------------------------------------------------------------------------
# the zone tree
# ----------------------------------------------------------------------------------

class NetZone:
    """One routing zone: a set of vertices routed by one strategy.

    A vertex is either a host/router declared directly in this zone or a
    child zone (represented in this zone's graph by its name; physically
    entered and left through its *gateway* node).  Zones are created via
    :meth:`repro.platform.platform.Platform.add_zone` — the platform
    always has a root zone that the flat, zone-less API targets.
    """

    def __init__(self, platform, name: str, parent: Optional["NetZone"],
                 routing: str = "Dijkstra",
                 gateway: Optional[str] = None) -> None:
        try:
            strategy_cls = ROUTING_STRATEGIES[routing]
        except KeyError:
            raise PlatformError(
                f"unknown routing strategy {routing!r}; pick one of "
                f"{sorted(ROUTING_STRATEGIES)}") from None
        self.platform = platform
        self.name = name
        self.parent = parent
        self.children: Dict[str, "NetZone"] = {}
        #: Names of the hosts/routers declared directly in this zone.
        self.nodes: Dict[str, None] = {}
        #: Explicit vertex-pair routes (RouteSpec objects, like the flat API).
        self.routes: Dict[Tuple[str, str], object] = {}
        #: Graph edges: vertex -> list of (vertex, link name).
        self.adjacency: Dict[str, List[Tuple[str, str]]] = {}
        self.routing = routing
        self.strategy = strategy_cls(self)
        self._gateway = gateway
        #: Bumped on every mutation; lets precomputed strategies re-seal.
        self.version = 0
        if parent is not None:
            parent.children[name] = self

    # -- construction (delegates to the platform for global bookkeeping) ---------------
    def add_host(self, name: str, speed: float, **kwargs):
        """Declare a host inside this zone (see ``Platform.add_host``)."""
        return self.platform.add_host(name, speed, zone=self, **kwargs)

    def add_router(self, name: str) -> str:
        """Declare a router inside this zone."""
        return self.platform.add_router(name, zone=self)

    def connect(self, vertex_a: str, vertex_b: str, link_name: str) -> None:
        """Declare a graph edge between two vertices of this zone.

        A vertex naming a child zone attaches the link at that zone's
        gateway; this is how inter-zone (gateway) links are wired.
        """
        self._check_vertex(vertex_a)
        self._check_vertex(vertex_b)
        if link_name not in self.platform.links:
            raise PlatformError(f"unknown link {link_name!r}")
        self.adjacency.setdefault(vertex_a, []).append((vertex_b, link_name))
        self.adjacency.setdefault(vertex_b, []).append((vertex_a, link_name))
        self.version += 1

    def add_route(self, src: str, dst: str, links: Sequence[str],
                  symmetric: bool = True):
        """Declare an explicit route between two vertices of this zone."""
        from repro.platform.platform import RouteSpec
        self._check_vertex(src)
        self._check_vertex(dst)
        for link in links:
            if link not in self.platform.links:
                raise PlatformError(
                    f"route {src}->{dst}: unknown link {link!r}")
        spec = RouteSpec(src, dst, list(links), symmetric)
        self.routes[(src, dst)] = spec
        if symmetric:
            self.routes.setdefault(
                (dst, src), RouteSpec(dst, src, list(reversed(links)),
                                      symmetric))
        self.version += 1
        return spec

    @property
    def gateway(self) -> str:
        """The gateway *node* of this zone, descending into child zones.

        Defaults to the first host/router of the zone subtree (in
        declaration order) when none was set explicitly.
        """
        if self._gateway is not None:
            # The gateway may itself name a child zone: descend to a node.
            child = self.children.get(self._gateway)
            if child is not None:
                return child.gateway
            return self._gateway
        if self.nodes:
            return next(iter(self.nodes))
        for child in self.children.values():
            try:
                return child.gateway
            except PlatformError:
                continue
        raise PlatformError(f"zone {self.name!r} has no gateway "
                            "(it contains no host or router)")

    @cached_property
    def _ancestry(self) -> Tuple["NetZone", ...]:
        # A zone is never re-parented, so the chain is computed once.
        above = self.parent._ancestry if self.parent is not None else ()
        return above + (self,)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_ancestry", None)        # derived; rebuilt on demand
        return state

    def _check_vertex(self, name: str) -> None:
        if name not in self.nodes and name not in self.children:
            raise PlatformError(
                f"{name!r} is not a vertex of zone {self.name!r} "
                "(declare the node in this zone, or name a child zone)")

    def local_route(self, src: str, dst: str) -> List[str]:
        """Resolve a route between two *vertices* of this zone."""
        if src == dst:
            return []
        return self.strategy.route(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NetZone(name={self.name!r}, routing={self.routing!r}, "
                f"nodes={len(self.nodes)}, children={len(self.children)})")


def resolve_route(platform, src: str, dst: str) -> List[str]:
    """End-to-end route between two nodes across the zone tree.

    The route is the concatenation of intra-zone segments: climb from
    ``src`` to the lowest common ancestor zone (each crossed zone is
    entered/left through its gateway), cross the ancestor between the two
    child-side vertices, descend to ``dst``.  For a flat platform (every
    node in the root zone) this collapses to one ``local_route`` call —
    the legacy behaviour.
    """
    if src == dst:
        return []
    zone_src: NetZone = platform._node_zone[src]
    zone_dst: NetZone = platform._node_zone[dst]
    if zone_src is zone_dst:
        return zone_src.local_route(src, dst)

    chain_src = zone_src._ancestry
    chain_dst = zone_dst._ancestry
    depth = 0
    while (depth < len(chain_src) and depth < len(chain_dst)
           and chain_src[depth] is chain_dst[depth]):
        depth += 1
    if depth == 0:
        raise NoRouteError(f"no route from {src!r} to {dst!r}: "
                           "the nodes live in unrelated zone trees")
    ancestor = chain_src[depth - 1]
    # The vertex representing each endpoint inside the ancestor zone: the
    # node itself when declared directly there, else the child zone on its
    # side of the tree.
    if zone_src is ancestor:
        vertex_src, descend_src = src, None
    else:
        descend_src = chain_src[depth]
        vertex_src = descend_src.name
    if zone_dst is ancestor:
        vertex_dst, descend_dst = dst, None
    else:
        descend_dst = chain_dst[depth]
        vertex_dst = descend_dst.name

    route: List[str] = []
    if descend_src is not None:
        gateway = descend_src.gateway
        if gateway != src:
            route.extend(resolve_route(platform, src, gateway))
    route.extend(ancestor.local_route(vertex_src, vertex_dst))
    if descend_dst is not None:
        gateway = descend_dst.gateway
        if gateway != dst:
            route.extend(resolve_route(platform, gateway, dst))
    return route
