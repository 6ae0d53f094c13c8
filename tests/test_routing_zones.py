"""Tests for hierarchical routing zones (PR 6, PR 12).

Four families of guarantees:

* **zone-vs-flat identity** — wrapping any flat topology inside a routing
  zone changes nothing: every pair of nodes resolves to the exact same
  ordered list of links.  Checked for every generator in
  :mod:`repro.platform.generators` and for the BRITE Waxman generator.
* **strategy equivalence** — ``Dijkstra`` and ``Floyd`` name one
  deterministic shortest-path strategy, so they must return identical
  routes and produce bit-identical simulated dates.
  Cross-checked on derandomized hypothesis-generated random graphs.
* **sealed trees ≡ from-scratch search** — routes read off shared sealed
  trees (leaf contraction included) equal, link for link, the per-query
  early-stopping Dijkstra kept here as the oracle; the work counters pin
  that a leaf source no longer pays for its hub's edges.
* **bounded caches and lazy realization** — route resolution stays
  O(touched) in memory: LRU-bounded caches with observable counters, and
  ``realize()`` materializing only what a simulation touches.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoRouteError, PlatformError
from repro.platform import (
    Platform,
    make_client_server_lan,
    make_cluster,
    make_dumbbell,
    make_star,
    make_two_site_grid,
    make_waxman_topology,
    make_zoned_grid,
)
from repro.platform import routing
from repro.platform.routing import LRUCache, resolve_route
from repro.s4u import Engine

FLAT_GENERATORS = [
    pytest.param(make_cluster, id="cluster"),
    pytest.param(make_star, id="star"),
    pytest.param(make_dumbbell, id="dumbbell"),
    pytest.param(make_two_site_grid, id="two-site-grid"),
    pytest.param(make_client_server_lan, id="client-server-lan"),
    pytest.param(make_waxman_topology, id="brite-waxman"),
]


def all_nodes(platform):
    return list(platform.hosts) + list(platform.routers)


def wrap_in_zone(flat, routing="Dijkstra"):
    """Rebuild a flat platform with every node inside one child zone.

    Nodes, links, edges and explicit routes are replayed in their
    original declaration order, so the zone's deterministic Dijkstra sees
    the same graph in the same order as the flat root zone did.
    """
    zoned = Platform(flat.name + "-zoned")
    zone = zoned.add_zone("wrapped", routing=routing)
    for spec in flat.hosts.values():
        zone.add_host(spec.name, spec.speed, cores=spec.cores)
    for router in flat.routers:
        zone.add_router(router)
    for spec in flat.links.values():
        zoned.add_link(spec.name, spec.bandwidth, spec.latency,
                       shared=spec.shared)
    seen = set()
    for vertex, edges in flat.root_zone.adjacency.items():
        for other, link in edges:
            key = (frozenset((vertex, other)), link)
            if key not in seen:
                seen.add(key)
                zone.connect(vertex, other, link)
    for (src, dst), spec in flat.root_zone.routes.items():
        if (src, dst) == (spec.src, spec.dst):  # skip auto-added reverses
            zone.add_route(src, dst, spec.links, symmetric=False)
    return zoned


class TestZoneVsFlatIdentity:
    """Putting a topology inside a zone must not change any route."""

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_all_pairs_routes_survive_zone_wrapping(self, generator):
        flat = generator()
        zoned = wrap_in_zone(flat)
        nodes = all_nodes(flat)
        assert all_nodes(zoned) == nodes
        for src, dst in itertools.permutations(nodes, 2):
            assert zoned.route_links(src, dst) == flat.route_links(src, dst), \
                (src, dst)

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_flat_generators_stay_flat(self, generator):
        platform = generator()
        assert platform.zones == {}
        assert set(platform.root_zone.nodes) == set(all_nodes(platform))


def zero_byte_dates(platform, pairs):
    """Date a zero-byte message sent at 0 on each route ends at."""
    engine = platform.realize()
    flows = {engine.network_model.communicate(
        platform.route_resources(src, dst), 0.0): (src, dst)
        for src, dst in pairs}
    dates = {}
    while (result := engine.step()) is not None:
        for flow in result.completed:
            dates[flows[flow]] = result.time
    return dates


class TestZoneVsFlatLatency:
    """A zero-byte message costs its route's latency, zoned or flat."""

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_zero_byte_dates_match_zoned_and_flat(self, generator):
        flat = generator()
        zoned = wrap_in_zone(flat)
        pairs = list(itertools.permutations(flat.host_names()[:6], 2))
        dates = zero_byte_dates(flat, pairs)
        assert zero_byte_dates(zoned, pairs) == dates
        for src, dst in pairs:
            latency = sum(flat.links[name].latency
                          for name in flat.route_links(src, dst))
            assert dates[src, dst] == pytest.approx(latency), (src, dst)


class TestStrategyEquivalence:
    """Dijkstra and Floyd resolve identical routes, on demand vs sealed."""

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_floyd_matches_dijkstra_on_generators(self, generator):
        flat = generator()
        dijkstra = wrap_in_zone(flat, routing="Dijkstra")
        floyd = wrap_in_zone(flat, routing="Floyd")
        for src, dst in itertools.permutations(all_nodes(flat), 2):
            assert (floyd.route_links(src, dst)
                    == dijkstra.route_links(src, dst)), (src, dst)

    def test_floyd_reseals_after_mutation(self):
        platform = Platform("reseal")
        zone = platform.add_zone("z", routing="Floyd")
        for name in ("a", "b", "c"):
            zone.add_host(name, 1e9)
        platform.add_link("ab", 1e6, 1e-3)
        platform.add_link("bc", 1e6, 1e-3)
        zone.connect("a", "b", "ab")
        zone.connect("b", "c", "bc")
        assert platform.route_links("a", "c") == ["ab", "bc"]
        # A shortcut added later must be picked up (the platform cache is
        # invalidated on mutation, and the sealed table must re-seal).
        platform.add_link("ac", 1e6, 1e-6)
        platform.connect("a", "c", "ac")
        assert platform.route_links("a", "c") == ["ac"]

    def test_unknown_strategy_is_rejected(self):
        platform = Platform("bad")
        with pytest.raises(PlatformError, match="unknown routing strategy"):
            platform.add_zone("z", routing="Bellman-Ford")


def _random_graph_platform(edges, routing):
    """Platform with one zone of ``n`` hosts and the given weighted edges."""
    platform = Platform(f"fuzz-{routing}")
    zone = platform.add_zone("z", routing=routing)
    nodes = sorted({v for edge in edges for v in edge[:2]})
    for idx in nodes:
        zone.add_host(f"h{idx}", 1e9)
    for ename, (a, b, latency_us) in enumerate(edges):
        platform.add_link(f"l{ename}", 1e7, latency_us * 1e-6)
        zone.connect(f"h{a}", f"h{b}", f"l{ename}")
    return platform, [f"h{idx}" for idx in nodes]


_edge = st.tuples(st.integers(0, 7), st.integers(0, 7),
                  st.integers(1, 1000)).filter(lambda e: e[0] != e[1])


class TestDijkstraFloydFuzz:
    """Derandomized hypothesis cross-check on random weighted graphs."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(_edge, min_size=1, max_size=20))
    def test_routes_identical(self, edges):
        dijkstra, nodes = _random_graph_platform(edges, "Dijkstra")
        floyd, _ = _random_graph_platform(edges, "Floyd")
        for src, dst in itertools.permutations(nodes, 2):
            try:
                expected = dijkstra.route_links(src, dst)
            except NoRouteError:
                with pytest.raises(NoRouteError):
                    floyd.route_links(src, dst)
                continue
            assert floyd.route_links(src, dst) == expected, (src, dst)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.lists(_edge, min_size=3, max_size=14))
    def test_simulated_dates_identical(self, edges):
        def run(routing):
            platform, nodes = _random_graph_platform(edges, routing)
            candidates = [(nodes[i], nodes[(i + len(nodes) // 2) % len(nodes)])
                          for i in range(min(3, len(nodes) - 1))]
            pairs = []
            for src, dst in candidates:
                try:
                    if src != dst and platform.route_links(src, dst):
                        pairs.append((src, dst))
                except NoRouteError:
                    pass            # disconnected in both variants alike
            engine = Engine(platform)

            def sender(actor, box):
                yield actor.engine.mailbox(box).put(box, size=1e6)

            def receiver(actor, box):
                yield actor.engine.mailbox(box).get()

            for idx, (src, dst) in enumerate(pairs):
                engine.add_actor(f"s{idx}", src, sender, f"f{idx}")
                engine.add_actor(f"r{idx}", dst, receiver, f"f{idx}")
            return engine.run()

        assert run("Dijkstra") == run("Floyd")


# -- the from-scratch search the sealed trees must reproduce, link for link ------------

def _dijkstra_prev(zone, src, dst=None):
    """Deterministic Dijkstra over a zone's vertex graph (the test oracle).

    Verbatim the search ``src/`` ran per query until PR 12: predecessor map
    ``vertex -> (parent_vertex, link_name)``, weight = link latency plus a
    tiny epsilon, vertices settled in heap order with an insertion counter,
    improvements must beat the incumbent by more than 1e-15, and the search
    stops as soon as ``dst`` is settled.
    """
    links = zone.platform.links
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, 0, src)]
    counter = 1
    visited = set()
    while heap:
        d, _, vertex = heapq.heappop(heap)
        if vertex in visited:
            continue
        visited.add(vertex)
        if dst is not None and vertex == dst:
            break
        for neighbour, link_name in zone.adjacency.get(vertex, []):
            weight = links[link_name].latency + 1e-9
            nd = d + weight
            if neighbour not in dist or nd < dist[neighbour] - 1e-15:
                dist[neighbour] = nd
                prev[neighbour] = (vertex, link_name)
                heapq.heappush(heap, (nd, counter, neighbour))
                counter += 1
    return prev


def oracle_route(zone, src, dst):
    """What ``zone.local_route(src, dst)`` must return (or raise)."""
    spec = zone.routes.get((src, dst))
    if spec is not None:
        return list(spec.links)
    prev = _dijkstra_prev(zone, src, dst) if src in zone.adjacency else {}
    if dst not in prev:
        raise NoRouteError(f"oracle: no route from {src!r} to {dst!r}")
    path = []
    vertex = dst
    while vertex != src:
        vertex, link_name = prev[vertex]
        path.append(link_name)
    path.reverse()
    return path


# Few distinct latencies, so ties are the rule; 0.1/0.2/0.3 make sums that
# depend on the order of the additions (0.1 + 0.2 != 0.3 in doubles).
_LATENCIES = (1e-4, 2e-4, 3e-4, 0.1, 0.2, 0.3)
_latency = st.sampled_from(_LATENCIES)
_core_edge = st.tuples(st.integers(0, 4), st.integers(0, 4),
                       _latency).filter(lambda e: e[0] != e[1])
_leaf = st.tuples(st.integers(0, 4), _latency)      # (hub, access latency)
_override = st.tuples(st.integers(0, 11), st.integers(0, 11),
                      st.lists(st.integers(0, 30), max_size=3))
_zone_graph = st.tuples(st.lists(_core_edge, max_size=10),
                        st.lists(_leaf, max_size=6),
                        st.integers(0, 2),              # isolated vertices
                        st.lists(_override, max_size=2))


def _zone_of(names, edges, routing="Dijkstra"):
    """One zone holding hosts ``names`` joined by ``(a, b, latency)`` edges
    over links ``l0, l1, ...`` in edge order."""
    platform = Platform("fuzz")
    zone = platform.add_zone("z", routing=routing)
    for name in names:
        zone.add_host(name, 1e9)
    for index, (a, b, latency) in enumerate(edges):
        platform.add_link(f"l{index}", 1e7, latency)
        zone.connect(a, b, f"l{index}")
    return zone


def _leafy_zone(graph, routing="Dijkstra"):
    """A zone of core vertices ``c0..c4`` joined by (possibly parallel)
    edges, pendant leaves ``p<i>`` each on one access link, isolated
    vertices ``x<i>`` and a few explicit-route overrides."""
    core_edges, leaves, isolated, overrides = graph
    names = ([f"c{i}" for i in range(5)]
             + [f"p{i}" for i in range(len(leaves))]
             + [f"x{i}" for i in range(isolated)])
    edges = [(f"c{a}", f"c{b}", latency) for a, b, latency in core_edges]
    edges += [(f"p{index}", f"c{hub}", latency)
              for index, (hub, latency) in enumerate(leaves)]
    zone = _zone_of(names, edges, routing)
    for a, b, hops in overrides:
        src, dst = names[a % len(names)], names[b % len(names)]
        if src != dst and edges:
            zone.add_route(src, dst, [f"l{h % len(edges)}" for h in hops],
                           symmetric=False)
    return zone, names


@st.composite
def _ladder(draw):
    """Two chains of the *same* latencies in different orders between a hub
    and a join vertex, pendant leaves at both ends.  The chains tie in real
    arithmetic; which one wins is decided by how the doubles round, and
    that depends on the distance the search *starts* from — the reason a
    leaf's tree is keyed on its access latency."""
    rungs = draw(st.lists(_latency, min_size=2, max_size=4))
    chains = [rungs, draw(st.permutations(rungs))]
    join = draw(_latency)
    access = draw(st.lists(_latency, min_size=1, max_size=3))
    return chains, join, access


def _ladder_zone(ladder):
    chains, join, access = ladder
    names = ["hub", "join"]
    edges = []
    for side, chain in zip("ab", chains):
        previous = "hub"
        for index, latency in enumerate(chain):
            names.append(f"{side}{index}")
            edges.append((previous, names[-1], latency))
            previous = names[-1]
        edges.append((previous, "join", join))
    for index, latency in enumerate(access):
        names += [f"p{index}", f"q{index}"]
        edges.append((f"p{index}", "hub", latency))
        edges.append((f"q{index}", "join", latency))
    return _zone_of(names, edges), names


def _assert_zone_matches_oracle(zone, names):
    for src, dst in itertools.permutations(names, 2):
        try:
            expected = oracle_route(zone, src, dst)
        except NoRouteError:
            with pytest.raises(NoRouteError):
                zone.local_route(src, dst)
            continue
        assert zone.local_route(src, dst) == expected, (src, dst)


class TestSealedTreesMatchFromScratchSearch:
    """Leaf contraction and shared sealed trees are exact: every route —
    and every ``NoRouteError`` — equals the per-query early-stopping
    search, on graphs built to provoke ties and rounding differences."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_zone_graph)
    def test_routes_identical_to_oracle(self, graph):
        zone, names = _leafy_zone(graph)
        _assert_zone_matches_oracle(zone, names)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_ladder())
    def test_rounding_ties_identical_to_oracle(self, ladder):
        _assert_zone_matches_oracle(*_ladder_zone(ladder))

    def test_tree_start_distance_decides_a_rounding_tie(self):
        # hub -a- 0.1 ms then 200 ms, hub -b- 200 ms then 0.1 ms: a tie
        # from the hub (0.0 + x + y == 0.0 + y + x, first pushed wins), but
        # one side is an ulp shorter behind a 0.1 ms access link.  A leaf
        # reading the hub's own tree would take the wrong side.
        ladder = ([[1e-4, 0.2], [0.2, 1e-4]], 0.3, [1e-4])
        zone, names = _ladder_zone(ladder)
        from_hub = zone.local_route("hub", "join")
        from_leaf = zone.local_route("p0", "join")
        assert from_leaf == oracle_route(zone, "p0", "join")
        assert from_hub == oracle_route(zone, "hub", "join")
        assert from_leaf[1:] != from_hub
        _assert_zone_matches_oracle(zone, names)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_zone_graph)
    def test_identical_when_the_tree_lru_thrashes(self, graph):
        zone, names = _leafy_zone(graph, routing="Floyd")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routing, "_TREE_ENTRY_BUDGET", 1)   # 4 trees
            _assert_zone_matches_oracle(zone, names)
            trees = zone.strategy._trees
            assert trees is None or trees.stats()["size"] <= 4

    def test_leaves_share_one_tree_per_access_latency(self):
        names = [f"h{index}" for index in range(5)] + ["hub"]
        zone = _zone_of(names, [
            (f"h{index}", "hub", latency) for index, latency
            in enumerate((1e-4, 1e-4, 2e-4, 1e-4, 2e-4))])
        _assert_zone_matches_oracle(zone, names)
        stats = zone.platform.routing_stats()
        # Two access latencies + the hub as a source of its own.
        assert stats["trees_sealed"] == 3
        # Leaf -> hub needs no tree at all; every other pair is one lookup.
        assert stats["tree_lookups"] == 5 * 4 + 5

    def test_explicit_route_wins_only_for_its_exact_pair(self):
        platform = make_star(num_hosts=3)
        platform.add_link("detour", 1e7, 1.0)
        platform.add_route("leaf-0", "leaf-1", ["detour"], symmetric=False)
        assert platform.route_links("leaf-0", "leaf-1") == ["detour"]
        assert platform.route_links("leaf-1", "leaf-0") == \
            ["leaf-link-1", "leaf-link-0"]
        assert platform.route_links("leaf-0", "leaf-2") == \
            ["leaf-link-0", "leaf-link-2"]


class TestRoutingWorkScaling:
    """Wall-clock-free pin of route cost (ROADMAP open item 5): a leaf
    source must not pay for its hub's edges."""

    def test_star_site_relaxations_are_linear_in_hosts(self):
        per_host = {}
        for hosts in (64, 1024):
            platform = make_zoned_grid(num_sites=1, hosts_per_site=hosts,
                                       site_routing="Dijkstra")
            for index in range(1, hosts):
                platform.route_links(f"site-0-host-{index}", "site-0-host-0")
            stats = platform.routing_stats()
            assert stats["trees_sealed"] == 1
            assert stats["tree_lookups"] == hosts - 1
            per_host[hosts] = stats["relaxations"] / hosts
        # One tree for the whole site: the gateway's H edges plus one per
        # leaf.  The from-scratch search relaxed ~H edges per *route*.
        assert per_host[64] == per_host[1024] == 2.0

    def test_counters_surface_in_kernel_stats(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=4)
        engine = Engine(platform)
        platform.route_links("site-0-host-1", "site-1-host-2")
        stats = engine.kernel_stats()
        assert stats["routing"] == platform.routing_stats()
        assert stats["routing"]["trees_sealed"] >= 1
        assert set(stats["route_caches"]) == {"routes", "resource_routes"}


class TestHierarchicalRoutes:
    """Route composition across the zone tree (gateway concatenation)."""

    def test_zoned_grid_route_is_lan_wan_wan_lan(self):
        platform = make_zoned_grid(num_sites=3, hosts_per_site=4)
        assert platform.route_links("site-0-host-1", "site-2-host-3") == \
            ["site-0-lan-1", "wan-0", "wan-2", "site-2-lan-3"]

    def test_intra_site_route_stays_inside_the_zone(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=4)
        assert platform.route_links("site-1-host-0", "site-1-host-2") == \
            ["site-1-lan-0", "site-1-lan-2"]

    def test_route_from_gateway_omits_the_lan_hop(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        assert platform.route_links("site-0-gw", "site-1-host-1") == \
            ["wan-0", "wan-1", "site-1-lan-1"]

    def test_loopback_is_empty(self):
        platform = make_zoned_grid(num_sites=1, hosts_per_site=2)
        assert platform.route_links("site-0-host-0", "site-0-host-0") == []

    def test_nested_zones_route_through_both_gateways(self):
        platform = Platform("nested")
        outer = platform.add_zone("outer")
        inner = platform.add_zone("inner", parent=outer)
        inner.add_router("inner-gw")
        inner.add_host("deep", 1e9)
        outer.add_router("outer-gw")
        platform.add_host("top", 1e9)
        platform.add_link("deep-lan", 1e6, 1e-3)
        inner.connect("deep", "inner-gw", "deep-lan")
        platform.add_link("inner-up", 1e6, 1e-3)
        outer.connect("inner", "outer-gw", "inner-up")
        platform.add_link("outer-up", 1e6, 1e-3)
        platform.connect("outer", "top", "outer-up")
        assert platform.route_links("deep", "top") == \
            ["deep-lan", "inner-up", "outer-up"]
        assert platform.route_links("top", "deep") == \
            ["outer-up", "inner-up", "deep-lan"]

    def test_unrelated_zone_trees_have_no_route(self):
        platform = Platform("split")
        left = platform.add_zone("left")
        right = platform.add_zone("right")
        left.add_host("a", 1e9)
        right.add_host("b", 1e9)
        with pytest.raises(NoRouteError):
            resolve_route(platform, "a", "b")

    def test_explicit_gateway_overrides_first_node(self):
        platform = Platform("gw")
        default = platform.add_zone("default")
        explicit = platform.add_zone("explicit", gateway="e1")
        for zone, prefix in ((default, "d"), (explicit, "e")):
            zone.add_host(f"{prefix}0", 1e9)
            zone.add_host(f"{prefix}1", 1e9)
        assert (default.gateway, explicit.gateway) == ("d0", "e1")

    def test_empty_zone_has_no_gateway(self):
        platform = Platform("empty")
        zone = platform.add_zone("void")
        with pytest.raises(PlatformError, match="no gateway"):
            zone.gateway

    def test_cross_zone_edge_must_be_declared_in_common_ancestor(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=1)
        platform2 = make_zoned_grid(num_sites=2, hosts_per_site=1)
        del platform2
        with pytest.raises(PlatformError, match="not vertices of the same"):
            platform.connect("site-0-host-0", "site-1-host-0", "wan-0")


class TestRouteCaches:
    """LRU-bounded caches: hit/miss/eviction counters, copy semantics."""

    def test_lru_cache_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                   # evicts "b"
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.get("b") is None       # evicted: a miss
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_unbounded_cache_never_evicts(self):
        cache = LRUCache(maxsize=None)
        for i in range(100):
            cache.put(i, i)
        assert cache.stats()["size"] == 100
        assert cache.stats()["evictions"] == 0

    def test_platform_route_cache_is_bounded(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=8,
                                   site_routing="Dijkstra")
        platform.route_cache_size = 4
        platform._route_cache = LRUCache(4)
        hosts = [f"site-{s}-host-{i}" for s in range(2) for i in range(8)]
        for src, dst in itertools.permutations(hosts, 2):
            platform.route_links(src, dst)
        stats = platform.route_cache_stats()["routes"]
        assert stats["size"] <= 4
        assert stats["evictions"] > 0

    def test_route_links_returns_a_fresh_copy(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        route = platform.route_links("site-0-host-0", "site-1-host-1")
        route.clear()
        assert platform.route_links("site-0-host-0", "site-1-host-1") != []

    def test_repeated_queries_hit_the_cache(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        platform.route_links("site-0-host-0", "site-1-host-0")
        before = platform.route_cache_stats()["routes"]["hits"]
        platform.route_links("site-0-host-0", "site-1-host-0")
        after = platform.route_cache_stats()["routes"]["hits"]
        assert after == before + 1

    def test_topology_mutation_invalidates_cached_routes(self):
        platform = Platform("mutate")
        for name in ("a", "b"):
            platform.add_host(name, 1e9)
        platform.add_link("slow", 1e6, 1e-2)
        platform.connect("a", "b", "slow")
        assert platform.route_links("a", "b") == ["slow"]
        platform.add_link("fast", 1e6, 1e-6)
        platform.connect("a", "b", "fast")
        assert platform.route_links("a", "b") == ["fast"]

    def test_route_resources_returns_tuple(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        platform.realize()
        resources = platform.route_resources("site-0-host-0", "site-1-host-1")
        assert isinstance(resources, tuple)
        assert [r.name for r in resources] == \
            platform.route_links("site-0-host-0", "site-1-host-1")


class TestLazyRealization:
    """``realize()`` materializes resources in O(touched)."""

    def test_untouched_platform_materializes_nothing(self):
        platform = make_zoned_grid(num_sites=10, hosts_per_site=20)
        platform.realize()
        assert platform.cpu_by_host == {}
        assert platform.link_by_name == {}

    def test_one_route_touches_only_its_links(self):
        platform = make_zoned_grid(num_sites=10, hosts_per_site=20)
        platform.realize()
        resources = platform.route_resources("site-0-host-0", "site-9-host-19")
        assert len(platform.link_by_name) == len(resources) == 4
        platform.cpu_of("site-0-host-0")
        assert len(platform.cpu_by_host) == 1

    def test_traced_resources_materialize_eagerly(self):
        from repro.surf.trace import Trace
        platform = Platform("traced")
        zone = platform.add_zone("z")
        zone.add_host("watched", 1e9,
                      availability_trace=Trace([(0.0, 1.0), (5.0, 0.5)],
                                               period=10.0))
        zone.add_host("plain", 1e9)
        platform.add_link("wire", 1e6, 1e-3)
        zone.connect("watched", "plain", "wire")
        platform.realize()
        assert set(platform.cpu_by_host) == {"watched"}
        assert platform.link_by_name == {}

    def test_materialization_order_does_not_change_dates(self):
        def run(touch_all_first):
            platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
            platform.realize()
            if touch_all_first:
                # Constraint ids are declaration indices, so touching
                # every resource up front, in reverse, must not move a
                # date.
                for name in reversed(platform.host_names()):
                    platform.cpu_of(name)
                for name in reversed(sorted(platform.links)):
                    platform.link_resource(name)
            engine = Engine(platform)

            def sender(actor):
                yield actor.engine.mailbox("x").put("x", size=1e6)

            def receiver(actor):
                yield actor.engine.mailbox("x").get()
                yield actor.execute(1e9)

            engine.add_actor("s", "site-0-host-0", sender)
            engine.add_actor("r", "site-1-host-1", receiver)
            return engine.run()

        assert run(touch_all_first=True) == run(touch_all_first=False)

    def test_large_zoned_platform_realizes_lazily_in_o_touched(self):
        # Realization must not scale with platform size, only with what
        # the simulation touches.
        platform = make_zoned_grid(num_sites=100, hosts_per_site=100)
        assert len(platform.hosts) == 10_000
        platform.realize()
        engine = Engine(platform)

        def sender(actor):
            yield actor.engine.mailbox("ping").put("ping", size=1e6)

        def receiver(actor):
            yield actor.engine.mailbox("ping").get()

        engine.add_actor("s", "site-0-host-0", sender)
        engine.add_actor("r", "site-99-host-99", receiver)
        engine.run()
        assert len(platform.cpu_by_host) == 2
        assert len(platform.link_by_name) == 4
