"""Tests for platform description, routing, realization and file loading."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoRouteError, PlatformError
from repro.platform import Platform, load_platform, save_platform
from repro.platform.loader import parse_quantity, platform_from_dict, platform_to_dict
from repro.surf.trace import Trace


def small_platform():
    platform = Platform("small")
    platform.add_host("a", 1e9)
    platform.add_host("b", 2e9)
    platform.add_router("r")
    platform.add_link("a-r", 1e6, 0.001)
    platform.add_link("r-b", 2e6, 0.002)
    platform.connect("a", "r", "a-r")
    platform.connect("r", "b", "r-b")
    return platform


class TestDescription:
    def test_duplicate_host_rejected(self):
        platform = Platform()
        platform.add_host("a", 1e9)
        with pytest.raises(PlatformError):
            platform.add_host("a", 2e9)

    def test_duplicate_link_rejected(self):
        platform = Platform()
        platform.add_link("l", 1e6)
        with pytest.raises(PlatformError):
            platform.add_link("l", 1e6)

    def test_router_and_host_namespace_shared(self):
        platform = Platform()
        platform.add_host("x", 1e9)
        with pytest.raises(PlatformError):
            platform.add_router("x")

    def test_invalid_speed_rejected(self):
        platform = Platform()
        with pytest.raises(PlatformError):
            platform.add_host("bad", 0.0)

    def test_route_with_unknown_link_rejected(self):
        platform = Platform()
        platform.add_host("a", 1e9)
        platform.add_host("b", 1e9)
        with pytest.raises(PlatformError):
            platform.add_route("a", "b", ["nope"])

    def test_connect_unknown_node_rejected(self):
        platform = Platform()
        platform.add_host("a", 1e9)
        platform.add_link("l", 1e6)
        with pytest.raises(PlatformError):
            platform.connect("a", "ghost", "l")


class TestRouting:
    def test_loopback_route_is_empty(self):
        platform = small_platform()
        assert platform.route_links("a", "a") == []

    def test_graph_route_through_router(self):
        platform = small_platform()
        assert platform.route_links("a", "b") == ["a-r", "r-b"]
        assert platform.route_links("b", "a") == ["r-b", "a-r"]

    def test_explicit_route_takes_precedence(self):
        platform = small_platform()
        platform.add_link("direct", 1e7, 0.0001)
        platform.add_route("a", "b", ["direct"])
        assert platform.route_links("a", "b") == ["direct"]
        # symmetric route added automatically
        assert platform.route_links("b", "a") == ["direct"]

    def test_asymmetric_route(self):
        platform = small_platform()
        platform.add_link("one-way", 1e7, 0.0001)
        platform.add_route("a", "b", ["one-way"], symmetric=False)
        assert platform.route_links("a", "b") == ["one-way"]
        assert platform.route_links("b", "a") == ["r-b", "a-r"]

    def test_no_route_raises(self):
        platform = Platform()
        platform.add_host("a", 1e9)
        platform.add_host("isolated", 1e9)
        platform.add_link("l", 1e6)
        platform.add_router("r")
        platform.connect("a", "r", "l")
        with pytest.raises(NoRouteError):
            platform.route_links("a", "isolated")

    def test_dijkstra_prefers_lower_latency(self):
        platform = Platform()
        platform.add_host("a", 1e9)
        platform.add_host("b", 1e9)
        platform.add_router("slow")
        platform.add_router("fast")
        for name, lat in (("a-slow", 0.1), ("slow-b", 0.1),
                          ("a-fast", 0.001), ("fast-b", 0.001)):
            platform.add_link(name, 1e6, lat)
        platform.connect("a", "slow", "a-slow")
        platform.connect("slow", "b", "slow-b")
        platform.connect("a", "fast", "a-fast")
        platform.connect("fast", "b", "fast-b")
        assert platform.route_links("a", "b") == ["a-fast", "fast-b"]

    def test_route_latency_sums_links(self):
        platform = small_platform()
        assert platform.route_latency("a", "b") == pytest.approx(0.003)

    def test_unknown_node_raises(self):
        platform = small_platform()
        with pytest.raises(PlatformError):
            platform.route_links("a", "ghost")


class TestRealization:
    def test_realize_materializes_on_first_touch(self):
        platform = small_platform()
        engine = platform.realize()
        assert platform.realized
        # Nothing is materialized until touched...
        assert not platform.cpu_by_host and not platform.link_by_name
        # ...and first touch materializes with the declaration-pinned id.
        cpu_b = platform.cpu_of("b")
        cpu_a = platform.cpu_of("a")
        assert cpu_a.constraint.id == 0 and cpu_b.constraint.id == 1
        assert engine.cpu_model.resource_of("a").speed == 1e9
        platform.route_resources("a", "b")
        assert set(platform.link_by_name) == {"a-r", "r-b"}

    def test_realize_twice_rejected(self):
        platform = small_platform()
        platform.realize()
        with pytest.raises(PlatformError):
            platform.realize()

    def test_describe_after_realize_rejected(self):
        platform = small_platform()
        platform.realize()
        with pytest.raises(PlatformError):
            platform.add_host("late", 1e9)

    def test_route_resources_requires_realization(self):
        platform = small_platform()
        with pytest.raises(PlatformError):
            platform.route_resources("a", "b")
        platform.realize()
        links = platform.route_resources("a", "b")
        assert [l.name for l in links] == ["a-r", "r-b"]

    def test_route_resources_memoized_after_realization(self):
        """The comm hot path gets the same resolved list object back."""
        platform = small_platform()
        platform.realize()
        first = platform.route_resources("a", "b")
        assert first is platform.route_resources("a", "b")
        assert [l.name for l in first] == ["a-r", "r-b"]
        # distinct endpoint pairs get distinct cache entries
        reverse = platform.route_resources("b", "a")
        assert [l.name for l in reverse] == ["r-b", "a-r"]
        assert reverse is platform.route_resources("b", "a")

    def test_cpu_of_unknown_host(self):
        platform = small_platform()
        platform.realize()
        with pytest.raises(PlatformError):
            platform.cpu_of("ghost")


class TestSerialization:
    def test_dict_roundtrip_preserves_structure(self):
        platform = small_platform()
        platform.add_route("a", "b", ["a-r", "r-b"])
        data = platform_to_dict(platform)
        rebuilt = platform_from_dict(data)
        assert rebuilt.host_names() == platform.host_names()
        assert rebuilt.link_names() == platform.link_names()
        assert rebuilt.route_links("a", "b") == platform.route_links("a", "b")

    def test_traces_survive_roundtrip(self):
        platform = Platform()
        platform.add_host("volatile", 1e9,
                          state_trace=Trace([(10.0, 0.0)], name="t"),
                          availability_trace=Trace([(0.0, 0.5)], period=5.0))
        data = platform_to_dict(platform)
        rebuilt = platform_from_dict(data)
        spec = rebuilt.hosts["volatile"]
        assert spec.state_trace.events[0].time == 10.0
        assert spec.availability_trace.period == 5.0

    def test_json_file_roundtrip(self, tmp_path):
        platform = small_platform()
        path = os.path.join(tmp_path, "platform.json")
        save_platform(platform, path)
        loaded = load_platform(path)
        assert loaded.host_names() == ["a", "b"]
        assert loaded.route_links("a", "b") == ["a-r", "r-b"]

    def test_xml_loading(self, tmp_path):
        xml = """<platform version="4">
          <host id="alpha" speed="2Gf"/>
          <host id="beta" speed="500Mf" core="2"/>
          <link id="lnk" bandwidth="100MBps" latency="50us"/>
          <route src="alpha" dst="beta"><link_ctn id="lnk"/></route>
        </platform>"""
        path = os.path.join(tmp_path, "p.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(xml)
        platform = load_platform(path)
        assert platform.hosts["alpha"].speed == pytest.approx(2e9)
        assert platform.hosts["beta"].cores == 2
        assert platform.links["lnk"].bandwidth == pytest.approx(100e6 * 1.0)
        assert platform.links["lnk"].latency == pytest.approx(50e-6)
        assert platform.route_links("alpha", "beta") == ["lnk"]


class TestQuantityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("1Gf", 1e9),
        ("2.5MF", 2.5e6),
        ("100MBps", 100e6),
        ("1Gbps", 125e6),
        ("50us", 50e-6),
        ("10ms", 0.01),
        ("3", 3.0),
        (4.5, 4.5),
    ])
    def test_parse_quantity(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected)

    def test_unknown_unit_rejected(self):
        with pytest.raises(PlatformError):
            parse_quantity("12 parsecs")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_property_star_all_pairs_routable(num_leaves):
    """In any star platform, every pair of hosts has a route of <= 2 links."""
    from repro.platform import make_star
    platform = make_star(num_hosts=num_leaves)
    hosts = platform.host_names()
    for src in hosts:
        for dst in hosts:
            route = platform.route_links(src, dst)
            if src == dst:
                assert route == []
            else:
                assert 1 <= len(route) <= 2
