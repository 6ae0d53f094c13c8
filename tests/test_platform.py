"""Tests for platform description, routing, realization and file loading."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoRouteError, PlatformError
from repro.platform import Platform, load_platform
from repro.platform.loader import parse_quantity


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

    def test_unknown_node_raises(self):
        platform = small_platform()
        with pytest.raises(PlatformError):
            platform.route_links("a", "ghost")

    def test_zero_byte_message_costs_the_route_latency(self):
        """The latency of a route is the sum of its links' latencies."""
        platform = small_platform()
        engine = platform.realize()
        engine.network_model.communicate(platform.route_resources("a", "b"),
                                         0.0)
        assert engine.step().time == pytest.approx(0.003)


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
        assert engine.cpu_model.cpus["a"].speed == 1e9
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


class TestXmlLoading:
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

    @pytest.mark.parametrize("xml, message", [
        ('<platform><link id="lnk" latency="1ms"/></platform>',
         "<link 'lnk'> has no 'bandwidth' attribute"),
        ('<platform><host speed="1Gf"/></platform>',
         "<host> has no 'id' attribute"),
        ('<platform><host id="h" core="two"/></platform>',
         "<host 'h'>: core 'two' is not a whole number"),
        ('<platform><host id="h" speed="1Gf">',
         "malformed platform XML"),
        ('<platform><link bandwidth="1MBps"/></platform>',
         "<link> has no 'id' attribute"),
        ('<platform><router/></platform>',
         "<router> has no 'id' attribute"),
        ('<platform><host id="a"/><host id="b"/>'
         '<link id="l" bandwidth="1MBps"/>'
         '<route src="a" dst="b"><link_ctn/></route></platform>',
         "<link_ctn> has no 'id' attribute"),
        ('<platform><host id="a"/><link id="l" bandwidth="1MBps"/>'
         '<route src="a"><link_ctn id="l"/></route></platform>',
         "<route> has no 'dst' attribute"),
        ('<platform><host id="h" speed="fast"/></platform>',
         "<host 'h'>: cannot parse quantity 'fast'"),
        ('<platform><link id="l" bandwidth="10Qbps"/></platform>',
         "<link 'l'>: unknown unit 'Qbps'"),
        ('<platform><link id="l" bandwidth="1MBps" latency="soon"/>'
         '</platform>',
         "<link 'l'>: cannot parse quantity 'soon'"),
        ('<zone id="z"><host id="h"/></zone>',
         "XML root element must be <platform>"),
        ('<platform><host id="a"/><host id="b"/>'
         '<route src="a" dst="b"><link_ctn id="ghost"/></route></platform>',
         "unknown link 'ghost'"),
    ], ids=["link-without-bandwidth", "host-without-id", "core-not-a-number",
            "unclosed", "link-without-id", "router-without-id",
            "link-ctn-without-id", "route-without-dst", "speed-not-a-quantity",
            "unknown-bandwidth-unit", "latency-not-a-quantity", "wrong-root",
            "route-through-unknown-link"])
    def test_malformed_xml_rejected_naming_the_element(self, tmp_path, xml,
                                                        message):
        path = os.path.join(tmp_path, "bad.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(xml)
        with pytest.raises(PlatformError) as err:
            load_platform(path)
        assert message in str(err.value)

    @staticmethod
    def _load(tmp_path, xml):
        path = os.path.join(tmp_path, "p.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(xml)
        return load_platform(path)

    def test_loaded_platform_times_a_transfer(self, tmp_path):
        """A 1 MB message over a 100 MBps, 50 us link ends at 50 us + 10 ms."""
        platform = self._load(tmp_path, """<platform version="4">
          <host id="alpha" speed="1Gf"/>
          <host id="beta" speed="1Gf"/>
          <link id="lnk" bandwidth="100MBps" latency="50us"/>
          <route src="alpha" dst="beta"><link_ctn id="lnk"/></route>
        </platform>""")
        engine = platform.realize()
        flow = engine.network_model.communicate(
            platform.route_resources("alpha", "beta"), 1e6)
        assert engine.step().time == pytest.approx(50e-6)   # latency phase
        result = engine.step()
        assert flow in result.completed
        assert result.time == pytest.approx(50e-6 + 1e6 / 100e6)

    def test_fatpipe_sharing_policy_is_not_shared(self, tmp_path):
        platform = self._load(tmp_path, """<platform>
          <link id="shared" bandwidth="1MBps"/>
          <link id="backbone" bandwidth="1MBps" sharing_policy="FATPIPE"/>
        </platform>""")
        assert platform.links["shared"].shared
        assert not platform.links["backbone"].shared

    def test_hosts_inside_zone_and_as_elements_are_loaded(self, tmp_path):
        platform = self._load(tmp_path, """<platform version="4">
          <zone id="site" routing="Full">
            <host id="h0" speed="1Gf"/>
            <host id="h1" power="2Gf"/>
            <link id="l" bandwidth="1MBps"/>
            <route src="h0" dst="h1"><link_ctn id="l"/></route>
          </zone>
          <AS id="legacy" routing="Full"><host id="h2"/></AS>
        </platform>""")
        assert platform.host_names() == ["h0", "h1", "h2"]
        assert platform.hosts["h1"].speed == pytest.approx(2e9)
        assert platform.route_links("h1", "h0") == ["l"]

    def test_asymmetric_route_has_no_reverse(self, tmp_path):
        platform = self._load(tmp_path, """<platform>
          <host id="a"/><host id="b"/>
          <link id="l" bandwidth="1MBps"/>
          <route src="a" dst="b" symmetrical="NO"><link_ctn id="l"/></route>
        </platform>""")
        assert platform.route_links("a", "b") == ["l"]
        with pytest.raises(NoRouteError):
            platform.route_links("b", "a")


class TestQuantityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("1Gf", 1e9),
        ("2.5MF", 2.5e6),
        ("100MBps", 100e6),
        ("1Gbps", 125e6),
        ("50us", 50e-6),
        ("10ms", 0.01),
        ("3", 3.0),
        ("1kBps", 1e3),
        ("1GiBps", 1024.0 ** 3),
        ("8Mbps", 1e6),
        ("3ns", 3e-9),
        ("1TF", 1e12),
    ])
    def test_parse_quantity(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "fast", "Gf", "10Qbps"])
    def test_malformed_quantity_rejected_naming_it(self, text):
        with pytest.raises(PlatformError, match=repr(text)):
            parse_quantity(text)

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
