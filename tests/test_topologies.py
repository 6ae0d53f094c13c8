"""Tests for the topology generators (clusters, stars, dumbbells, BRITE)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.platform import (
    make_client_server_lan,
    make_cluster,
    make_dumbbell,
    make_star,
    make_two_site_grid,
    make_waxman_topology,
)
from repro.platform.brite import BriteConfig, random_flows


class TestCluster:
    def test_cluster_has_expected_hosts_and_links(self):
        platform = make_cluster(num_hosts=4)
        assert len(platform.hosts) == 4
        # 4 private links + backbone
        assert len(platform.links) == 5

    def test_cluster_routes_cross_backbone(self):
        platform = make_cluster(num_hosts=4)
        route = platform.route_links("node-0", "node-3")
        assert "backbone" in route
        assert route[0] == "node-link-0"
        assert route[-1] == "node-link-3"

    def test_cluster_needs_one_host(self):
        with pytest.raises(ValueError):
            make_cluster(num_hosts=0)


class TestStarAndDumbbell:
    def test_star_center_is_a_host(self):
        platform = make_star(num_hosts=3, center_name="master")
        assert "master" in platform.hosts
        assert platform.route_links("leaf-0", "master") == ["leaf-link-0"]

    def test_dumbbell_bottleneck_on_cross_routes(self):
        platform = make_dumbbell(num_left=2, num_right=2)
        route = platform.route_links("left-0", "right-1")
        assert "bottleneck" in route
        same_side = platform.route_links("left-0", "left-1")
        assert "bottleneck" not in same_side

    def test_two_site_grid_wan_between_sites(self):
        platform = make_two_site_grid(hosts_per_site=2)
        cross = platform.route_links("siteA-0", "siteB-1")
        assert "wan" in cross
        local = platform.route_links("siteA-0", "siteA-1")
        assert "wan" not in local

    def test_client_server_lan_shape(self):
        platform = make_client_server_lan(num_clients=3, num_servers=2)
        assert len([h for h in platform.hosts if h.startswith("client")]) == 3
        assert len([h for h in platform.hosts if h.startswith("server")]) == 2
        route = platform.route_links("client-0", "server-0")
        assert "internet" in route and "hub-switch" in route


class TestBrite:
    def test_waxman_is_deterministic_for_a_seed(self):
        p1 = make_waxman_topology(num_nodes=10, seed=3)
        p2 = make_waxman_topology(num_nodes=10, seed=3)
        assert list(p1.links) == list(p2.links)
        assert ([p1.links[n].bandwidth for n in p1.links]
                == [p2.links[n].bandwidth for n in p2.links])

    def test_waxman_different_seeds_differ(self):
        p1 = make_waxman_topology(num_nodes=10, seed=1)
        p2 = make_waxman_topology(num_nodes=10, seed=2)
        assert ([p1.links[n].bandwidth for n in p1.links]
                != [p2.links[n].bandwidth for n in p2.links])

    def test_waxman_bandwidths_in_configured_range(self):
        config = BriteConfig(bw_min=1e6, bw_max=2e6)
        platform = make_waxman_topology(num_nodes=8, seed=5, config=config)
        for link in platform.links.values():
            assert 1e6 <= link.bandwidth <= 2e6

    def test_random_flows_have_distinct_endpoints(self):
        platform = make_waxman_topology(num_nodes=10, seed=42)
        flows = random_flows(platform, num_flows=10, seed=7)
        assert len(flows) == 10
        for src, dst in flows:
            assert src != dst

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BriteConfig(alpha=0.0)
        with pytest.raises(ValueError):
            BriteConfig(bw_min=10.0, bw_max=1.0)
        with pytest.raises(ValueError):
            BriteConfig(lat_min=0.1, lat_max=None)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=1000))
def test_property_waxman_always_connected(num_nodes, seed):
    """Every generated topology is connected: all host pairs have a route."""
    platform = make_waxman_topology(num_nodes=num_nodes, seed=seed)
    hosts = platform.host_names()
    source = hosts[0]
    for dst in hosts[1:]:
        assert platform.route_links(source, dst), f"{source}->{dst} unroutable"
