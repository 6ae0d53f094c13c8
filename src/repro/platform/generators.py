"""Ready-made platform topologies.

The paper motivates SimGrid with a list of target applications, each tied to
a platform class: *a commodity cluster*, *a network of workstations*, *a
multi-site high-end grid platform*, *a wide-area network*, *volatile
Internet hosts*.  These factory functions build representative instances of
those platform classes so examples, tests and benchmarks don't re-invent
them.

All bandwidths are in bytes/s, latencies in seconds, speeds in flop/s.
A figure no caller varies is a module constant: the cluster's private
links and backbone (``CLUSTER_*``), the dumbbell's hosts and access links
(``DUMBBELL_*``) and every speed and link of the client/server LAN
(``LAN_*``).
"""

from __future__ import annotations

from repro.platform.platform import Platform

__all__ = ["make_cluster", "make_star", "make_dumbbell", "make_two_site_grid",
           "make_client_server_lan", "make_zoned_grid"]

CLUSTER_LINK_BANDWIDTH = 125e6
CLUSTER_LINK_LATENCY = 50e-6
CLUSTER_BACKBONE_BANDWIDTH = 1.25e9
CLUSTER_BACKBONE_LATENCY = 500e-6

DUMBBELL_HOST_SPEED = 1e9
DUMBBELL_EDGE_BANDWIDTH = 125e6
DUMBBELL_EDGE_LATENCY = 1e-3

LAN_CLIENT_SPEED = 5e8
LAN_SERVER_SPEED = 2e9
LAN_HUB_BANDWIDTH = 1.25e6
LAN_HUB_LATENCY = 1e-4
LAN_UPLINK_BANDWIDTH = 1.25e7
LAN_UPLINK_LATENCY = 5e-4
LAN_INTERNET_BANDWIDTH = 6.25e5
LAN_INTERNET_LATENCY = 2e-2


def make_cluster(num_hosts: int = 8,
                 host_speed: float = 1e9) -> Platform:
    """A commodity cluster: hosts behind private links and a shared backbone.

    Every host ``node-<i>`` has a private up/down link
    (``CLUSTER_LINK_*``) to the cluster backbone
    (``CLUSTER_BACKBONE_*``); a transfer between two hosts crosses
    ``link-src``, the backbone, and ``link-dst`` — the classic SimGrid
    cluster model.
    """
    if num_hosts < 1:
        raise ValueError("a cluster needs at least one host")
    platform = Platform("cluster")
    switch = platform.add_router("node-switch")
    platform.add_link("backbone", CLUSTER_BACKBONE_BANDWIDTH,
                      CLUSTER_BACKBONE_LATENCY, shared=True)
    for i in range(num_hosts):
        host = platform.add_host(f"node-{i}", host_speed)
        link = platform.add_link(f"node-link-{i}", CLUSTER_LINK_BANDWIDTH,
                                 CLUSTER_LINK_LATENCY)
        platform.connect(host.name, switch, link.name)
    # route through private link + backbone + private link: encode the
    # backbone by inserting it as an edge from the switch to itself is not
    # possible, so declare explicit routes instead.
    for i in range(num_hosts):
        for j in range(num_hosts):
            if i == j:
                continue
            platform.add_route(f"node-{i}", f"node-{j}",
                               [f"node-link-{i}", "backbone",
                                f"node-link-{j}"],
                               symmetric=False)
    return platform


def make_star(num_hosts: int = 5,
              host_speed: float = 1e9,
              link_bandwidth: float = 1.25e7,
              link_latency: float = 5e-3,
              center_name: str = "center",
              prefix: str = "leaf",
              name: str = "star") -> Platform:
    """A network of workstations: leaves around a central host.

    The centre is itself a host (e.g. the master of a master/worker
    application); each leaf is connected by its own link.
    """
    if num_hosts < 1:
        raise ValueError("a star needs at least one leaf")
    platform = Platform(name)
    platform.add_host(center_name, host_speed)
    for i in range(num_hosts):
        leaf = platform.add_host(f"{prefix}-{i}", host_speed)
        link = platform.add_link(f"{prefix}-link-{i}", link_bandwidth,
                                 link_latency)
        platform.connect(leaf.name, center_name, link.name)
    return platform


def make_dumbbell(num_left: int = 3, num_right: int = 3,
                  bottleneck_bandwidth: float = 12.5e6,
                  bottleneck_latency: float = 10e-3) -> Platform:
    """The classic dumbbell: two access trees around one bottleneck link.

    This is the canonical topology for studying how concurrent TCP flows
    share a bottleneck — the resource-sharing scenario of the SURF panel.
    Hosts run at ``DUMBBELL_HOST_SPEED`` behind ``DUMBBELL_EDGE_*`` links.
    """
    platform = Platform("dumbbell")
    left_router = platform.add_router("router-left")
    right_router = platform.add_router("router-right")
    platform.add_link("bottleneck", bottleneck_bandwidth, bottleneck_latency)
    platform.connect(left_router, right_router, "bottleneck")
    for i in range(num_left):
        host = platform.add_host(f"left-{i}", DUMBBELL_HOST_SPEED)
        link = platform.add_link(f"left-link-{i}", DUMBBELL_EDGE_BANDWIDTH,
                                 DUMBBELL_EDGE_LATENCY)
        platform.connect(host.name, left_router, link.name)
    for i in range(num_right):
        host = platform.add_host(f"right-{i}", DUMBBELL_HOST_SPEED)
        link = platform.add_link(f"right-link-{i}", DUMBBELL_EDGE_BANDWIDTH,
                                 DUMBBELL_EDGE_LATENCY)
        platform.connect(host.name, right_router, link.name)
    return platform


def make_two_site_grid(hosts_per_site: int = 4,
                       host_speed: float = 2e9,
                       lan_bandwidth: float = 125e6,
                       lan_latency: float = 100e-6,
                       wan_bandwidth: float = 12.5e6,
                       wan_latency: float = 50e-3,
                       name: str = "grid") -> Platform:
    """A multi-site grid: two clusters joined by a wide-area link.

    Models the paper's "scientific simulation running on a multi-site
    high-end grid platform" and the California–France WAN of the GRAS
    experiment (default one-way latency of 50 ms).
    """
    platform = Platform(name)
    routers = []
    for site_idx, site in enumerate(("siteA", "siteB")):
        router = platform.add_router(f"{site}-router")
        routers.append(router)
        for i in range(hosts_per_site):
            host = platform.add_host(f"{site}-{i}", host_speed)
            link = platform.add_link(f"{site}-link-{i}", lan_bandwidth,
                                     lan_latency)
            platform.connect(host.name, router, link.name)
    platform.add_link("wan", wan_bandwidth, wan_latency)
    platform.connect(routers[0], routers[1], "wan")
    return platform


def make_client_server_lan(num_clients: int = 3,
                           num_servers: int = 2) -> Platform:
    """The hub/switch/router/Internet topology of the paper's Gantt figure.

    Clients sit behind a shared hub; the hub reaches a switch, the switch a
    router, and the router crosses the Internet to reach the servers.  The
    concurrent client flows share the hub and Internet links, which is what
    produces the interference visible in the Gantt chart (experiment E4).
    Speeds and links are the ``LAN_*`` constants.
    """
    platform = Platform("client-server")
    hub = platform.add_router("hub")
    switch = platform.add_router("switch")
    router = platform.add_router("router")
    server_router = platform.add_router("server-router")

    platform.add_link("hub-switch", LAN_HUB_BANDWIDTH, LAN_HUB_LATENCY)
    platform.connect(hub, switch, "hub-switch")
    platform.add_link("switch-router", LAN_UPLINK_BANDWIDTH,
                      LAN_UPLINK_LATENCY)
    platform.connect(switch, router, "switch-router")
    platform.add_link("internet", LAN_INTERNET_BANDWIDTH,
                      LAN_INTERNET_LATENCY)
    platform.connect(router, server_router, "internet")

    for i in range(num_clients):
        host = platform.add_host(f"client-{i}", LAN_CLIENT_SPEED)
        link = platform.add_link(f"client-link-{i}", LAN_HUB_BANDWIDTH,
                                 LAN_HUB_LATENCY)
        platform.connect(host.name, hub, link.name)
    for i in range(num_servers):
        host = platform.add_host(f"server-{i}", LAN_SERVER_SPEED)
        link = platform.add_link(f"server-link-{i}", LAN_UPLINK_BANDWIDTH,
                                 LAN_UPLINK_LATENCY)
        platform.connect(host.name, server_router, link.name)
    return platform


def make_zoned_grid(num_sites: int = 4, hosts_per_site: int = 8,
                    host_speed: float = 2e9,
                    lan_bandwidth: float = 125e6,
                    lan_latency: float = 100e-6,
                    wan_bandwidth: float = 12.5e6,
                    wan_latency: float = 50e-3,
                    site_routing: str = "Dijkstra") -> Platform:
    """A multi-site grid as a tree of routing zones.

    Each site is a :class:`~repro.platform.routing.NetZone` holding a
    gateway router and its hosts in a star; the root zone connects the
    sites to a WAN hub router with one wide-area link per site.  A route
    between ``site-<s>-host-<i>`` and ``site-<t>-host-<j>`` is therefore
    ``lan(i) + wan(s) + wan(t) + lan(j)`` — resolved zone by zone, never
    storing a per-pair table, so construction and memory stay O(hosts)
    even at 10⁵ hosts.

    ``site_routing`` names the intra-site strategy, ``"Dijkstra"`` (alias
    ``"Floyd"``): every host is a leaf of its gateway, so a whole site
    shares one sealed tree per direction.
    """
    if num_sites < 1:
        raise ValueError("a zoned grid needs at least one site")
    if hosts_per_site < 1:
        raise ValueError("a zoned grid needs at least one host per site")
    platform = Platform("zoned-grid")
    hub = platform.add_router("wan-hub")
    for s in range(num_sites):
        site = platform.add_zone(f"site-{s}", routing=site_routing)
        gw = site.add_router(f"site-{s}-gw")     # first node => default gateway
        for i in range(hosts_per_site):
            host = site.add_host(f"site-{s}-host-{i}", host_speed)
            link = platform.add_link(f"site-{s}-lan-{i}", lan_bandwidth,
                                     lan_latency)
            site.connect(host.name, gw, link.name)
        platform.add_link(f"wan-{s}", wan_bandwidth, wan_latency)
        platform.connect(hub, site.name, f"wan-{s}")
    return platform
