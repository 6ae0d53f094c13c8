"""Platform descriptions: hosts, links, routes and topology generators.

A :class:`~repro.platform.platform.Platform` is a *description* of the
simulated hardware (the paper's "virtual platform"): hosts with CPU speeds,
links with bandwidth/latency, and the routes connecting them.  It is
independent of any simulation state; calling
:meth:`~repro.platform.platform.Platform.realize` instantiates the SURF
resources inside an engine.

Topologies can be built programmatically, generated (clusters, stars,
dumbbells, multi-site grids, BRITE-style Waxman graphs) or loaded from
SimGrid XML platform files.
"""

from repro.platform.platform import (
    HostSpec,
    LinkSpec,
    Platform,
    RealizedHost,
    RouteSpec,
)
from repro.platform.routing import LRUCache, NetZone
from repro.platform.generators import (
    make_client_server_lan,
    make_cluster,
    make_dumbbell,
    make_star,
    make_two_site_grid,
    make_zoned_grid,
)
from repro.platform.brite import (
    BriteConfig,
    make_waxman_topology,
)
from repro.platform.loader import load_platform

__all__ = [
    "BriteConfig",
    "HostSpec",
    "LRUCache",
    "LinkSpec",
    "NetZone",
    "Platform",
    "RealizedHost",
    "RouteSpec",
    "load_platform",
    "make_client_server_lan",
    "make_cluster",
    "make_dumbbell",
    "make_star",
    "make_two_site_grid",
    "make_waxman_topology",
    "make_zoned_grid",
]
