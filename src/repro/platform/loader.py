"""Loading and saving platform descriptions.

Two formats are supported:

* a **JSON** format native to this reproduction (round-trips everything the
  :class:`~repro.platform.platform.Platform` API can express except traces,
  which are referenced by inline event lists);
* a minimal subset of the classic **SimGrid XML** platform format
  (``<host>``, ``<link>``, ``<route>`` with ``<link_ctn>``) so that simple
  platform files written for the original tool can be reused.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Union

from repro.exceptions import PlatformError
from repro.platform.platform import Platform
from repro.surf.trace import Trace

__all__ = ["load_platform", "save_platform", "platform_to_dict",
           "platform_from_dict"]


# ----------------------------------------------------------------------------------
# JSON format
# ----------------------------------------------------------------------------------

def platform_to_dict(platform: Platform) -> Dict:
    """Serialize a platform description (not its realization) to a dict.

    The zone tree round-trips: each zone records its routing strategy,
    parent and gateway; hosts and routers carry a ``zone`` field when
    declared outside the root zone; edges and explicit routes are
    collected across every zone (re-adding them infers the zone from the
    vertices).  A flat platform serializes exactly as before (no
    ``zones`` key, plain router name list).
    """
    def trace_to_list(trace: Optional[Trace]):
        if trace is None:
            return None
        return {"events": [[e.time, e.value] for e in trace.events],
                "period": trace.period}

    def zone_name(node: str) -> Optional[str]:
        zone = platform.zone_of(node)
        return None if zone is platform.root_zone else zone.name

    all_zones = [zone for zone in platform.root_zone.iter_subtree()
                 if zone is not platform.root_zone]
    data = {
        "name": platform.name,
        "hosts": [
            {
                "name": spec.name,
                "speed": spec.speed,
                "cores": spec.cores,
                "availability_trace": trace_to_list(spec.availability_trace),
                "state_trace": trace_to_list(spec.state_trace),
                "properties": spec.properties,
                **({"zone": zone_name(spec.name)}
                   if zone_name(spec.name) else {}),
            }
            for spec in platform.hosts.values()
        ],
        "routers": [
            name if zone_name(name) is None
            else {"name": name, "zone": zone_name(name)}
            for name in sorted(platform.routers)
        ],
        "links": [
            {
                "name": spec.name,
                "bandwidth": spec.bandwidth,
                "latency": spec.latency,
                "shared": spec.shared,
                "bandwidth_trace": trace_to_list(spec.bandwidth_trace),
                "state_trace": trace_to_list(spec.state_trace),
            }
            for spec in platform.links.values()
        ],
        "edges": [
            {"a": a, "b": b, "link": link}
            for zone in platform.root_zone.iter_subtree()
            for a, neighbours in sorted(zone.adjacency.items())
            for b, link in neighbours
            if a < b  # each undirected edge appears once
        ],
        "routes": [
            {"src": spec.src, "dst": spec.dst, "links": spec.links,
             "symmetric": spec.symmetric}
            for zone in platform.root_zone.iter_subtree()
            for spec in zone.routes.values()
        ],
    }
    def effective_gateway(zone) -> Optional[str]:
        # Serialize the *resolved* gateway node: the implicit default is
        # "first declared node", which reloading would not preserve (hosts
        # are re-declared before routers), so pin it explicitly.
        try:
            return zone.gateway
        except PlatformError:
            return None

    if all_zones:
        data["zones"] = [
            {
                "name": zone.name,
                "routing": zone.routing,
                "parent": (None if zone.parent is platform.root_zone
                           else zone.parent.name),
                "gateway": effective_gateway(zone),
            }
            for zone in all_zones
        ]
    return data


def platform_from_dict(data: Dict) -> Platform:
    """Rebuild a platform description from :func:`platform_to_dict` output."""
    def trace_from(obj) -> Optional[Trace]:
        if obj is None:
            return None
        return Trace([(t, v) for t, v in obj["events"]],
                     period=obj.get("period"))

    platform = Platform(data.get("name", "platform"))
    # Zones first (depth-first serialization order guarantees parents
    # precede children), then the nodes that reference them.
    for zone in data.get("zones", []):
        platform.add_zone(zone["name"], routing=zone.get("routing",
                                                         "Dijkstra"),
                          parent=zone.get("parent"),
                          gateway=zone.get("gateway"))
    for host in data.get("hosts", []):
        platform.add_host(host["name"], host["speed"],
                          cores=host.get("cores", 1),
                          availability_trace=trace_from(
                              host.get("availability_trace")),
                          state_trace=trace_from(host.get("state_trace")),
                          properties=host.get("properties") or {},
                          zone=host.get("zone"))
    for router in data.get("routers", []):
        if isinstance(router, dict):
            platform.add_router(router["name"], zone=router.get("zone"))
        else:
            platform.add_router(router)
    for link in data.get("links", []):
        platform.add_link(link["name"], link["bandwidth"],
                          latency=link.get("latency", 0.0),
                          shared=link.get("shared", True),
                          bandwidth_trace=trace_from(
                              link.get("bandwidth_trace")),
                          state_trace=trace_from(link.get("state_trace")))
    for edge in data.get("edges", []):
        platform.connect(edge["a"], edge["b"], edge["link"])
    for route in data.get("routes", []):
        platform.add_route(route["src"], route["dst"], route["links"],
                           symmetric=route.get("symmetric", True))
    return platform


# ----------------------------------------------------------------------------------
# SimGrid-style XML format (subset)
# ----------------------------------------------------------------------------------

#: SI prefixes accepted in front of the base units (case matters: ``M`` is
#: mega; ``k`` and ``K`` are both kilo, as SimGrid platform files use either).
_PREFIXES = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
             "Ki": 1024.0, "Mi": 1024.0 ** 2, "Gi": 1024.0 ** 3,
             "u": 1e-6, "m": 1e-3, "n": 1e-9}

#: Base units and their scale to this library's canonical units
#: (bytes/s for bandwidth, flop/s for speed, seconds for time).
_BASE_UNITS = {"Bps": 1.0, "bps": 1.0 / 8.0, "f": 1.0, "F": 1.0,
               "flops": 1.0, "s": 1.0, "B": 1.0, "b": 1.0 / 8.0}


def parse_quantity(text: Union[str, float, int]) -> float:
    """Parse ``"100MBps"``, ``"1Gbps"``, ``"1Gf"``, ``"50us"`` quantities.

    Case is significant where it matters: ``MBps`` is megabytes per second,
    ``Mbps`` megabits per second (both forms appear in SimGrid platforms).
    """
    if isinstance(text, (int, float)):
        return float(text)
    value = text.strip()
    idx = len(value)
    while idx > 0 and not (value[idx - 1].isdigit() or value[idx - 1] == "."):
        idx -= 1
    number, unit = value[:idx].strip(), value[idx:].strip()
    if not number:
        raise PlatformError(f"cannot parse quantity {text!r}")
    if not unit:
        return float(number)
    for base, base_scale in sorted(_BASE_UNITS.items(),
                                   key=lambda kv: -len(kv[0])):
        if unit.endswith(base):
            prefix = unit[:-len(base)]
            if prefix in _PREFIXES:
                return float(number) * _PREFIXES[prefix] * base_scale
    raise PlatformError(f"unknown unit {unit!r} in {text!r}")


def _load_xml(text: str) -> Platform:
    # Imported here, not at module level: ``import repro`` never loads the
    # XML parser unless an XML platform is read.
    import xml.etree.ElementTree as ET

    root = ET.fromstring(text)
    if root.tag != "platform":
        # SimGrid XML wraps everything in <platform><AS>...</AS></platform>
        raise PlatformError("XML root element must be <platform>")
    platform = Platform("xml-platform")
    containers = [root] + root.findall(".//AS") + root.findall(".//zone")
    for container in containers:
        for host in container.findall("host"):
            platform.add_host(host.get("id"),
                              parse_quantity(host.get("speed",
                                                      host.get("power", "1Gf"))),
                              cores=int(host.get("core", "1")))
        for router in container.findall("router"):
            platform.add_router(router.get("id"))
        for link in container.findall("link"):
            platform.add_link(link.get("id"),
                              parse_quantity(link.get("bandwidth")),
                              latency=parse_quantity(link.get("latency", "0s")),
                              shared=link.get("sharing_policy",
                                              "SHARED").upper() != "FATPIPE")
        for route in container.findall("route"):
            links = [ctn.get("id") for ctn in route.findall("link_ctn")]
            platform.add_route(route.get("src"), route.get("dst"), links,
                               symmetric=route.get("symmetrical",
                                                   "yes").lower() in
                               ("yes", "true", "1"))
    return platform


# ----------------------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------------------

def load_platform(path: str) -> Platform:
    """Load a platform description from a ``.json`` or ``.xml`` file."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".xml") or text.lstrip().startswith("<"):
        return _load_xml(text)
    return platform_from_dict(json.loads(text))


def save_platform(platform: Platform, path: str) -> None:
    """Save a platform description to a JSON file."""
    data = platform_to_dict(platform)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
