"""Loading SimGrid XML platform files.

A minimal subset of the classic **SimGrid XML** platform format:
``<host>``, ``<router>``, ``<link>`` and ``<route>`` with ``<link_ctn>``,
directly under ``<platform>`` or inside ``<AS>`` / ``<zone>`` containers,
so that simple platform files written for the original tool can be
reused.  A malformed file raises :class:`~repro.exceptions.PlatformError`
naming the element at fault.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.exceptions import PlatformError
from repro.kernel.collector import young_passes_only
from repro.platform.platform import Platform

__all__ = ["load_platform"]


#: SI prefixes accepted in front of the base units (case matters: ``M`` is
#: mega; ``k`` and ``K`` are both kilo, as SimGrid platform files use either).
_PREFIXES = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
             "Ki": 1024.0, "Mi": 1024.0 ** 2, "Gi": 1024.0 ** 3,
             "u": 1e-6, "m": 1e-3, "n": 1e-9}

#: Base units and their scale to this library's canonical units
#: (bytes/s for bandwidth, flop/s for speed, seconds for time).
_BASE_UNITS = {"Bps": 1.0, "bps": 1.0 / 8.0, "f": 1.0, "F": 1.0,
               "flops": 1.0, "s": 1.0, "B": 1.0, "b": 1.0 / 8.0}


def parse_quantity(text: str) -> float:
    """Parse ``"100MBps"``, ``"1Gbps"``, ``"1Gf"``, ``"50us"`` quantities.

    Case is significant where it matters: ``MBps`` is megabytes per second,
    ``Mbps`` megabits per second (both forms appear in SimGrid platforms).
    """
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


def _describe(element) -> str:
    name = element.get("id")
    return f"<{element.tag}>" if name is None else f"<{element.tag} {name!r}>"


def _attribute(element, name: str, default: Optional[str] = None) -> str:
    value = element.get(name, default)
    if value is None:
        raise PlatformError(f"{_describe(element)} has no {name!r} attribute")
    return value


def _quantity(element, name: str, default: Optional[str] = None) -> float:
    text = _attribute(element, name, default)
    try:
        return parse_quantity(text)
    except PlatformError as err:
        raise PlatformError(f"{_describe(element)}: {err}") from None


def _load_xml(text: str) -> Platform:
    # Imported here, not at module level: ``import repro`` never loads the
    # XML parser unless an XML platform is read.
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        raise PlatformError(f"malformed platform XML: {err}") from None
    if root.tag != "platform":
        # SimGrid XML wraps everything in <platform><AS>...</AS></platform>
        raise PlatformError("XML root element must be <platform>")
    platform = Platform("xml-platform")
    containers = [root] + root.findall(".//AS") + root.findall(".//zone")
    for container in containers:
        for host in container.findall("host"):
            name = _attribute(host, "id")
            cores = _attribute(host, "core", "1")
            if not cores.isdigit():
                raise PlatformError(f"{_describe(host)}: core {cores!r} is "
                                    "not a whole number")
            platform.add_host(name, _quantity(host, "speed",
                                              host.get("power", "1Gf")),
                              cores=int(cores))
        for router in container.findall("router"):
            platform.add_router(_attribute(router, "id"))
        for link in container.findall("link"):
            platform.add_link(_attribute(link, "id"),
                              _quantity(link, "bandwidth"),
                              latency=_quantity(link, "latency", "0s"),
                              shared=link.get("sharing_policy",
                                              "SHARED").upper() != "FATPIPE")
        for route in container.findall("route"):
            links = [_attribute(ctn, "id") for ctn in route.findall("link_ctn")]
            platform.add_route(_attribute(route, "src"),
                               _attribute(route, "dst"), links,
                               symmetric=route.get("symmetrical",
                                                   "yes").lower() in
                               ("yes", "true", "1"))
    return platform


@young_passes_only
def load_platform(path: str) -> Platform:
    """Load a platform description from a SimGrid XML file."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        return _load_xml(handle.read())
