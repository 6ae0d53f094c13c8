"""BRITE-style random topology generation.

The paper's validation experiment uses a *"random topology generated with
BRITE (random bandwidths and latencies)"*.  This module
implements BRITE's Waxman router-level model from scratch and turns the
resulting graph into a :class:`~repro.platform.platform.Platform`:

* every graph vertex becomes a *host* (so flows can start and end anywhere),
* every edge becomes a link with a bandwidth drawn uniformly from
  ``[BW_MIN, BW_MAX]`` (BRITE's default bandwidth assignment) and a
  latency derived from the Euclidean distance between its endpoints,
* routing between vertices is shortest-path over link latency, like the
  packet-level simulators the experiment compares against.

The generator is deterministic given a seed, so the fluid and packet-level
simulators of experiment E1 run on the *same* topology.  The BRITE knobs
no caller varies are module constants: the plane side (``PLANE_SIZE``),
Waxman's ``WAXMAN_ALPHA`` and ``WAXMAN_BETA``, the bandwidth range
(``BW_MIN``, ``BW_MAX``), the distance-derived latency scale
(``LAT_MAX_DISTANCE``) and every host's ``HOST_SPEED``.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.kernel.collector import young_passes_only
from repro.platform.platform import Platform

__all__ = ["make_waxman_topology", "random_flows"]

#: Vertices are placed uniformly in a square of this side.
PLANE_SIZE = 1000.0
#: Waxman's connection probability and distance-decay parameter.
WAXMAN_ALPHA = 0.4
WAXMAN_BETA = 0.4
#: Uniform range of the link bandwidths (byte/s): 10 to 100 Mb/s.
BW_MIN = 1.25e6
BW_MAX = 1.25e7
#: Distance-derived latency across the plane diagonal (50 ms).
LAT_MAX_DISTANCE = 0.05
#: CPU speed of every host (flop/s).
HOST_SPEED = 1e9


def _place_nodes(n: int, rng: random.Random) -> List[Tuple[float, float]]:
    return [(rng.uniform(0, PLANE_SIZE), rng.uniform(0, PLANE_SIZE))
            for _ in range(n)]


def _link_latency(pos_a: Tuple[float, float],
                  pos_b: Tuple[float, float]) -> float:
    """BRITE's default latency: the distance between the endpoints,
    scaled so the plane diagonal is ``LAT_MAX_DISTANCE``."""
    diag = math.hypot(PLANE_SIZE, PLANE_SIZE)
    dist = math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])
    return max(1e-5, LAT_MAX_DISTANCE * dist / diag)


def _build_platform(n: int, edges: Sequence[Tuple[int, int]],
                    positions: Sequence[Tuple[float, float]],
                    rng: random.Random, name: str) -> Platform:
    platform = Platform(name)
    for i in range(n):
        platform.add_host(f"host-{i}", HOST_SPEED)
    for idx, (a, b) in enumerate(edges):
        bandwidth = rng.uniform(BW_MIN, BW_MAX)
        latency = _link_latency(positions[a], positions[b])
        link = platform.add_link(f"link-{idx}", bandwidth, latency)
        platform.connect(f"host-{a}", f"host-{b}", link.name)
    return platform


def _waxman_edges(positions: Sequence[Tuple[float, float]],
                  rng: random.Random) -> List[Tuple[int, int]]:
    """Draw the Waxman edges between ``positions`` (the rule is in
    :func:`make_waxman_topology`'s docstring)."""
    diag = math.hypot(PLANE_SIZE, PLANE_SIZE)
    edges: List[Tuple[int, int]] = []
    for i, (xi, yi) in enumerate(positions):
        for j in range(i + 1, len(positions)):
            dist = math.hypot(xi - positions[j][0], yi - positions[j][1])
            prob = WAXMAN_ALPHA * math.exp(-dist / (WAXMAN_BETA * diag))
            if rng.random() < prob:
                edges.append((i, j))
    return edges


def _ensure_connected(n: int, edges: List[Tuple[int, int]],
                      rng: random.Random) -> None:
    """Add the minimum extra edges required to make the graph connected."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for a, b in edges:
        union(a, b)
    components = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    roots = list(components)
    for prev, nxt in zip(roots, roots[1:]):
        a = rng.choice(components[prev])
        b = rng.choice(components[nxt])
        edges.append((a, b))
        union(a, b)


@young_passes_only
def make_waxman_topology(num_nodes: int = 10, seed: int = 42) -> Platform:
    """Generate a Waxman random topology (BRITE's ``RTWaxman`` model).

    Vertices are placed uniformly in a plane; an edge between ``u`` and
    ``v`` exists with probability
    ``WAXMAN_ALPHA * exp(-d(u,v) / (WAXMAN_BETA * L))``
    where ``L`` is the plane diagonal.  The graph is then patched to be
    connected (BRITE grows connected graphs by construction; we achieve the
    same property by joining leftover components).
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(seed)
    positions = _place_nodes(num_nodes, rng)
    edges = _waxman_edges(positions, rng)
    _ensure_connected(num_nodes, edges, rng)
    return _build_platform(num_nodes, edges, positions, rng, "brite-waxman")


def random_flows(platform: Platform, num_flows: int = 10,
                 seed: int = 7) -> List[Tuple[str, str]]:
    """Pick random (source, destination) host pairs for the E1 experiment.

    Pairs always have distinct endpoints; the same pair may appear twice
    (two flows between the same hosts), matching "10 random flows for 10
    random source-destination pairs".
    """
    rng = random.Random(seed)
    hosts = platform.host_names()
    if len(hosts) < 2:
        raise ValueError("need at least two hosts to draw flows")
    flows: List[Tuple[str, str]] = []
    for _ in range(num_flows):
        src, dst = rng.sample(hosts, 2)
        flows.append((src, dst))
    return flows
