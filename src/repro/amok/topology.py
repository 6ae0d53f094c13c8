"""Network topology discovery from pairwise measurements.

The paper lists *"Network topology discovery"* as a Grid Application
Toolbox work-in-progress.  The classic technique (ENV, pathchar-style
tools) is: measure pairwise bandwidths, then cluster hosts whose mutual
bandwidth is much higher than their bandwidth to the rest of the world —
those belong to the same site/LAN — and expose the resulting two-level
structure (sites joined by slower wide-area paths).

:class:`TopologyInference` implements that clustering over a bandwidth
matrix, wherever it comes from (AMOK measurements in simulation, real
measurements, or the platform description itself in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["TopologyInference", "InferredTopology"]


@dataclass
class InferredTopology:
    """Result of the clustering: host groups plus inter-group bandwidths."""

    clusters: List[List[str]]
    intra_bandwidth: Dict[int, float]
    inter_bandwidth: Dict[Tuple[int, int], float]


class TopologyInference:
    """Cluster hosts by bandwidth locality.

    Parameters
    ----------
    ratio_threshold:
        Two hosts are placed in the same cluster when their pairwise
        bandwidth is at least ``ratio_threshold`` times the *global median*
        pairwise bandwidth.  2.0 works well for LAN-vs-WAN separations.
    """

    def __init__(self, ratio_threshold: float = 2.0) -> None:
        if ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be > 1")
        self.ratio_threshold = ratio_threshold

    def infer(self, hosts: Sequence[str],
              bandwidth: Dict[Tuple[str, str], float]) -> InferredTopology:
        """Cluster ``hosts`` given symmetric pairwise bandwidths."""
        hosts = list(hosts)
        if not hosts:
            return InferredTopology([], {}, {})

        def bw(a: str, b: str) -> float:
            if (a, b) in bandwidth:
                return bandwidth[(a, b)]
            return bandwidth.get((b, a), 0.0)

        values = sorted(bw(a, b) for i, a in enumerate(hosts)
                        for b in hosts[i + 1:])
        if not values:
            return InferredTopology([list(hosts)], {0: float("inf")}, {})
        median = values[len(values) // 2]
        threshold = median * self.ratio_threshold

        # Union-find on "fast" pairs.
        parent = {h: h for h in hosts}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                if bw(a, b) >= threshold:
                    union(a, b)

        groups: Dict[str, List[str]] = {}
        for host in hosts:
            groups.setdefault(find(host), []).append(host)
        clusters = [sorted(members) for members in groups.values()]
        clusters.sort(key=lambda members: members[0])

        intra: Dict[int, float] = {}
        inter: Dict[Tuple[int, int], float] = {}
        for idx, members in enumerate(clusters):
            pairs = [bw(a, b) for i, a in enumerate(members)
                     for b in members[i + 1:]]
            intra[idx] = (sum(pairs) / len(pairs)) if pairs else float("inf")
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                pairs = [bw(a, b) for a in clusters[i] for b in clusters[j]]
                inter[(i, j)] = sum(pairs) / len(pairs) if pairs else 0.0
        return InferredTopology(clusters, intra, inter)
