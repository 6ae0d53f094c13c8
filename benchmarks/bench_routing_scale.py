"""Scalability of hierarchical routing and lazy platform realization (PR 6).

Two scenarios for the runner in ``run_benchmarks.py``:

* ``routing_scale`` — resolve a deterministic batch of end-to-end routes
  on a zoned grid behind the LRU-bounded route cache.  Route resolution
  is per-zone (LAN + WAN + LAN segments concatenated at the gateways), so
  cost per route and total memory must stay flat as the host count grows
  — no O(hosts²) table is ever built.
* ``platform_realize`` — build a zoned grid of ``size`` hosts, realize it
  **lazily**, wrap it in an s4u :class:`~repro.s4u.Engine` and run one
  cross-site ping.  Only the touched resources (2 CPUs, 4 links) may
  materialize; the wall clock must therefore scale with the description
  (O(hosts) dict fills), not with SURF resource construction.
"""

from repro.platform import make_zoned_grid
from repro.s4u import Engine

HOSTS_PER_SITE = 100


def _grid(num_hosts):
    if num_hosts % HOSTS_PER_SITE:
        raise ValueError(f"num_hosts must be a multiple of {HOSTS_PER_SITE}")
    return make_zoned_grid(num_sites=num_hosts // HOSTS_PER_SITE,
                           hosts_per_site=HOSTS_PER_SITE)


def run_routing_scale(num_hosts, num_routes=2000):
    """Resolve ``num_routes`` deterministic cross- and intra-site routes."""
    platform = _grid(num_hosts)
    num_sites = num_hosts // HOSTS_PER_SITE
    total_links = 0
    for k in range(num_routes):
        # A deterministic scatter over sites and hosts: mixes intra-site,
        # cross-site and repeated pairs (the latter exercising the cache).
        src_site, dst_site = (k * 7) % num_sites, (k * 13 + 1) % num_sites
        src = f"site-{src_site}-host-{k % HOSTS_PER_SITE}"
        dst = f"site-{dst_site}-host-{(k * 3) % HOSTS_PER_SITE}"
        if src != dst:
            total_links += len(platform.route_links(src, dst))
    stats = platform.route_cache_stats()["routes"]
    return {
        "num_hosts": num_hosts,
        "routes_resolved": num_routes,
        "route_links_total": total_links,
        "route_cache": stats,
        "events": num_routes,
    }


def run_platform_realize(num_hosts):
    """Realize a ``num_hosts``-host grid and run one ping across it."""
    platform = _grid(num_hosts)
    num_sites = num_hosts // HOSTS_PER_SITE
    engine = Engine(platform)     # realizes; resources come on first touch
    src = "site-0-host-0"
    dst = f"site-{num_sites - 1}-host-{HOSTS_PER_SITE - 1}"

    def sender(actor):
        yield actor.engine.mailbox("ping").put("ping", size=1e6)

    def receiver(actor):
        yield actor.engine.mailbox("ping").get()

    engine.add_actor("sender", src, sender)
    engine.add_actor("receiver", dst, receiver)
    simulated = engine.run()
    return {
        "num_hosts": num_hosts,
        "simulated_time_s": simulated,
        "cpus_materialized": len(platform.cpu_by_host),
        "links_materialized": len(platform.link_by_name),
        "peak_actors": 2,
        "events": 1,
    }


def main():
    for num_hosts in (1000, 10_000, 100_000):
        print(run_routing_scale(num_hosts))
        print(run_platform_realize(num_hosts))


if __name__ == "__main__":
    main()
