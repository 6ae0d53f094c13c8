"""Zone-partitioned (sharded) engine ≡ flat engine, date for date.

The PR-7 partitioned kernel runs one pair of fluid models per top-level
:class:`~repro.platform.routing.NetZone` and merges their share/update
phases at the minimum next-event date.  Every simulated date it pins
must be *bit-identical* to the flat single-model kernel — including
under failure-injection churn whose victims sit on cross-zone routes.
"""

import pytest

from repro import s4u
from repro.exceptions import TransferFailureError
from repro.platform import Platform, make_zoned_grid
from repro.s4u import FailureInjector
from repro.surf.trace import Trace


def zoned_platform():
    return make_zoned_grid(num_sites=3, hosts_per_site=4)


def run_exchange_workload(platform=None, sharded=False):
    """Mixed intra-/cross-site execs and transfers; returns the event log."""
    engine = s4u.Engine(platform or zoned_platform(), sharded=sharded)
    log = []

    # (sender, receiver) pairs: two stay inside a site, two cross sites,
    # and the two cross-site pairs share the wan-1 link so cross-zone
    # contention lands in one migrated component.
    pairs = [
        ("site-0-host-1", "site-0-host-2"),
        ("site-0-host-3", "site-1-host-1"),
        ("site-1-host-2", "site-2-host-2"),
        ("site-2-host-3", "site-2-host-1"),
    ]

    def sender(actor, i, dst):
        yield actor.execute(2e8 * (i + 1))
        log.append((actor.now, f"sent-{i}"))
        yield actor.engine.mailbox(f"m{i}").put(i, size=5e5 * (i + 1))
        log.append((actor.now, f"put-{i}"))

    def receiver(actor, i):
        yield actor.engine.mailbox(f"m{i}").get()
        log.append((actor.now, f"got-{i}"))
        yield actor.execute(1e8)
        log.append((actor.now, f"done-{i}"))

    for i, (src, dst) in enumerate(pairs):
        engine.add_actor(f"s{i}", src, sender, i, dst)
        engine.add_actor(f"r{i}", dst, receiver, i)
    log.append((engine.run(), "end"))
    return log, engine


def run_churn_workload(sharded=False):
    """Cross-zone fan-in under seeded host/link churn; returns the log."""
    engine = s4u.Engine(zoned_platform(), sharded=sharded)
    log = []
    want = [25]

    def sink(actor):
        box = actor.engine.mailbox("sink")
        while want[0] > 0:
            try:
                payload = yield box.get()
            except TransferFailureError:
                continue
            want[0] -= 1
            log.append((actor.now, f"recv-{payload}"))

    def worker(actor, i):
        while True:
            yield actor.execute(5e6 * (1 + i % 3))
            try:
                yield actor.engine.mailbox("sink").put(i, size=2e4)
            except TransferFailureError:
                continue

    engine.add_actor("sink", "site-0-host-0", sink)
    hosts = [f"site-{s}-host-{h}" for s in (1, 2) for h in range(4)]
    for i, host in enumerate(hosts):
        engine.add_actor(f"w{i}", host, worker, i,
                         daemon=True, auto_restart=True)
    # Churn the wan links (cross-zone routes) and two worker hosts: the
    # failures tear components that straddle zone boundaries.
    FailureInjector(engine, seed=11,
                    hosts=["site-1-host-1", "site-2-host-2"],
                    links=["wan-1", "wan-2"],
                    mtbf=0.01, mean_downtime=0.02,
                    max_failures=20).start()
    log.append((engine.run(), "end"))
    assert want[0] == 0
    return log, engine


def work_counters(engine):
    solver = engine.kernel_stats()["solver"]
    return {key: solver[key] for key in
            ("constraints_solved", "variables_solved",
             "elements_visited", "heap_pops")}


class TestShardedEquivalence:
    def test_exchange_dates_bit_identical(self):
        flat_log, flat_engine = run_exchange_workload(sharded=False)
        shard_log, shard_engine = run_exchange_workload(sharded=True)
        assert shard_log == flat_log
        stats = shard_engine.kernel_stats()
        assert stats["shards"]["count"] == 4  # root + 3 sites
        assert stats["shards"]["migrations"] > 0
        # identical actual solver work, only spread across more models
        assert work_counters(shard_engine) == work_counters(flat_engine)

    def test_churn_crossing_zone_boundaries_bit_identical(self):
        flat_log, _ = run_churn_workload(sharded=False)
        shard_log, shard_engine = run_churn_workload(sharded=True)
        assert shard_log == flat_log
        assert shard_engine.kernel_stats()["shards"]["migrations"] > 0


def traced_zoned_platform():
    """Two sites with phase-shifted availability dips and a WAN bw trace.

    The zone generators don't take traces, so this builds the tree by
    hand: each host carries a periodic availability trace whose dip lands
    at a different phase, and the cross-zone WAN links carry bandwidth
    traces — every shard sees trace events, and cross-zone transfers see
    them from two shards at once.
    """
    platform = Platform("traced-grid")
    hub = platform.add_router("wan-hub")
    for s in range(2):
        site = platform.add_zone(f"site-{s}", routing="Floyd")
        gw = site.add_router(f"site-{s}-gw")
        for i in range(2):
            phase = 0.5 + 0.4 * (2 * s + i)
            trace = Trace([(0.0, 1.0), (phase, 0.5), (phase + 0.5, 0.9)],
                          period=3.0, name=f"load-{s}-{i}")
            host = site.add_host(f"site-{s}-host-{i}", 1e9,
                                 availability_trace=trace)
            link = platform.add_link(f"site-{s}-lan-{i}", 125e6, 100e-6)
            site.connect(host.name, gw, link.name)
        platform.add_link(f"wan-{s}", 12.5e6, 50e-3,
                          bandwidth_trace=Trace([(0.0, 1.0), (0.7, 0.6)],
                                                period=2.0,
                                                name=f"wan-bw-{s}"))
        platform.connect(hub, site.name, f"wan-{s}")
    return platform


def run_modulated_workload(sharded=False):
    """Execs + cross-site transfers spanning dips, plus a set_speed."""
    engine = s4u.Engine(traced_zoned_platform(), sharded=sharded)
    log = []
    engine.on_resource_speed_change(
        lambda resource, speed: log.append(
            (engine.now, f"speed:{resource.name}", speed)))

    pairs = [("site-0-host-0", "site-1-host-1"),
             ("site-1-host-0", "site-0-host-1")]

    def sender(actor, i):
        for k in range(3):
            yield actor.execute(4e8 * (1 + i))
            yield actor.engine.mailbox(f"m{i}").put(k, size=3e6)
            log.append((actor.now, f"put-{i}-{k}"))

    def receiver(actor, i):
        for k in range(3):
            yield actor.engine.mailbox(f"m{i}").get()
            log.append((actor.now, f"got-{i}-{k}"))

    def admin(actor):
        # A runtime speed change layered on top of the trace dips: the
        # write path must compose with availability on every kernel.
        yield s4u.this_actor.sleep_for(1.2)
        actor.engine.host_by_name("site-0-host-0").set_speed(7e8)

    for i, (src, dst) in enumerate(pairs):
        engine.add_actor(f"s{i}", src, sender, i)
        engine.add_actor(f"r{i}", dst, receiver, i)
    engine.add_actor("admin", "site-1-host-0", admin)
    log.append((engine.run(), "end"))
    return log, engine


class TestAvailabilityModulationEquivalence:
    def test_trace_dips_flat_vs_sharded_bit_identical(self):
        flat_log, flat_engine = run_modulated_workload(sharded=False)
        shard_log, shard_engine = run_modulated_workload(sharded=True)
        assert shard_log == flat_log
        assert shard_engine.kernel_stats()["shards"]["count"] == 3
        assert work_counters(shard_engine) == work_counters(flat_engine)
        # The dips actually fired (observer saw trace + set_speed events).
        assert any(entry[1].startswith("speed:") for entry in flat_log)


class TestLazyRealization:
    def test_lazy_matches_eager_dates(self):
        eager = zoned_platform()
        eager.realize(eager=True)
        eager_log, _ = run_exchange_workload(platform=eager)
        lazy_log, _ = run_exchange_workload()  # lazy is the default
        assert lazy_log == eager_log

    def test_lazy_sharded_matches_eager_flat(self):
        eager = zoned_platform()
        eager.realize(eager=True)
        eager_log, _ = run_exchange_workload(platform=eager)
        shard_log, _ = run_exchange_workload(sharded=True)
        assert shard_log == eager_log


class TestShardStats:
    def test_kernel_stats_shape(self):
        _, engine = run_exchange_workload(sharded=True)
        stats = engine.kernel_stats()
        assert stats["shards"]["names"][0] == "<root>"
        assert set(stats["shards"]["names"][1:]) == \
            {"site-0", "site-1", "site-2"}
        assert "route_caches" in stats

    def test_flat_engine_has_no_shard_block(self):
        _, engine = run_exchange_workload(sharded=False)
        assert "shards" not in engine.kernel_stats()
