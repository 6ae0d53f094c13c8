"""Zoned-platform scenarios shared by the kernel equivalence tests.

Each builder runs one workload over a zoned platform (top-level
:class:`~repro.platform.routing.NetZone` sites) on the flat or the
sharded kernel and returns its event log: cross-zone exchanges, churn
whose victims sit on cross-zone routes, availability dips on both sides
of a zone boundary, and same-date completion bursts.
``tests/test_sharded_engine.py`` compares the two kernels on them;
``tests/test_zoned_pins.py`` pins the flat logs alone.
"""

from repro import s4u
from repro.exceptions import TransferFailureError
from repro.platform import Platform, make_zoned_grid
from repro.s4u import FailureInjector
from repro.surf.trace import Trace


def zoned_platform():
    return make_zoned_grid(num_sites=3, hosts_per_site=4)


def run_exchange_workload(sharded=False):
    """Mixed intra-/cross-site execs and transfers; returns the event log."""
    engine = s4u.Engine(zoned_platform(), sharded=sharded)
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
        actor.engine.host("site-0-host-0").set_speed(7e8)

    for i, (src, dst) in enumerate(pairs):
        engine.add_actor(f"s{i}", src, sender, i)
        engine.add_actor(f"r{i}", dst, receiver, i)
    engine.add_actor("admin", "site-1-host-0", admin)
    log.append((engine.run(), "end"))
    return log, engine


def run_burst_workload(num_sites, hosts_per_site, crossing, sharded):
    """Same-date bursts in every shard while closures migrate mid-flight.

    Host 0 of each site is a sink posting all its receives at once, so
    every transfer towards it is in flight together on its LAN link.
    Sizes are homogeneous: the execs of every worker in every shard
    complete at the same date, and so do the local transfers of a site.
    The ``crossing`` last workers of each site start late and report to
    the next site: their route hands the sink's LAN link — and the local
    flows still running on it, heap entries pending — over to the root
    shard.  Returns the event log and the count of running transfers the
    gateway handoffs moved.
    """
    platform = make_zoned_grid(num_sites=num_sites,
                               hosts_per_site=hosts_per_site)
    engine = s4u.Engine(platform, sharded=sharded)
    log = []
    moved_running = [0]
    if sharded:
        surf = engine.surf
        migrate = surf._migrate_closure

        def counting_migrate(src_model, seeds):
            before = len(src_model.running)
            migrate(src_model, seeds)
            moved_running[0] += before - len(src_model.running)

        surf._migrate_closure = counting_migrate

    def worker(actor, target, delay):
        if delay:
            yield s4u.this_actor.sleep_for(delay)
        comp = yield actor.exec_async(4e7)
        comm = yield actor.engine.mailbox(f"sink-{target}").put_async(
            actor.name, size=2e6)
        pending = s4u.ActivitySet([comp, comm])
        while not pending.empty():
            done = yield pending.wait_any()
            log.append((actor.now, actor.name, done.kind))

    def sink(actor, site, expected):
        box = actor.engine.mailbox(f"sink-{site}")
        comms = []
        for _ in range(expected):
            comms.append((yield box.get_async()))
        pending = s4u.ActivitySet(comms)
        while not pending.empty():
            done = yield pending.wait_any()
            log.append((actor.now, actor.name, done.get_payload()))

    workers = hosts_per_site - 1
    for s in range(num_sites):
        for i in range(1, hosts_per_site):
            crosses = i > workers - crossing
            engine.add_actor(f"w-{s}-{i}", f"site-{s}-host-{i}", worker,
                             (s + 1) % num_sites if crosses else s,
                             2e-3 if crosses else 0.0)
        engine.add_actor(f"sink-{s}", f"site-{s}-host-0", sink, s, workers)
    log.append((engine.run(), "end"))
    return log, moved_running[0]
