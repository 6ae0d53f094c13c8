"""Engine snapshot/fork: a restored blob replays bit-identically.

The PR-8 contract extends the kernel's determinism guarantee across
serialization: ``engine.snapshot()`` at a quiescent point, then
``Engine.restore(blob)`` — in this process or another one — must produce
exactly the simulated dates and event order of the engine that never got
snapshotted.  That must hold for the flat kernel, the sharded kernel,
and through mid-churn FailureInjector state (pending pulse timers +
Mersenne RNG position).

Below that, the SURF layer itself must survive ``copy.deepcopy`` and
``pickle`` mid-run (actions in flight).
"""

import copy
import multiprocessing
import pickle

import pytest

from repro import s4u
from repro.exceptions import (
    HostFailureError,
    SimTimeoutError,
    SnapshotError,
    TransferFailureError,
)
from repro.kernel.timer import TimerQueue
from repro.platform import Platform, make_star, make_zoned_grid
from repro.s4u import FailureInjector
from repro.surf.engine import SurfEngine
from repro.surf.trace import Trace


NUM_LEAVES = 3


def _make_engine(sharded=False):
    if sharded:
        platform = make_zoned_grid(num_sites=3, hosts_per_site=2)
    else:
        platform = make_star(num_hosts=NUM_LEAVES, host_speed=1e9,
                             link_bandwidth=1e7, link_latency=1e-4)
    return s4u.Engine(platform, sharded=sharded)


def _worker_hosts(engine):
    """The churnable leaf hosts (everything but the first, the sink's)."""
    names = sorted(engine.platform.hosts)
    return names[0], names[1:1 + NUM_LEAVES]


def _run_warm_phase(engine):
    """Phase 1: a small master/worker exchange, run to completion."""
    center, leaves = _worker_hosts(engine)

    def worker(actor, index):
        yield actor.execute(1e7 * (index + 1))
        comm = yield engine.mailbox("warm").put_async(index, size=1e4)
        yield comm.wait()

    def sink(actor):
        for _ in leaves:
            yield engine.mailbox("warm").get()

    engine.add_actor("warm-sink", center, sink)
    for index, host in enumerate(leaves):
        engine.add_actor(f"warm-{index}", host, worker, index)
    return engine.run()


def _run_measured_phase(engine, seed=None):
    """Phase 2: three rounds per worker, optional seeded churn; returns
    ``(final_date, chronological_log, injector_events)``."""
    center, leaves = _worker_hosts(engine)
    log = []

    def worker(actor, index):
        for round_no in range(3):
            comp = yield actor.exec_async(5e6 * (index + 1))
            try:
                yield comp.wait()
            except HostFailureError:
                log.append((engine.now, "exec-failed", index, round_no))
                continue
            comm = yield engine.mailbox("sink").put_async(
                (index, round_no), size=2e4)
            try:
                yield comm.wait(timeout=0.05)
                log.append((engine.now, "sent", index, round_no))
            except (SimTimeoutError, TransferFailureError):
                log.append((engine.now, "send-lost", index, round_no))

    def sink(actor):
        for attempt in range(6 * len(leaves)):
            try:
                got = yield engine.mailbox("sink").get(timeout=0.05)
                log.append((engine.now, "got", got))
            except (SimTimeoutError, TransferFailureError):
                log.append((engine.now, "miss", attempt))

    engine.add_actor("sink", center, sink)
    for index, host in enumerate(leaves):
        engine.add_actor(f"w{index}", host, worker, index)
    injector = None
    if seed is not None:
        injector = FailureInjector(engine, seed=seed, hosts=leaves,
                                   mtbf=0.01, mean_downtime=0.02,
                                   max_failures=5).start()
    final = engine.run()
    return final, log, injector.events if injector else []


def _cold_run(sharded=False, seed=None):
    engine = _make_engine(sharded)
    _run_warm_phase(engine)
    try:
        return _run_measured_phase(engine, seed)
    finally:
        engine.close()


def _forked_run(sharded=False, seed=None):
    engine = _make_engine(sharded)
    _run_warm_phase(engine)
    blob = engine.snapshot()
    engine.close()
    restored = s4u.Engine.restore(blob)
    try:
        return _run_measured_phase(restored, seed)
    finally:
        restored.close()


# ---------------------------------------------------------------------------
# fork vs cold bit-identity
# ---------------------------------------------------------------------------

class TestForkEqualsCold:
    def test_flat_kernel(self):
        assert _forked_run() == _cold_run()

    def test_flat_kernel_with_churn(self):
        cold = _cold_run(seed=11)
        fork = _forked_run(seed=11)
        assert fork == cold
        assert cold[2], "the churn seed must actually inject failures"

    def test_sharded_kernel(self):
        assert _forked_run(sharded=True) == _cold_run(sharded=True)

    def test_sharded_kernel_with_churn(self):
        assert _forked_run(sharded=True, seed=3) == _cold_run(
            sharded=True, seed=3)

    def test_snapshot_is_non_destructive(self):
        """The snapshotted engine keeps running identically afterwards."""
        engine = _make_engine()
        _run_warm_phase(engine)
        engine.snapshot()
        try:
            assert _run_measured_phase(engine, seed=5) == _cold_run(seed=5)
        finally:
            engine.close()

    def test_pending_injector_pulses_travel(self):
        """An injector armed before the snapshot churns the restored run."""
        def churned(snapshot_between):
            engine = _make_engine()
            _, leaves = _worker_hosts(engine)
            _run_warm_phase(engine)
            injector = FailureInjector(engine, seed=23, hosts=leaves,
                                       mtbf=0.01, mean_downtime=0.02,
                                       max_failures=5).start()
            if snapshot_between:
                blob = engine.snapshot()
                engine.close()
                engine = s4u.Engine.restore(blob)
            final, log, _ = _run_measured_phase(engine)
            engine.close()
            return final, log

        cold = churned(snapshot_between=False)
        fork = churned(snapshot_between=True)
        assert fork == cold

    def test_a_restore_pulse_follows_the_copied_injector(self):
        """A restore pulse is a partial over the injector's bound method:
        restored from a snapshot or deep-copied, it turns the copy's
        victim back on and counts on the copied injector only."""
        engine = _make_engine()
        _, leaves = _worker_hosts(engine)
        _run_warm_phase(engine)
        injector = FailureInjector(engine, seed=23, hosts=leaves,
                                   max_failures=1)
        injector._fire_failure()      # one victim down, its restore armed
        [(_, victim, _)] = injector.events
        [(_, _, timer)] = engine.timers._heap
        restored = s4u.Engine.restore(engine.snapshot())
        [(_, _, restored_timer)] = restored.timers._heap
        for pulse in (restored_timer.callback,
                      copy.deepcopy(timer.callback)):
            twin = pulse.func.__self__
            assert twin is not injector
            pulse()
            assert twin.restores == 1
            assert twin.engine.host(victim).is_on
        assert injector.restores == 0
        assert not engine.host(victim).is_on
        restored.close()
        engine.close()


def _background_sender(actor, index):
    yield actor.engine.mailbox(f"bg-{index}").put_async(
        index, size=4e6 * (index + 1), detached=True)


def _background_receiver(actor, index):
    yield actor.engine.mailbox(f"bg-{index}").get_async()


class TestShardedHeapSharingSurvivesSnapshots:
    def test_one_heap_per_kind_and_same_dates_with_comms_in_flight(self):
        """No pickle hook rebuilds anything on the sharded engine: the
        per-kind heap/counter sharing and the system→model map must come
        back from plain pickling, with live heap entries inside."""
        engine = _make_engine(sharded=True)
        _run_warm_phase(engine)
        # Matched, detached transfers (one local, two cross-site) outlive
        # their actors, so the engine is quiescent with events pending.
        center, leaves = _worker_hosts(engine)
        for index, host in enumerate(leaves):
            engine.add_actor(f"bg-send-{index}", host,
                             _background_sender, index)
            engine.add_actor(f"bg-recv-{index}", center,
                             _background_receiver, index)
        engine.run()
        assert len(engine.surf.network_model._heap) >= len(leaves)
        assert engine.surf.has_running_actions()

        restored = s4u.Engine.restore(engine.snapshot())
        surf = restored.surf
        for kind_list in (surf._cpu_list, surf._net_list):
            root = kind_list[0]
            assert all(m._heap is root._heap for m in kind_list)
            assert all(m._seq is root._seq for m in kind_list)
        assert len(surf.network_model._heap) == \
            len(engine.surf.network_model._heap)
        assert all(surf.model_of(link.resource).system is link.resource._system
                   for link in restored.links.values())
        assert _run_measured_phase(restored) == _run_measured_phase(engine)


# ---------------------------------------------------------------------------
# routing state: sealed shortest-path trees are derived, never pickled
# ---------------------------------------------------------------------------

def _site_pairs(hosts):
    return [(f"site-0-host-{i}", f"site-0-host-{(7 * i + 1) % hosts}")
            for i in range(2, hosts, max(1, hosts // 5))] + [
        ("site-0-host-1", "site-1-host-2"), ("site-1-gw", "site-0-host-3")]


class TestSealedTreesStayOutOfSnapshots:
    def test_restored_zoned_grid_reseals_lazily_and_routes_identically(self):
        engine = s4u.Engine(make_zoned_grid(num_sites=2, hosts_per_site=12,
                                            site_routing="Dijkstra"))
        pairs = _site_pairs(12)
        before = [engine.platform.route_links(*pair) for pair in pairs[:3]]
        assert engine.platform.routing_stats()["trees_sealed"] > 0
        restored = s4u.Engine.restore(engine.snapshot())
        platform = restored.platform
        assert all(zone.strategy._trees is None
                   for zone in platform.zones.values())
        assert platform.routing_stats() == {
            "relaxations": 0, "trees_sealed": 0, "tree_lookups": 0}
        assert [platform.route_links(*pair) for pair in pairs[:3]] == before
        # Pairs first resolved after the restore re-seal and agree with a
        # platform that never travelled.
        fresh = make_zoned_grid(num_sites=2, hosts_per_site=12,
                                site_routing="Dijkstra")
        assert ([platform.route_links(*pair) for pair in pairs]
                == [fresh.route_links(*pair) for pair in pairs])
        assert platform.routing_stats()["trees_sealed"] > 0
        engine.close()
        restored.close()

    def test_blob_carries_paths_not_trees(self):
        hosts = 1500

        def blob_after(num_pairs):
            engine = s4u.Engine(make_zoned_grid(
                num_sites=2, hosts_per_site=hosts, site_routing="Dijkstra"))
            for pair in _site_pairs(hosts)[:num_pairs]:
                engine.platform.route_links(*pair)
            sealed = engine.platform.routing_stats()["trees_sealed"]
            blob = engine.snapshot()
            engine.close()
            return len(blob), sealed

        empty, none_sealed = blob_after(0)
        routed, sealed = blob_after(7)
        assert none_sealed == 0 and sealed >= 3
        # Seven memoized routes of a few link names each — not three
        # predecessor maps of 1500 entries (tens of kilobytes apiece).
        assert 0 < routed - empty < 2000


# ---------------------------------------------------------------------------
# quiescence + blob validation
# ---------------------------------------------------------------------------

class TestSnapshotGuards:
    def test_snapshot_requires_quiescence(self):
        engine = _make_engine()

        def forever(actor):
            while True:
                yield actor.sleep_for(1.0)

        engine.add_actor("spinner", "center", forever)
        engine.run(until=0.5)
        with pytest.raises(SnapshotError, match="spinner"):
            engine.snapshot()
        engine.close()

    def test_restore_rejects_foreign_blob(self):
        with pytest.raises(SnapshotError, match="does not hold"):
            s4u.Engine.restore(pickle.dumps({"not": "an engine"}))

    def test_snapshot_compacts_dead_timers(self):
        """Cancelled timers (e.g. the timeout of a wait that completed
        first) may hold unpicklable closures; lazy deletion only drops
        them from the heap *top*, so the snapshot path compacts first."""
        engine = _make_engine()
        engine.timers.schedule(1.0, _noop_timer)
        frame = (x for x in range(3))  # generators never pickle
        doomed = engine.timers.schedule(2.0, lambda: next(frame))
        doomed.cancel()  # dead, but buried below the pending timer
        assert len(engine.timers._heap) == 2
        blob = engine.snapshot()  # would raise without compaction
        assert len(engine.timers._heap) == 1
        restored = s4u.Engine.restore(blob)
        assert len(restored.timers) == 1
        engine.close()
        restored.close()


def _noop_timer():
    pass


class TestTimerQueueCompact:
    def test_compact_drops_only_dead_entries(self):
        queue = TimerQueue()
        fired = []
        for i in range(5):
            queue.schedule(float(i), lambda i=i: fired.append(i))
        dead = [queue.schedule(float(i) + 0.5, lambda: fired.append(-1))
                for i in range(5)]
        for timer in dead:
            timer.cancel()
        assert queue.compact() == 5
        assert len(queue) == 5
        queue.fire_until(10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_compact_preserves_tie_break_order(self):
        queue = TimerQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("a"))
        doomed = queue.schedule(1.0, lambda: fired.append("x"))
        queue.schedule(1.0, lambda: fired.append("b"))
        doomed.cancel()
        queue.compact()
        queue.fire_until(2.0)
        assert fired == ["a", "b"]


# ---------------------------------------------------------------------------
# SURF layer: mid-run deepcopy / pickle
# ---------------------------------------------------------------------------

def _surf_with_actions():
    surf = SurfEngine()
    cpu = surf.add_cpu("host", speed=1e9)
    fast = surf.add_link("fast", bandwidth=1e8, latency=1e-4)
    slow = surf.add_link("slow", bandwidth=1e6, latency=1e-3)
    surf.execute(cpu, 3e9)
    surf.execute(cpu, 1e9)
    surf.communicate([fast, slow], 5e6)
    surf.communicate([fast], 2e7)
    return surf


def _failed(result):
    """How many actions a resource going down failed during the step."""
    return sum(len(failed) for _, _, failed in result.state_changes)


def _drain(surf):
    """Step to idle; returns the (time, #completed, #failed) trajectory."""
    trajectory = []
    while True:
        result = surf.step()
        if result is None:
            break
        trajectory.append((result.time, len(result.completed),
                           _failed(result)))
    return trajectory


def _surf_with_periodic_traces():
    """Running actions on resources driven by *periodic* traces.

    Periodic trace iterators carry live cursor state (`_index`,
    `_cycle_offset`) inside the engine's trace heap; a snapshot taken
    mid-cycle must preserve that cursor exactly, otherwise the restored
    run replays or skips availability events and the dates diverge.
    """
    surf = SurfEngine()
    cpu = surf.add_cpu(
        "host", speed=1e9,
        availability_trace=Trace([(0.0, 1.0), (0.6, 0.5)], period=1.0,
                                 name="cpu-load"))
    link = surf.add_link(
        "wire", bandwidth=1e6, latency=0.0,
        bandwidth_trace=Trace([(0.3, 0.8)], period=0.7, name="bw"))
    surf.register_resource_traces(cpu)
    surf.register_resource_traces(link)
    surf.execute(cpu, 4e9)
    surf.communicate([link], 3e6)
    return surf


def _drain_actions(surf):
    """Step until no action runs (periodic traces tick forever, so the
    plain run-to-idle drain would never return)."""
    trajectory = []
    while surf.has_running_actions():
        result = surf.step()
        trajectory.append((result.time, len(result.completed),
                           _failed(result)))
    return trajectory


class TestTraceHeapSnapshots:
    def test_periodic_trace_iterators_pickle_mid_cycle(self):
        surf = _surf_with_periodic_traces()
        for _ in range(5):      # land strictly inside a later cycle
            surf.step()
        assert surf.clock > 1.0 and surf._trace_heap
        clone = pickle.loads(pickle.dumps(surf))
        assert _drain_actions(clone) == _drain_actions(surf)
        assert clone.clock == surf.clock

    def test_deepcopy_mid_cycle_continues_identically(self):
        surf = _surf_with_periodic_traces()
        for _ in range(5):
            surf.step()
        clone = copy.deepcopy(surf)
        assert _drain_actions(clone) == _drain_actions(surf)

    def test_s4u_restore_mid_cycle_bit_identical(self):
        """Fork ≡ cold on a traced platform, snapshot taken mid-cycle."""

        def traced_pair():
            platform = Platform("traced-pair")
            platform.add_host(
                "a", 1e9,
                availability_trace=Trace([(0.0, 1.0), (0.6, 0.5)],
                                         period=1.3, name="load"))
            platform.add_host("b", 1e9)
            platform.add_link(
                "wire", 1e6, latency=0.0,
                bandwidth_trace=Trace([(0.4, 0.7)], period=0.9, name="bw"))
            platform.connect("a", "b", "wire")
            return s4u.Engine(platform)

        def warm(engine):
            def worker(actor):
                yield actor.execute(2.2e9)
            engine.add_actor("warm", "a", worker)
            return engine.run()

        def measured(engine):
            log = []

            def worker(actor):
                for k in range(2):
                    yield actor.execute(1.5e9)
                    yield engine.mailbox("out").put(k, size=2e6)
                    log.append((actor.now, f"put-{k}"))

            def sink(actor):
                for _ in range(2):
                    yield engine.mailbox("out").get()
                    log.append((actor.now, "got"))

            engine.add_actor("w", "a", worker)
            engine.add_actor("sink", "b", sink)
            log.append((engine.run(), "end"))
            return log

        cold = traced_pair()
        warm_date = warm(cold)
        # The warm phase must end strictly inside a trace cycle, or this
        # test stops guarding the iterator cursor.
        assert warm_date % 1.3 > 1e-9
        forked = traced_pair()
        warm(forked)
        blob = forked.snapshot()
        forked.close()
        restored = s4u.Engine.restore(blob)
        try:
            assert measured(restored) == measured(cold)
        finally:
            cold.close()
            restored.close()


class TestSurfMidRunCopies:
    def test_deepcopy_mid_run_continues_identically(self):
        surf = _surf_with_actions()
        surf.step()  # advance partially: actions now in flight
        clone = copy.deepcopy(surf)
        assert _drain(clone) == _drain(surf)
        assert clone.clock == surf.clock

    def test_pickle_mid_run_continues_identically(self):
        surf = _surf_with_actions()
        surf.step()
        clone = pickle.loads(pickle.dumps(surf))
        assert _drain(clone) == _drain(surf)

    def test_deepcopy_does_not_alias_state(self):
        surf = _surf_with_actions()
        clone = copy.deepcopy(surf)
        _drain(clone)
        # The original still sits at t=0 with everything to do.
        assert surf.clock == 0.0
        assert surf.has_running_actions()

    def test_maxmin_system_pickle_roundtrip_solves_identically(self):
        surf = _surf_with_actions()
        system = surf.cpu_model.system
        system.solve()
        restored = pickle.loads(pickle.dumps(system))
        assert ({v.id: v.value for v in restored.variables}
                == {v.id: v.value for v in system.variables})


# ---------------------------------------------------------------------------
# cross-process restore
# ---------------------------------------------------------------------------

def _child_replay(blob, seed, conn):
    engine = s4u.Engine.restore(blob)
    try:
        conn.send(_run_measured_phase(engine, seed))
    finally:
        engine.close()
        conn.close()


class TestProcessRoundtrip:
    def test_blob_restores_in_another_process(self):
        engine = _make_engine()
        _run_warm_phase(engine)
        blob = engine.snapshot()
        engine.close()

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_replay, args=(blob, 9, child_conn),
                           daemon=True)
        proc.start()
        child_conn.close()
        child_result = parent_conn.recv()
        proc.join(timeout=30)
        parent_conn.close()
        assert child_result == _cold_run(seed=9)
