"""The collector policy of a run: paused inside, one young pass at the end.

``Engine.run`` executes its loop under
:func:`repro.kernel.collector.paused_collector`, and each set-up call
(``Engine.add_actor``, a platform builder) under
:func:`repro.kernel.collector.young_passes_only`.  Checked here without a
clock:

* the rule itself — ``gc.callbacks`` sees no collector pass while a
  simulation runs (both context factories, flat and sharded kernels),
  only the one generation-0 pass after the last actor ended; a caller
  that paused the collector keeps it paused; an actor's exception escaping
  ``run()`` still re-enables it;
* its premise — the kernel leaves no cyclic garbage, so pausing the
  collector for a run leaks nothing: with the collector paused,
  ``gc.collect()`` after a run finds 0 unreachable objects, at two sizes
  of each scenario, so the garbage cannot grow with events;
* the release — an engine is itself a graph of cycles, and
  ``Engine.close()`` breaks them: a closed engine, restored or stopped
  mid-run, is freed by reference counting alone, and it refuses to run;
* set-up — building a large star and its actors makes young passes
  only; a caller's ``gc.disable()`` or ``gc.set_threshold`` is respected,
  and a set-up call that raises, or an engine dropped unrun, leaves the
  collector on.
"""

import ast
import gc
from functools import partial
from pathlib import Path

import pytest

from gc_probe import collector_paused_by_caller, recorded_passes
from pump import actor_body
import repro
from repro import s4u
from repro.exceptions import (PlatformError, SimGridError,
                               TransferFailureError)
from repro.ft import ChildSpec, HeartbeatMonitor, RetryPolicy, Supervisor
from repro.kernel import paused_collector
from repro.platform import make_star, make_zoned_grid
from repro.replay import ClusterReplay, synthetic_workload
from repro.s4u import FailureInjector
from repro.smpi import SmpiWorld


# ---------------------------------------------------------------------------
# scenarios: each builds its world, runs it, and returns what stays alive
# ---------------------------------------------------------------------------

def _sink(actor, box, count, log):
    for _ in range(count):
        payload = yield box.get()
        log.append((actor.now, payload))


def _reporter(actor, box, index, rounds, log):
    for round_no in range(rounds):
        yield actor.execute(2e6 * (1 + (index + round_no) % 3))
        yield box.put(index, size=1e4)
        log.append((actor.now, index, round_no))


#: Zoned fleet size: a sink and 35 reporters of 24 rounds each allocate
#: more than one generation-0 threshold during the run on both context
#: factories (``test_the_fleet_allocates_enough_for_passes``).
_ROUNDS, _HOSTS_PER_SITE = 24, 12
_ZONED_LOG = 2 * _ROUNDS * (3 * _HOSTS_PER_SITE - 1)


def build_zoned_fleet(context="generator", sharded=False):
    """A sink on site 0 fed by a reporter on every other host of a
    three-site zoned grid: intra- and cross-zone flows, and a log that
    grows with events.  Returns the engine, not run yet, and the log."""
    engine = s4u.Engine(make_zoned_grid(num_sites=3,
                                        hosts_per_site=_HOSTS_PER_SITE),
                        context_factory=context, sharded=sharded)
    box = engine.mailbox("sink")
    hosts = [f"site-{site}-host-{h}" for site in range(3)
             for h in range(_HOSTS_PER_SITE)]
    log = []
    engine.add_actor("sink", hosts[0], actor_body(
        context, partial(_sink, box=box, count=_ROUNDS * (len(hosts) - 1),
                         log=log)))
    for index, host in enumerate(hosts[1:]):
        engine.add_actor(f"r{index}", host, actor_body(
            context, partial(_reporter, box=box, index=index, rounds=_ROUNDS,
                             log=log)))
    return engine, log


def zoned_fleet(context, sharded):
    engine, log = build_zoned_fleet(context, sharded)
    engine.run()
    assert len(log) == _ZONED_LOG
    return engine


def star_fleet(workers, rounds=3):
    engine = s4u.Engine(make_star(num_hosts=workers, host_speed=1e9,
                                  link_bandwidth=125e6, link_latency=1e-4))
    box = engine.mailbox("sink")
    log = []
    engine.add_actor("sink", "center", _sink, box, rounds * workers, log)
    for index in range(workers):
        engine.add_actor(f"w{index}", f"leaf-{index}", _reporter, box,
                         index, rounds, log)
    engine.run()
    assert len(log) == 2 * rounds * workers
    return engine


def _churn_sink(actor, box, want):
    while want[0] > 0:
        try:
            yield box.get()
        except TransferFailureError:
            continue   # the matched worker's host just died; re-post
        want[0] -= 1


def _churn_worker(actor, box, index):
    while True:
        yield actor.execute(1e6)
        yield box.put(index, size=1e3)


def churn_fleet(max_failures, workers=8, results=400):
    """``auto_restart`` workers under seeded host churn: actors killed
    mid-transfer and rebooted, armed timers cancelled."""
    engine = s4u.Engine(make_star(num_hosts=workers, host_speed=1e9,
                                  link_bandwidth=125e6, link_latency=1e-4))
    box = engine.mailbox("sink")
    want = [results]
    engine.add_actor("sink", "center", _churn_sink, box, want)
    for index in range(workers):
        engine.add_actor(f"w{index}", f"leaf-{index}", _churn_worker, box,
                         index, daemon=True, auto_restart=True)
    injector = FailureInjector(
        engine, seed=42, hosts=[f"leaf-{i}" for i in range(workers)],
        mtbf=0.002, mean_downtime=0.01, max_failures=max_failures).start()
    engine.run()
    assert want[0] == 0 and injector.failures == max_failures
    assert engine.restart_count > 0
    return engine


def _retrying_worker(actor, box, remote, jobs, seed, policies, done):
    """Offloads each job to a remote host, then ships its result, both
    under a retry policy: a remote host going down fails the attempt."""
    policy = RetryPolicy(max_attempts=50, base_delay=0.01, seed=seed)
    policies.append(policy)
    host = actor.engine.host(remote)
    for job in range(jobs):
        yield from policy.run(lambda: actor.exec_async(5e6, host=host))
        yield from policy.run(lambda: box.put_async(job, size=1e4))
    done.append(actor.name)


def _drain(actor, box):
    while True:
        try:
            yield box.get()
        except TransferFailureError:
            continue


def supervised_pipeline(workers, jobs=6):
    """A supervision tree of retrying workers feeding a collector while
    the leaves churn: a worker's own host going down parks and respawns
    it, the host it offloads to going down fails an attempt it retries."""
    engine = s4u.Engine(make_star(num_hosts=workers, host_speed=1e9,
                                  link_bandwidth=125e6, link_latency=1e-4))
    box = engine.mailbox("results")
    policies, done = [], []
    engine.add_actor("collector", "center", _drain, box, daemon=True)
    sup = Supervisor(engine, [
        ChildSpec(f"w{i}", f"leaf-{i}", _retrying_worker, box,
                  f"leaf-{(i + 1) % workers}", jobs, i, policies, done,
                  restart="transient") for i in range(workers)],
        host="center", max_restarts=100, window=100.0).start()
    FailureInjector(engine, seed=5,
                    hosts=[f"leaf-{i}" for i in range(workers)],
                    mtbf=0.01, mean_downtime=0.005,
                    max_failures=3 * workers).start()
    engine.run()
    assert sorted(done) == sorted(f"w{i}" for i in range(workers))
    assert not sup.escalated
    assert any(kind == "restart" for _, kind, _ in sup.events)
    assert sum(policy.retries for policy in policies) > 0
    return engine


def smpi_ring(ranks, laps=3):
    def program(mpi):
        comm = mpi.COMM_WORLD
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        token = comm.rank
        for _ in range(laps):
            token = comm.sendrecv(token, dest=right, source=left)
        results[comm.rank] = token

    results = {}
    world = SmpiWorld(make_star(num_hosts=ranks), num_ranks=ranks)
    world.run(program)
    assert results == {rank: (rank - laps) % ranks for rank in range(ranks)}
    return world


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------

class TestNoPassInsideRun:
    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["flat", "sharded"])
    @pytest.mark.parametrize("context", ["generator", "thread"])
    def test_one_young_pass_after_the_last_actor(self, context, sharded):
        engine, log = build_zoned_fleet(context, sharded)
        with recorded_passes(engine.actor_count) as passes:
            engine.run()
        # The one pass ran when no actor was left, i.e. after the loop.
        assert passes == [(0, 0)]
        assert gc.isenabled()
        assert len(log) == _ZONED_LOG

    @pytest.mark.parametrize("context", ["generator", "thread"])
    def test_the_fleet_allocates_enough_for_passes(self, context):
        """Guards the test above: without the pause, the same run would
        have crossed the generation-0 threshold, i.e. been collected."""
        engine, _ = build_zoned_fleet(context)
        gc.collect()
        with collector_paused_by_caller():
            engine.run()
            allocated = gc.get_count()[0]
        assert allocated > gc.get_threshold()[0]

    def test_caller_paused_collector_stays_paused(self):
        with recorded_passes() as passes, collector_paused_by_caller():
            star_fleet(20)
            assert not gc.isenabled()
            assert passes == []

    def test_actor_exception_still_reenables_the_collector(self):
        def doomed(actor):
            yield actor.sleep_for(1.0)
            raise RuntimeError("body failed on purpose")

        engine = s4u.Engine(make_star(num_hosts=1))
        engine.add_actor("doomed", "leaf-0", doomed)
        with recorded_passes() as passes:
            with pytest.raises(RuntimeError, match="on purpose"):
                engine.run()
            assert gc.isenabled()
        assert [generation for generation, _ in passes] == [0]

    def test_every_phase_ends_in_its_own_pass(self):
        def sleeper(actor):
            yield actor.sleep_for(3.0)

        engine = s4u.Engine(make_star(num_hosts=1))
        engine.add_actor("s", "leaf-0", sleeper)
        with recorded_passes() as passes:
            engine.run(until=1.0)
            engine.run(until=2.0)
            engine.run()
        assert [generation for generation, _ in passes] == [0, 0, 0]

    def test_nested_pause_makes_one_pass_from_the_owner(self):
        with recorded_passes() as passes:
            with paused_collector():
                with paused_collector():
                    assert not gc.isenabled()
                assert not gc.isenabled() and passes == []
            assert gc.isenabled()
        assert [generation for generation, _ in passes] == [0]

    def test_cyclic_garbage_of_an_actor_body_is_freed_at_the_end(self):
        class Node:
            pass

        def leaky(actor):
            for _ in range(3):
                node = Node()
                node.self = node   # a cycle only the collector frees
                yield actor.sleep_for(1.0)

        engine = s4u.Engine(make_star(num_hosts=1))
        engine.add_actor("leaky", "leaf-0", leaky)
        gc.collect()
        engine.run()
        assert gc.collect() == 0


def _star_with_actors(size):
    """Set-up only: a ``size``-leaf star with one sleeper per leaf."""
    engine = s4u.Engine(make_star(num_hosts=size))
    for index in range(size):
        engine.add_actor(f"w{index}", f"leaf-{index}", _sleep, 1.0)
    return engine


class TestSetUpMakesOnlyYoungPasses:
    """A platform builder and ``Engine.add_actor`` run under
    :func:`~repro.kernel.collector.young_passes_only`: the world they
    build is never re-traced by a middle or full pass."""

    def test_a_large_star_and_its_actors_make_only_young_passes(self):
        with recorded_passes() as passes:
            _star_with_actors(2000)
        # Enough allocation for passes, and each one a young pass.
        assert len(passes) > 10
        assert {generation for generation, _ in passes} == {0}
        assert gc.isenabled()

    def test_the_threshold_is_read_per_call(self):
        threshold = gc.get_threshold()
        with recorded_passes() as passes:
            try:
                gc.set_threshold(50)
                make_star(num_hosts=20)   # one pass, at the end
                gc.set_threshold(0)
                make_star(num_hosts=20)   # none: the collector is off
            finally:
                gc.set_threshold(*threshold)
        assert passes == [(0, None)]

    def test_caller_paused_collector_is_left_alone(self):
        with recorded_passes() as passes, collector_paused_by_caller():
            _star_with_actors(2000)
            assert not gc.isenabled()
            assert passes == []

    def test_a_call_that_raises_reenables_the_collector(self):
        engine = s4u.Engine(make_star(num_hosts=1))
        with pytest.raises(PlatformError, match="unknown host"):
            engine.add_actor("lost", "nowhere", _sleep, 1.0)
        assert gc.isenabled()

    def test_an_engine_dropped_unrun_leaves_the_collector_on(self):
        engine = _star_with_actors(50)
        del engine
        assert gc.isenabled()


def test_the_helper_is_the_only_code_touching_the_collector():
    def imports_gc(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(alias.name == "gc" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names)

    src = Path(repro.__file__).parent
    users = sorted(path.relative_to(src).as_posix()
                   for path in src.rglob("*.py") if imports_gc(path))
    assert users == ["kernel/collector.py"]


# ---------------------------------------------------------------------------
# the premise: no cyclic garbage, at any size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", [
    partial(star_fleet, 20),
    partial(star_fleet, 80),
    partial(churn_fleet, 5),
    partial(churn_fleet, 40),
    partial(supervised_pipeline, 3),
    partial(supervised_pipeline, 8),
    partial(smpi_ring, 4),
    partial(smpi_ring, 12),
    partial(zoned_fleet, "thread", True),
], ids=["star-20", "star-80", "churn-5", "churn-40", "supervised-3",
        "supervised-8", "smpi-ring-4", "smpi-ring-12", "zoned-thread"])
def test_a_run_leaves_no_cyclic_garbage(scenario):
    gc.collect()
    with collector_paused_by_caller():
        world = scenario()   # kept alive: only what the run dropped counts
        assert gc.collect() == 0


# ---------------------------------------------------------------------------
# the release: a closed engine needs no collector pass
# ---------------------------------------------------------------------------

class FlipLog:
    """A host hook holding its engine: a cycle through the engine's hook
    list."""

    def __init__(self, engine):
        self.engine = engine
        self.flips = []

    def __call__(self, host, is_on):
        self.flips.append((self.engine.now, host.name, is_on))


class StreamLog(FlipLog):
    """An observer holding its engine: a cycle through the engine's
    observers."""

    def __call__(self, date, kind, subject, value):
        self.flips.append((date, kind, subject, value))


def armed_churn():
    """A warm star with churn armed for the next phase (the injector's
    pulse timers are pending), a host hook and an observer."""
    engine = star_fleet(8)
    engine.on_host_state_change(FlipLog(engine))
    engine.observe(StreamLog(engine))
    FailureInjector(engine, seed=7, hosts=[f"leaf-{i}" for i in range(8)],
                    mtbf=0.01, mean_downtime=0.02, max_failures=5).start()
    assert engine.timers
    return engine


def _sleep(actor, duration):
    yield actor.sleep_for(duration)


def heartbeat_replay():
    """The trace-driven platform of a cluster replay watched by a
    heartbeat monitor, stopped while node-3 is down: its emitter waits for
    the reboot and unread beats wait in a mailbox."""
    replay = ClusterReplay(synthetic_workload(3, num_hosts=6, num_jobs=24))
    engine = s4u.Engine(replay.build_platform())
    HeartbeatMonitor(engine, [f"node-{i}" for i in range(6)], "frontend",
                     notify_mailbox="ft:notify").start()
    engine.add_actor("until", "frontend", _sleep, 4.0)
    engine.run()
    assert [host.name for host in engine._pending_restarts] == ["node-3"]
    assert any(box.pending_sends for box in engine.mailboxes.values())
    return engine


def churned_cluster_replay():
    """Shaped like perfbench's ``replay_ft`` at scale 0.02, after its
    run: an at-least-once replay of 8 jobs on 4 nodes under seeded churn.
    The engine's observer and hooks still reach the replay, its supervisor
    and its detector."""
    workload = synthetic_workload(11, num_hosts=4, num_jobs=8,
                                  mean_interarrival=0.1, mean_flops=5e8)
    workload.horizon = 20.0 + 0.2 * 8
    replay = ClusterReplay(workload, link_latency=1e-6, ack_size=1.0,
                           churn_seed=12, churn_mtbf=0.5, churn_downtime=0.5,
                           churn_max_failures=2, semantics="at_least_once")
    metrics = replay.run()
    assert metrics["lost"] == 0 and metrics["worker_restarts"] > 0
    return replay


class TestClose:
    @pytest.mark.parametrize("scenario", [
        partial(star_fleet, 20),
        partial(zoned_fleet, "generator", True),
        armed_churn,
        heartbeat_replay,
        lambda: churned_cluster_replay().detector.engine,
    ], ids=["flat-star", "sharded-grid", "armed-churn", "heartbeat-replay",
            "cluster-replay"])
    def test_a_closed_restored_engine_is_freed_without_the_collector(
            self, scenario):
        blob = scenario().snapshot()
        gc.collect()
        with collector_paused_by_caller():
            engine = s4u.Engine.restore(blob)
            engine.close()
            del engine
            assert gc.collect() == 0

    def test_a_closed_cluster_replay_is_freed_without_the_collector(self):
        # Neither the replay nor its supervisor is on a cycle of its own:
        # the workers' specs carry the metrics, not the replay, and the
        # supervisor lets go of its actor when the actor dies.
        gc.collect()
        with collector_paused_by_caller():
            replay = churned_cluster_replay()
            replay.detector.engine.close()
            del replay
            assert gc.collect() == 0

    @pytest.mark.parametrize("context", ["generator", "thread"])
    def test_closing_mid_run_kills_the_actors_and_frees_everything(
            self, context):
        gc.collect()
        with collector_paused_by_caller():
            engine, _ = build_zoned_fleet(context, sharded=True)
            engine.run(until=0.05)
            assert engine.actor_count() == 3 * _HOSTS_PER_SITE
            assert engine.surf.has_running_actions()
            engine.close()
            assert engine.actor_count() == 0
            assert not engine.surf.has_running_actions()
            del engine
            assert gc.collect() == 0

    def test_a_closed_engine_answers_now_and_refuses_to_run(self):
        engine = star_fleet(4)
        date = engine.now
        solves = engine.kernel_stats()["solver"]["solve_calls"]
        engine.close()
        engine.close()
        assert engine.now == date
        assert engine.kernel_stats()["solver"]["solve_calls"] == solves
        with pytest.raises(SimGridError, match="run.. on a closed engine"):
            engine.run()
        with pytest.raises(SimGridError, match="snapshot.. on a closed"):
            engine.snapshot()
