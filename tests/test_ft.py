"""Fault-tolerance toolkit: retry policies, heartbeats, supervision trees.

Covers the PR-10 ``repro.ft`` package:

* :class:`RetryPolicy` — seeded backoff determinism, activity/blocking/
  plain-value factories, exhaustion into :class:`RetryError`, and the
  pickled-RNG contract (a restored policy continues the exact jitter
  stream);
* :class:`HeartbeatMonitor` — suspect/alive flips against a scripted
  outage, bounds on the detection delay, stale-seq accounting after an
  emitter reboot;
* :class:`Supervisor`/:class:`ChildSpec` — restart policies, the two
  strategies, bounded intensity with escalation, host-down parking,
  deadlines, nesting, and clean engine teardown;
* snapshot equivalence — a fleet supervised under pre-armed injector
  churn restores from ``engine.snapshot()`` with bit-identical events.
"""

import gc
import pickle

import pytest

from gc_probe import collector_paused_by_caller
from repro import s4u
from repro.exceptions import SimTimeoutError
from repro.ft import (
    ChildSpec,
    HeartbeatMonitor,
    RetryError,
    RetryPolicy,
    Supervisor,
)
from repro.platform import make_star
from repro.s4u import FailureInjector, this_actor


def star(num_hosts=3, **kwargs):
    kwargs.setdefault("host_speed", 1e9)
    kwargs.setdefault("link_latency", 1e-4)
    return make_star(num_hosts=num_hosts, **kwargs)


# -- module-level actor bodies (snapshot tests must pickle by reference) -------

def _finishing_worker(actor, log, flops):
    yield actor.execute(flops)
    log.append((actor.now, actor.name))


def _steady_worker(actor):
    while True:
        yield actor.sleep_for(0.5)


def _quitter(actor):
    yield actor.sleep_for(0.1)
    yield this_actor.exit()


def _one_shot(actor, log):
    yield actor.sleep_for(0.2)
    log.append((actor.now, actor.name))


def _churn_chaos(actor, host_name, down_at, up_at, until):
    yield actor.sleep_until(down_at)
    actor.engine.host(host_name).turn_off()
    yield actor.sleep_until(up_at)
    actor.engine.host(host_name).turn_on()
    if until > actor.now:
        yield actor.sleep_until(until)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)

    def test_backoff_is_seeded_and_deterministic(self):
        first = [RetryPolicy(seed=7).backoff(k) for k in (1, 2, 3, 4)]
        second = [RetryPolicy(seed=7).backoff(k) for k in (1, 2, 3, 4)]
        other = [RetryPolicy(seed=8).backoff(k) for k in (1, 2, 3, 4)]
        assert first == second
        assert first != other

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.35,
                             jitter=0.0)
        assert [policy.backoff(k) for k in (1, 2, 3)] == [0.1, 0.2, 0.35]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, factor=1.0, jitter=0.25,
                             seed=3)
        for attempt in range(1, 50):
            assert 0.75 <= policy.backoff(attempt) <= 1.25

    def test_pickled_policy_continues_the_jitter_stream(self):
        policy = RetryPolicy(seed=42)
        policy.backoff(1)
        clone = pickle.loads(pickle.dumps(policy))
        assert [policy.backoff(k) for k in (2, 3, 4)] == \
            [clone.backoff(k) for k in (2, 3, 4)]

    def test_retries_remote_exec_through_churn(self):
        def run_once():
            out = {}

            def worker(actor):
                remote = actor.engine.host("leaf-0")
                policy = RetryPolicy(max_attempts=5, base_delay=0.5,
                                     seed=42)
                yield from policy.run(lambda: actor.exec_async(2e9,
                                                               host=remote))
                out["done"] = actor.now
                out["counters"] = (policy.attempts, policy.retries,
                                   policy.giveups)

            engine = s4u.Engine(star(1))
            engine.add_actor("w", "center", worker)
            engine.add_actor("chaos", "center", _churn_chaos,
                             "leaf-0", 1.0, 1.5, 0.0)
            engine.run()
            return out

        first, second = run_once(), run_once()
        assert first == second
        assert first["counters"] == (2, 1, 0)
        assert first["done"] > 1.5  # finished after the outage

    def test_retried_call_leaves_no_cyclic_garbage(self):
        # A failure kept in the policy's frame past its except clause is
        # an exception -> traceback -> frame -> exception cycle, one per
        # call that failed at least once.
        out = {}

        def worker(actor):
            remote = actor.engine.host("leaf-0")
            policy = RetryPolicy(max_attempts=5, base_delay=0.5, seed=42)
            yield from policy.run(lambda: actor.exec_async(2e9, host=remote))
            out["counters"] = (policy.attempts, policy.retries,
                               policy.giveups)

        engine = s4u.Engine(star(1))
        engine.add_actor("w", "center", worker)
        engine.add_actor("chaos", "center", _churn_chaos,
                         "leaf-0", 1.0, 1.5, 0.0)
        gc.collect()
        with collector_paused_by_caller():
            engine.run()
            assert out["counters"] == (2, 1, 0)
            assert gc.collect() == 0

    def test_exhaustion_raises_retry_error_with_cause(self):
        out = {}

        def getter(actor):
            box = actor.engine.mailbox("never")
            policy = RetryPolicy(max_attempts=3, base_delay=0.2, seed=1)
            try:
                yield from policy.run(lambda: box.get(timeout=0.3))
            except RetryError as exc:
                out["cause"] = type(exc.__cause__)
                out["counters"] = (policy.attempts, policy.retries,
                                   policy.giveups)

        engine = s4u.Engine(star(1))
        engine.add_actor("g", "center", getter)
        engine.run()
        assert out["cause"] is SimTimeoutError
        assert out["counters"] == (3, 2, 1)

    def test_plain_value_factory_returns_immediately(self):
        out = {}

        def body(actor):
            policy = RetryPolicy(max_attempts=2)
            out["value"] = yield from policy.run(lambda: 41 + 1)
            out["attempts"] = policy.attempts

        engine = s4u.Engine(star(1))
        engine.add_actor("b", "center", body)
        engine.run()
        assert out == {"value": 42, "attempts": 1}

    def test_non_retryable_exception_propagates(self):
        out = {}

        def body(actor):
            policy = RetryPolicy(max_attempts=5)

            def factory():
                raise KeyError("not an activity failure")

            try:
                yield from policy.run(factory)
            except KeyError:
                out["attempts"] = policy.attempts

        engine = s4u.Engine(star(1))
        engine.add_actor("b", "center", body)
        engine.run()
        assert out == {"attempts": 1}


# ---------------------------------------------------------------------------
# HeartbeatMonitor
# ---------------------------------------------------------------------------

class TestHeartbeatMonitor:
    def test_parameter_validation(self):
        engine = s4u.Engine(star(2))
        with pytest.raises(ValueError):
            HeartbeatMonitor(engine, [], "center")
        with pytest.raises(ValueError):
            HeartbeatMonitor(engine, ["leaf-0"], "center",
                             period=0.5, timeout=0.6)
        with pytest.raises(ValueError):
            HeartbeatMonitor(engine, ["leaf-0"], "center", period=0.0)

    def test_outage_is_suspected_then_cleared(self):
        def run_once():
            engine = s4u.Engine(star(3))
            monitor = HeartbeatMonitor(
                engine, ["leaf-0", "leaf-1", "leaf-2"], "center",
                period=0.25, timeout=0.75).start()
            engine.add_actor("chaos", "center", _churn_chaos,
                             "leaf-1", 3.0, 6.0, 10.0)
            engine.run()
            return monitor

        monitor = run_once()
        assert [(kind, name) for _, kind, name in monitor.events] == [
            ("suspect", "leaf-1"), ("alive", "leaf-1")]
        suspect_at = monitor.events[0][0]
        alive_at = monitor.events[1][0]
        # Detection bound: within period + timeout of the down event,
        # recovery within a beat period (plus delivery) of the restore.
        assert 3.0 + 0.75 < suspect_at <= 3.0 + 0.75 + 0.25 + 0.05
        assert 6.0 <= alive_at <= 6.0 + 0.25 + 0.05
        assert not monitor.suspected
        assert monitor.is_suspected("leaf-1") is False
        # Bit-identical replay.
        assert run_once().events == monitor.events

    def test_rebooted_emitter_beats_are_stale_but_live(self):
        engine = s4u.Engine(star(1))
        monitor = HeartbeatMonitor(engine, ["leaf-0"], "center",
                                   period=0.25, timeout=0.75).start()
        engine.add_actor("chaos", "center", _churn_chaos,
                         "leaf-0", 2.0, 4.0, 8.0)
        engine.run()
        # The auto-restarted emitter resumed numbering at 0: at least one
        # beat arrived with a non-increasing sequence number.
        assert monitor.stale_beats >= 1
        assert monitor.beats > 0

    def test_live_host_is_never_suspected(self):
        engine = s4u.Engine(star(2))
        monitor = HeartbeatMonitor(engine, ["leaf-0", "leaf-1"], "center",
                                   period=0.25, timeout=0.75).start()
        engine.add_actor("hold", "center", _one_shot, [])
        engine.run(until=12.0)
        assert monitor.events == []


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

class TestSupervisor:
    def test_parameter_validation(self):
        engine = s4u.Engine(star(1))
        spec = ChildSpec("w", "leaf-0", _steady_worker)
        with pytest.raises(ValueError):
            Supervisor(engine, [], host="center")
        with pytest.raises(ValueError):
            Supervisor(engine, [spec, spec], host="center")
        with pytest.raises(ValueError):
            Supervisor(engine, [spec], strategy="rest_for_one",
                       host="center")
        with pytest.raises(ValueError):
            ChildSpec("w", "leaf-0", _steady_worker, restart="sometimes")

    def test_transient_children_finish_and_tree_completes(self):
        log = []
        engine = s4u.Engine(star(3))
        sup = Supervisor(engine, [
            ChildSpec(f"w{i}", f"leaf-{i}", _finishing_worker, log,
                      1e9 * (i + 1), restart="transient")
            for i in range(3)], host="center").start()
        final = engine.run()
        assert [name for _, name in log] == ["w0", "w1", "w2"]
        assert sup.done and not sup.escalated and sup.restarts == 0
        assert final == pytest.approx(3.0)
        assert engine.actor_count() == 0

    def test_temporary_child_is_never_restarted(self):
        log = []
        engine = s4u.Engine(star(1))
        Supervisor(engine, [ChildSpec("once", "leaf-0", _one_shot, log,
                                      restart="temporary")],
                   host="center").start()
        engine.run()
        assert len(log) == 1

    def test_permanent_quitter_escalates_at_the_bound(self):
        engine = s4u.Engine(star(1))
        sup = Supervisor(engine, [ChildSpec("q", "leaf-0", _quitter)],
                         host="center", max_restarts=3, window=5.0).start()
        final = engine.run()
        assert sup.escalated
        assert sup.restarts == 3
        assert final == pytest.approx(0.4)  # 4 deaths, 0.1 s apart
        assert engine.actor_count() == 0
        kinds = [kind for _, kind, _ in sup.events]
        assert kinds == ["start", "restart", "restart", "restart",
                         "escalate"]

    def test_intensity_window_slides(self):
        # 1 restart per 0.08 s window: deaths 0.1 s apart always find the
        # previous token expired, so the quitter is restarted until the
        # deadline instead of escalating.
        engine = s4u.Engine(star(1))
        sup = Supervisor(engine, [ChildSpec("q", "leaf-0", _quitter)],
                         host="center", max_restarts=1, window=0.08,
                         deadline=2.0).start()
        engine.run()
        assert not sup.escalated
        assert sup.timed_out
        assert sup.restarts >= 10

    def test_all_for_one_takes_siblings_down(self):
        engine = s4u.Engine(star(2))
        sup = Supervisor(engine, [ChildSpec("q", "leaf-0", _quitter),
                                  ChildSpec("s", "leaf-1", _steady_worker)],
                         strategy="all_for_one", host="center",
                         max_restarts=2, window=10.0).start()
        engine.run()
        assert sup.escalated
        restarted = [name for _, kind, name in sup.events
                     if kind == "restart"]
        # Every cycle restarts both children, in declaration order.
        assert restarted == ["q", "s", "q", "s"]

    def test_one_for_one_leaves_siblings_alone(self):
        engine = s4u.Engine(star(2))
        sup = Supervisor(engine, [ChildSpec("q", "leaf-0", _quitter),
                                  ChildSpec("s", "leaf-1", _steady_worker)],
                         strategy="one_for_one", host="center",
                         max_restarts=2, window=10.0).start()
        engine.run()
        assert sup.escalated
        restarted = [name for _, kind, name in sup.events
                     if kind == "restart"]
        assert restarted == ["q", "q"]

    def test_host_churn_parks_and_respawns_without_tokens(self):
        log = []
        engine = s4u.Engine(star(1))
        # max_restarts=0: any token spent would escalate immediately —
        # host-driven deaths must not spend any.
        sup = Supervisor(engine, [ChildSpec("w", "leaf-0",
                                            _finishing_worker, log, 4e9,
                                            restart="transient")],
                         host="center", max_restarts=0,
                         deadline=30.0).start()
        engine.add_actor("chaos", "center", _churn_chaos,
                         "leaf-0", 1.0, 2.5, 0.0)
        engine.run()
        assert not sup.escalated
        assert [kind for _, kind, _ in sup.events][:3] == [
            "start", "park", "restart"]
        assert sup.events[1][0] == pytest.approx(1.0)   # parked at kill
        assert sup.events[2][0] == pytest.approx(2.5)   # respawned on up
        # The fresh body recomputes from scratch: 2.5 + 4 s of work.
        assert log and log[0][0] == pytest.approx(6.5)

    def test_deadline_stops_permanent_children(self):
        engine = s4u.Engine(star(2))
        sup = Supervisor(engine, [ChildSpec("a", "leaf-0", _steady_worker),
                                  ChildSpec("b", "leaf-1", _steady_worker)],
                         host="center", deadline=3.0).start()
        final = engine.run()
        assert sup.timed_out and sup.done
        assert final == pytest.approx(3.0)
        assert engine.actor_count() == 0

    def test_stop_from_an_actor_shuts_the_tree_down(self):
        engine = s4u.Engine(star(1))
        sup = Supervisor(engine, [ChildSpec("s", "leaf-0", _steady_worker)],
                         host="center").start()

        def stopper(actor):
            yield actor.sleep_for(1.25)
            sup.stop()

        engine.add_actor("stopper", "center", stopper, daemon=True)
        final = engine.run()
        assert sup.done and not sup.escalated and not sup.timed_out
        assert final == pytest.approx(1.25)

    def test_escalated_subtree_is_restarted_by_parent(self):
        engine = s4u.Engine(star(2))
        sub = Supervisor(engine, [ChildSpec("q", "leaf-0", _quitter)],
                         name="sub", host="leaf-1", max_restarts=1,
                         window=10.0, daemon=True)
        parent = Supervisor(engine, [sub.as_child(restart="transient")],
                            name="parent", host="center", max_restarts=2,
                            window=10.0).start()
        engine.run()
        # The subtree escalates (dies failed), the parent restarts it
        # twice, then trips its own bound and escalates too.
        assert sub.escalated
        assert parent.escalated
        assert [name for _, kind, name in parent.events
                if kind == "restart"] == ["sub", "sub"]
        assert engine.actor_count() == 0

    def test_teardown_does_not_respawn_children(self):
        # A daemon supervisor's permanent children are reaped when the
        # last non-daemon actor finishes; the tearing-down guard must
        # keep the supervisor from respawning them forever.
        log = []
        engine = s4u.Engine(star(2))
        Supervisor(engine, [ChildSpec("s", "leaf-0", _steady_worker)],
                   host="center", daemon=True).start()
        engine.add_actor("main", "leaf-1", _one_shot, log)
        final = engine.run()
        assert final == pytest.approx(0.2)
        assert engine.actor_count() == 0

    def test_supervised_churn_fleet_is_deterministic(self):
        def run_once():
            log = []
            engine = s4u.Engine(star(4))
            sup = Supervisor(engine, [
                ChildSpec(f"w{i}", f"leaf-{i}", _finishing_worker, log,
                          3e9, restart="transient") for i in range(4)],
                host="center", max_restarts=50, window=100.0,
                deadline=60.0).start()
            FailureInjector(engine, seed=9,
                            hosts=[f"leaf-{i}" for i in range(4)],
                            mtbf=1.5, mean_downtime=0.4,
                            max_failures=6).start()
            final = engine.run()
            return sup.events, sorted(log), final

        first, second = run_once(), run_once()
        assert first == second
        events, log, final = first
        assert len(log) == 4           # every worker finished eventually
        assert any(kind in ("park", "restart") for _, kind, _ in events)


# ---------------------------------------------------------------------------
# snapshot equivalence
# ---------------------------------------------------------------------------

def _supervised_phase(engine):
    """Identical supervised fleet added to a (restored) engine."""
    log = []
    sup = Supervisor(engine, [
        ChildSpec(f"w{i}", f"leaf-{i}", _finishing_worker, log, 2e9,
                  restart="transient") for i in range(3)],
        host="center", max_restarts=50, window=100.0,
        deadline=40.0).start()
    final = engine.run()
    return sup.events, sorted(log), final


class TestFtSnapshot:
    def test_supervised_fleet_forks_bit_identically_mid_churn(self):
        engine = s4u.Engine(star(3))
        # Churn armed *before* the snapshot: the injector's pending pulse
        # timers (seeded RNG state included) travel in the blob.
        FailureInjector(engine, seed=21,
                        hosts=[f"leaf-{i}" for i in range(3)],
                        mtbf=1.0, mean_downtime=0.5,
                        max_failures=5).start()
        blob = engine.snapshot()
        cold = _supervised_phase(engine)
        forked = _supervised_phase(s4u.Engine.restore(blob))
        assert forked == cold
        events, log, final = cold
        assert len(log) == 3
        assert any(kind in ("park", "restart") for _, kind, _ in events)
