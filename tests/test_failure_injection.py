"""Failure subsystem: s4u Link control, actor lifecycle, edge cases.

Covers the PR-4 fault-tolerance layer:

* the :class:`~repro.s4u.link.Link` endpoints (``link_by_name``,
  ``turn_off``/``turn_on``, ``set_bandwidth``/``set_latency``) and their
  effect on running transfers;
* actor lifecycle hooks — ``on_exit`` callbacks and ``auto_restart``
  reboots, with the ``Engine.on_host_state_change`` observer signals;
* the failure edge cases: a peer dying before the rendezvous matches, an
  exec whose host dies and comes back, ``ActivitySet.wait_any`` reaping a
  FAILED member, and the equivalence of a periodic state trace with the
  same pulses applied as explicit ``turn_off``/``turn_on`` calls.
"""

import pytest

from repro import s4u
from repro.exceptions import (
    HostFailureError,
    PlatformError,
    SimTimeoutError,
    TransferFailureError,
)
from repro.platform import make_star
from repro.platform.platform import Platform
from repro.s4u import ActivitySet, ActivityState, FailureInjector
from repro.surf.trace import Trace


def two_host_platform(bandwidth=1e7, latency=1e-3, speed=1e9):
    platform = Platform("pair")
    platform.add_host("alice", speed)
    platform.add_host("bob", speed)
    platform.add_link("wire", bandwidth, latency)
    platform.connect("alice", "bob", "wire")
    return platform


class TestLinkApi:
    def test_link_by_name_and_lookup_error(self):
        engine = s4u.Engine(two_host_platform())
        link = engine.link_by_name("wire")
        assert link.name == "wire"
        assert link.bandwidth == 1e7
        assert link.latency == 1e-3
        assert link.is_on
        with pytest.raises(PlatformError):
            engine.link_by_name("no-such-link")

    def test_link_failure_fails_both_comm_ends(self):
        engine = s4u.Engine(two_host_platform())
        outcome = {}

        def sender(actor):
            try:
                yield engine.mailbox("m").put("x", size=1e9)
            except TransferFailureError:
                outcome["send"] = engine.now

        def receiver(actor):
            try:
                yield engine.mailbox("m").get()
            except TransferFailureError:
                outcome["recv"] = engine.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.timers.schedule(0.25, engine.link_by_name("wire").turn_off)
        engine.run()
        assert outcome == {"send": 0.25, "recv": 0.25}

    def test_link_failure_during_latency_phase(self):
        """A transfer still paying the route latency dies with its link."""
        engine = s4u.Engine(two_host_platform(latency=0.5))
        outcome = {}

        def sender(actor):
            try:
                yield engine.mailbox("m").put("x", size=1e6)
            except TransferFailureError:
                outcome["send"] = engine.now

        def receiver(actor):
            try:
                yield engine.mailbox("m").get()
            except TransferFailureError:
                outcome["recv"] = engine.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        # 0.1 < 0.5: the transfer is still inside its latency phase.
        engine.timers.schedule(0.1, engine.link_by_name("wire").turn_off)
        engine.run()
        assert outcome == {"send": 0.1, "recv": 0.1}

    def test_restored_link_carries_new_transfers(self):
        engine = s4u.Engine(two_host_platform(latency=0.0))
        dates = {}

        def sender(actor):
            try:
                yield engine.mailbox("m").put("first", size=1e9)
            except TransferFailureError:
                pass
            yield actor.sleep_for(1.0 - actor.now)  # link back at t=0.5
            yield engine.mailbox("m").put("second", size=1e6)

        def receiver(actor):
            while True:
                try:
                    payload = yield engine.mailbox("m").get()
                except TransferFailureError:
                    continue
                dates[payload] = engine.now
                if payload == "second":
                    return

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        link = engine.link_by_name("wire")
        engine.timers.schedule(0.25, link.turn_off)
        engine.timers.schedule(0.5, link.turn_on)
        engine.run()
        assert "first" not in dates
        assert dates["second"] == pytest.approx(1.0 + 1e6 / 1e7)

    def test_set_bandwidth_reshapes_running_transfer(self):
        """Halving the bandwidth mid-flight doubles the remaining time."""
        engine = s4u.Engine(two_host_platform(bandwidth=1e7, latency=0.0))
        dates = {}

        def sender(actor):
            yield engine.mailbox("m").put("x", size=1e7)   # 1 s at 1e7 B/s

        def receiver(actor):
            yield engine.mailbox("m").get()
            dates["done"] = engine.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.timers.schedule(
            0.5, lambda: engine.link_by_name("wire").set_bandwidth(5e6))
        engine.run()
        # Half the payload at 1e7 B/s, the other half at 5e6 B/s.
        assert dates["done"] == pytest.approx(0.5 + 1.0)

    def test_set_latency_only_affects_new_transfers(self):
        engine = s4u.Engine(two_host_platform(bandwidth=1e9, latency=0.1))
        dates = {}

        def sender(actor):
            yield engine.mailbox("m").put("first", size=1.0)
            yield engine.mailbox("m").put("second", size=1.0)

        def receiver(actor):
            yield engine.mailbox("m").get()
            dates["first"] = engine.now
            engine.link_by_name("wire").set_latency(0.3)
            yield engine.mailbox("m").get()
            dates["second"] = engine.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert dates["first"] == pytest.approx(0.1, rel=1e-6)
        assert dates["second"] == pytest.approx(0.1 + 0.3, rel=1e-6)


class TestActorLifecycle:
    def test_on_exit_normal_and_killed(self):
        engine = s4u.Engine(make_star(num_hosts=2))
        exits = []

        def quick(actor):
            yield actor.sleep_for(0.1)

        def stubborn(actor):
            yield actor.sleep_for(100.0)

        def killer(actor, victim):
            yield actor.sleep_for(0.5)
            yield victim.kill()

        a = engine.add_actor("quick", "leaf-0", quick)
        b = engine.add_actor("stubborn", "leaf-0", stubborn)
        a.on_exit(lambda failed: exits.append(("quick", failed)))
        b.on_exit(lambda failed: exits.append(("stubborn", failed)))
        engine.add_actor("killer", "leaf-1", killer, b)
        engine.run()
        assert ("quick", False) in exits
        assert ("stubborn", True) in exits

    def test_on_exit_fires_on_host_failure(self):
        engine = s4u.Engine(make_star(num_hosts=2))
        exits = []

        def worker(actor):
            yield actor.execute(1e12)

        actor = engine.add_actor("w", "leaf-0", worker)
        actor.on_exit(lambda failed: exits.append(failed))
        engine.timers.schedule(0.5, engine.host("leaf-0").turn_off)
        engine.run()
        assert exits == [True]

    def test_on_exit_on_dead_actor_reports_real_outcome(self):
        """Late registration fires immediately with how the actor died."""
        engine = s4u.Engine(make_star(num_hosts=2))

        def clean(actor):
            yield actor.sleep_for(0.1)

        def doomed(actor):
            yield actor.execute(1e12)

        a = engine.add_actor("clean", "leaf-0", clean)
        b = engine.add_actor("doomed", "leaf-1", doomed)
        engine.timers.schedule(0.5, engine.host("leaf-1").turn_off)
        engine.run()
        seen = []
        a.on_exit(lambda failed: seen.append(("clean", failed)))
        b.on_exit(lambda failed: seen.append(("doomed", failed)))
        assert seen == [("clean", False), ("doomed", True)]

    def test_auto_restart_reboots_worker_on_restore(self):
        engine = s4u.Engine(make_star(num_hosts=2))
        starts, flips = [], []
        engine.on_host_state_change(
            lambda host, is_on: flips.append((host.name, is_on, engine.now)))

        def worker(actor):
            starts.append(engine.now)
            yield actor.execute(1e9)        # 1 s alone on a 1e9 host
            starts.append(("done", engine.now))

        def clock(actor):
            yield actor.sleep_for(3.0)

        engine.add_actor("w", "leaf-0", worker, auto_restart=True)
        engine.add_actor("clock", "leaf-1", clock)
        host = engine.host("leaf-0")
        engine.timers.schedule(0.25, host.turn_off)
        engine.timers.schedule(0.75, host.turn_on)
        engine.run()
        assert starts == [0.0, 0.75, ("done", 1.75)]
        assert flips == [("leaf-0", False, 0.25), ("leaf-0", True, 0.75)]
        assert engine.restart_count == 1

    def test_normal_end_is_not_restarted(self):
        engine = s4u.Engine(make_star(num_hosts=2))
        runs = []

        def worker(actor):
            runs.append(engine.now)
            yield actor.sleep_for(0.1)

        def clock(actor):
            yield actor.sleep_for(2.0)

        engine.add_actor("w", "leaf-0", worker, auto_restart=True)
        engine.add_actor("clock", "leaf-1", clock)
        host = engine.host("leaf-0")
        # The worker already finished when the host churns at t=1.
        engine.timers.schedule(1.0, host.turn_off)
        engine.timers.schedule(1.5, host.turn_on)
        engine.run()
        assert runs == [0.0]
        assert engine.restart_count == 0

    def test_a_pending_restart_keeps_nobody_alive(self):
        """The last non-daemon actor ends while an ``auto_restart`` actor
        waits for its host: the simulation ends there, and the armed
        reboot never happens."""
        engine = s4u.Engine(make_star(num_hosts=2))

        def worker(actor):
            yield actor.execute(1e12)

        def clock(actor):
            yield actor.sleep_for(1.0)

        engine.add_actor("w", "leaf-0", worker, auto_restart=True)
        engine.add_actor("clock", "leaf-1", clock)
        host = engine.host("leaf-0")
        engine.timers.schedule(0.25, host.turn_off)
        engine.timers.schedule(5.0, host.turn_on)
        engine.run()
        assert engine.now == 1.0
        assert engine.actor_count() == 0
        assert not host.is_on
        assert engine.restart_count == 0


class TestFailureEdgeCases:
    def test_peer_host_dies_before_rendezvous_matches(self):
        """A pending recv dies with its host; the late sender times out."""
        engine = s4u.Engine(two_host_platform())
        outcome = {}

        def receiver(actor):
            # Posts the recv, then the host dies before any sender shows up.
            yield engine.mailbox("m").get()

        def sender(actor):
            yield actor.sleep_for(0.5)     # by now bob is gone
            try:
                yield engine.mailbox("m").put("x", size=1e3, timeout=0.5)
            except SimTimeoutError:
                outcome["send"] = engine.now

        engine.add_actor("r", "bob", receiver)
        engine.add_actor("s", "alice", sender)
        engine.timers.schedule(0.25, engine.host("bob").turn_off)
        engine.run()
        assert outcome == {"send": 1.0}
        # The orphaned recv was withdrawn, not left dangling on the mailbox.
        assert engine.mailbox("m").empty

    def test_rendezvous_matched_over_broken_route_fails_both_sides(self):
        """A comm matched while its route link is down fails at match time.

        Regression: the model fails such an action synchronously, so it
        never surfaces through a step result — the engine must report it
        from ``_start_comm`` (and wake the sync caller that was about to
        become a waiter) or both peers deadlock.
        """
        engine = s4u.Engine(two_host_platform())
        outcome = {}

        def receiver(actor):
            try:
                yield engine.mailbox("m").get()    # posted before the cut
            except TransferFailureError:
                outcome["recv"] = engine.now

        def sender(actor):
            yield actor.sleep_for(0.5)             # wire died at t=0.25
            try:
                yield engine.mailbox("m").put("x", size=1e3)
            except TransferFailureError:
                outcome["send"] = engine.now

        engine.add_actor("r", "bob", receiver)
        engine.add_actor("s", "alice", sender)
        engine.timers.schedule(0.25, engine.link_by_name("wire").turn_off)
        engine.run()
        assert outcome == {"recv": 0.5, "send": 0.5}

    def test_async_rendezvous_over_broken_route_fails(self):
        """Same as above through put_async/wait and ActivitySet."""
        engine = s4u.Engine(two_host_platform())
        outcome = {}

        def receiver(actor):
            try:
                yield engine.mailbox("m").get()
            except TransferFailureError:
                outcome["recv"] = engine.now

        def sender(actor):
            yield actor.sleep_for(0.5)
            comm = yield engine.mailbox("m").put_async("x", size=1e3)
            assert comm.state is ActivityState.FAILED
            try:
                yield comm.wait()
            except TransferFailureError:
                outcome["send"] = engine.now

        engine.add_actor("r", "bob", receiver)
        engine.add_actor("s", "alice", sender)
        engine.timers.schedule(0.25, engine.link_by_name("wire").turn_off)
        engine.run()
        assert outcome == {"recv": 0.5, "send": 0.5}

    def test_exec_on_host_that_dies_and_restores(self):
        """A remote exec fails at the failure date and succeeds after."""
        engine = s4u.Engine(make_star(num_hosts=2, host_speed=1e9))
        log = []

        def runner(actor):
            remote = engine.host("leaf-1")
            try:
                yield actor.execute(2e9, host=remote)   # needs 2 s
            except HostFailureError:
                log.append(("failed", engine.now))
            yield actor.sleep_for(1.5 - actor.now)      # leaf-1 back at 1.0
            yield actor.execute(1e9, host=remote)
            log.append(("done", engine.now))

        engine.add_actor("runner", "leaf-0", runner)
        host = engine.host("leaf-1")
        engine.timers.schedule(0.5, host.turn_off)
        engine.timers.schedule(1.0, host.turn_on)
        engine.run()
        assert log == [("failed", 0.5), ("done", 2.5)]

    def test_wait_any_returns_failed_activity(self):
        """wait_any surfaces the failure and still reaps the member."""
        engine = s4u.Engine(two_host_platform())
        outcome = {}

        def receiver(actor):
            yield engine.mailbox("m").get()

        def sender(actor):
            comm = yield engine.mailbox("m").put_async("x", size=1e9)
            snooze = yield actor.exec_async(30e9)
            pending = ActivitySet([comm, snooze])
            try:
                yield pending.wait_any()
            except TransferFailureError:
                outcome["date"] = engine.now
                outcome["comm_state"] = comm.state
                outcome["reaped"] = comm not in pending
                outcome["left"] = snooze in pending
            snooze.cancel()

        engine.add_actor("r", "bob", receiver)
        engine.add_actor("s", "alice", sender)
        engine.timers.schedule(0.25, engine.host("bob").turn_off)
        engine.run()
        assert outcome == {"date": 0.25,
                           "comm_state": ActivityState.FAILED,
                           "reaped": True, "left": True}

    def _churn_dates(self, use_trace):
        """Worker completion dates under off/on churn of its host.

        ``use_trace=True`` drives the churn with a periodic state trace
        attached to the platform host; ``use_trace=False`` replays the
        very same pulses as timers calling ``turn_off``/``turn_on``.
        """
        trace = Trace([(0.3, 0.0), (0.5, 1.0)], period=0.8, name="churn")
        horizon = 2.4
        platform = Platform("churny")
        platform.add_host("victim", 1e9,
                          state_trace=trace if use_trace else None)
        platform.add_host("safe", 1e9)
        platform.add_link("wire", 1e8, 1e-4)
        platform.connect("victim", "safe", "wire")

        engine = s4u.Engine(platform)
        dates = []

        def worker(actor):
            while True:
                yield actor.execute(1e8)    # 0.1 s alone
                dates.append(engine.now)

        def clock(actor):
            yield actor.sleep_for(horizon)

        engine.add_actor("w", "victim", worker, daemon=True,
                         auto_restart=True)
        engine.add_actor("clock", "safe", clock)
        if not use_trace:
            victim = engine.host("victim")
            events = trace.iter_from()
            date, value = events.next_event()
            while date <= horizon:
                engine.timers.schedule(
                    date, victim.turn_on if value > 0 else victim.turn_off)
                date, value = events.next_event()
        engine.run()
        return dates

    def test_state_trace_equals_explicit_turn_off_on(self):
        """Periodic trace churn and explicit calls give identical dates."""
        trace_dates = self._churn_dates(use_trace=True)
        explicit_dates = self._churn_dates(use_trace=False)
        assert trace_dates, "the churned worker never completed any exec"
        assert trace_dates == explicit_dates


class TestDeadPosterComms:
    """A comm posted by an actor that died since is not matchable.

    ``_kill_actor`` withdraws what a dying actor was *waiting on*;
    an async comm it had posted and left stays queued, and must not
    swallow the next message (nor be visible to the probes).
    """

    @pytest.mark.parametrize("death", ["kill", "host_off"])
    def test_dead_receivers_get_async_does_not_swallow_a_message(self, death):
        engine = s4u.Engine(make_star(3))
        box = engine.mailbox("box")
        outcome = {}

        def zombie(actor):
            yield box.get_async()
            yield actor.sleep_for(100.0)

        def sender(actor):
            yield actor.sleep_for(2.0)
            yield box.put("hello", size=1e3, timeout=5.0)
            outcome["sent"] = engine.now

        def receiver(actor):
            yield actor.sleep_for(3.0)
            outcome["got"] = yield box.get(timeout=5.0)

        victim = engine.add_actor("zombie", "leaf-1", zombie)
        engine.add_actor("sender", "leaf-0", sender)
        engine.add_actor("receiver", "leaf-2", receiver)
        if death == "kill":
            engine.timers.schedule(1.0, victim.kill)
        else:
            engine.timers.schedule(1.0, engine.host("leaf-1").turn_off)
        engine.run()
        assert not victim.is_alive
        assert outcome["got"] == "hello"
        # The put rendezvoused with the live receiver, not at t=2 with the
        # dead one.
        assert outcome["sent"] > 3.0
        assert box.empty

    def test_rebooted_actor_receives_on_its_own_get_async(self):
        """The previous incarnation's comm must not shadow the fresh one."""
        engine = s4u.Engine(make_star(3))
        host = engine.host("leaf-1")
        got = []

        def daemon(actor):
            comm = yield engine.mailbox("box").get_async()
            yield actor.sleep_for(0.5)
            got.append((yield comm.wait(timeout=5.0)))

        def sender(actor):
            yield actor.sleep_for(2.0)
            yield engine.mailbox("box").put("hello", size=1e3, timeout=5.0)

        engine.add_actor("daemon", host, daemon, daemon=True,
                         auto_restart=True)
        engine.add_actor("sender", "leaf-0", sender)
        engine.timers.schedule(0.25, host.turn_off)
        engine.timers.schedule(1.0, host.turn_on)
        engine.run()
        assert engine.restart_count == 1
        assert got == ["hello"]

    def test_dead_senders_put_async_is_delivered_only_when_detached(self):
        engine = s4u.Engine(make_star(3))
        box = engine.mailbox("box")
        seen = {}

        def zombie(actor):
            yield box.put_async("lost", size=1e3)
            yield box.put_async("kept", size=1e3, detached=True)
            yield actor.sleep_for(100.0)

        def receiver(actor):
            yield actor.sleep_for(2.0)
            seen["probes"] = (box.listen(), box.pending_payloads())
            seen["first"] = yield box.get(timeout=5.0)
            try:
                yield box.get(timeout=5.0)
            except SimTimeoutError:
                seen["second"] = "timeout"

        victim = engine.add_actor("zombie", "leaf-1", zombie)
        engine.add_actor("receiver", "leaf-2", receiver)
        engine.timers.schedule(1.0, victim.kill)
        engine.run()
        assert seen["probes"] == (True, ["kept"])
        assert seen["first"] == "kept"
        assert seen["second"] == "timeout"


class TestFailureInjector:
    def test_requires_a_stop_bound(self):
        engine = s4u.Engine(make_star(num_hosts=2))
        with pytest.raises(ValueError):
            FailureInjector(engine, hosts=["leaf-0"])

    def test_requires_targets_to_start(self):
        engine = s4u.Engine(make_star(num_hosts=2))
        with pytest.raises(ValueError):
            FailureInjector(engine, max_failures=1).start()

    def test_respects_max_failures(self):
        engine = s4u.Engine(make_star(num_hosts=4))

        def clock(actor):
            yield actor.sleep_for(50.0)

        engine.add_actor("clock", "center", clock)
        injector = FailureInjector(
            engine, seed=1, hosts=[f"leaf-{i}" for i in range(4)],
            mtbf=0.5, mean_downtime=0.2, max_failures=7)
        injector.start()
        engine.run()
        assert injector.failures == 7
        # Every injected failure got its restore (the run outlived them).
        assert injector.restores == 7
        assert all(engine.host(f"leaf-{i}").is_on for i in range(4))


class TestTimeoutFailureRaces:
    """Timeout timers racing failures/completions at the same date.

    The loop's contract: SURF completions are processed before timers at
    each date, and same-date timers fire in arm order with the loser's
    entry cancelled by ``_unblock`` — so exactly one outcome reaches
    the waiting actor, and no timer entry survives the run.
    """

    def test_timeout_vs_link_failure_same_date_one_outcome(self):
        def run_once():
            outcomes = []
            engine = s4u.Engine(two_host_platform())

            def sender(actor):
                try:
                    # 1e9 B over 1e7 B/s: nominally 100 s in flight.
                    yield engine.mailbox("race").put("x", size=1e9)
                except TransferFailureError:
                    outcomes.append(("sender", "failed", actor.now))

            def receiver(actor):
                try:
                    yield engine.mailbox("race").get(timeout=2.0)
                except SimTimeoutError:
                    outcomes.append(("receiver", "timeout", actor.now))
                except TransferFailureError:
                    outcomes.append(("receiver", "failed", actor.now))

            def chaos(actor):
                yield actor.sleep_for(2.0)   # same date as the timeout
                engine.link_by_name("wire").turn_off()
                engine.link_by_name("wire").turn_on()

            engine.add_actor("sender", "alice", sender)
            engine.add_actor("receiver", "bob", receiver)
            engine.add_actor("chaos", "alice", chaos)
            engine.run()
            return outcomes, engine

        outcomes, engine = run_once()
        by_actor = {}
        for who, what, date in outcomes:
            assert date == pytest.approx(2.0)
            by_actor.setdefault(who, []).append(what)
        # Exactly one outcome delivered per actor, never two.
        assert len(by_actor["receiver"]) == 1
        assert len(by_actor["sender"]) == 1
        # No pending timers survive; compacting leaks nothing afterwards.
        assert len(engine.timers) == 0
        engine.timers.compact()
        assert len(engine.timers) == 0
        # And the race resolves the same way every run.
        assert run_once()[0] == outcomes

    def test_completion_at_exact_timeout_date_wins(self):
        outcome = {}
        engine = s4u.Engine(two_host_platform())

        def computer(actor):
            activity = yield actor.exec_async(2e9)  # exactly 2 s at 1e9 f/s
            yield activity.wait(timeout=2.0)        # timer lands at t=2.0
            outcome["done"] = actor.now

        engine.add_actor("computer", "alice", computer)
        engine.run()
        # Completions are processed before timers: the result, not the
        # timeout, is delivered at t=2.0.
        assert outcome["done"] == pytest.approx(2.0)
        assert len(engine.timers) == 0

    def test_sync_put_timeout_on_a_started_comm_finishes_it(self):
        """A put that times out mid-transfer ends the comm like any other
        failure: one error for the peer, which leaves its ActivitySet,
        the activity<->action cycle broken, the interval recorded."""
        from repro.tracing import Recorder

        recorder = Recorder()
        engine = s4u.Engine(make_star(2, link_bandwidth=125e6))
        engine.observe(recorder)
        box = engine.mailbox("b")
        seen = {"errors": []}

        def sender(actor):
            with pytest.raises(SimTimeoutError):
                yield box.put("x", size=1e9, timeout=0.5)

        def receiver(actor):
            comm = seen["comm"] = yield box.get_async()
            pending = seen["set"] = ActivitySet([comm])
            try:
                yield pending.wait_any()
            except TransferFailureError as exc:
                seen["errors"].append(str(exc))
            seen["emptied"] = pending.empty()

        def latecomer(actor):
            # Waits on the abandoned handle after the fact: same error as
            # the peer that was blocked on it at the time.
            yield actor.sleep_for(1.0)
            with pytest.raises(TransferFailureError,
                               match="peer timed out on b"):
                yield seen["comm"].wait()
            seen["late"] = actor.now

        engine.add_actor("snd", "leaf-0", sender)
        engine.add_actor("rcv", "leaf-1", receiver)
        engine.add_actor("late", "leaf-1", latecomer)
        engine.run()
        comm = seen["comm"]
        assert seen["errors"] == ["peer timed out on b"]
        assert seen["emptied"]
        assert comm.state is ActivityState.TIMEOUT
        assert comm.finish_time == 0.5 and seen["late"] == 1.0
        assert comm.surf_action.data is None
        assert [(i.category, i.start, i.end) for i in recorder.intervals] == [
            ("comm-send", comm.start_time, 0.5),
            ("comm-recv", comm.start_time, 0.5)]
        assert not engine._active_comms

    def test_wait_any_completion_at_exact_timeout_date_wins(self):
        from repro.s4u import ActivitySet

        outcome = {}
        engine = s4u.Engine(two_host_platform())

        def computer(actor):
            # On separate hosts so neither exec shares a CPU: the fast
            # one completes at exactly the wait_any timeout date.
            fast = yield actor.exec_async(2e9)
            slow = yield actor.exec_async(8e9, host=engine.host("bob"))
            bag = ActivitySet([fast, slow])
            done = yield bag.wait_any(timeout=2.0)
            outcome["first"] = (actor.now, done is not None)
            try:
                yield bag.wait_any(timeout=0.5)
            except SimTimeoutError:
                outcome["second"] = actor.now

        engine.add_actor("computer", "alice", computer)
        engine.run()
        assert outcome["first"] == (pytest.approx(2.0), True)
        assert outcome["second"] == pytest.approx(2.5)

    def test_host_death_cancels_armed_timeout(self):
        engine = s4u.Engine(two_host_platform())

        def receiver(actor):
            yield engine.mailbox("never").get(timeout=5.0)

        def chaos(actor):
            yield actor.sleep_for(1.0)
            engine.host("bob").turn_off()

        engine.add_actor("receiver", "bob", receiver)
        engine.add_actor("chaos", "alice", chaos)
        final = engine.run()
        # The killed receiver's 5 s timer must not hold the clock open...
        assert final == pytest.approx(1.0)
        assert len(engine.timers) == 0
        # ...and its cancelled entry is compactable garbage, not state.
        assert engine.timers.compact() >= 1
        assert len(engine.timers) == 0
