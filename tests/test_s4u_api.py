"""Tests for the s4u actor/activity API: futures, ActivitySet, timeouts."""

import ast
import math
import os
import pathlib
import sys
import threading

import pytest

from repro import s4u
from repro.exceptions import SimGridError, SimTimeoutError
from repro.platform import Platform, make_star
from repro.s4u import ActivitySet, Engine, this_actor

from pump import actor_body


def pair_platform(speed=1e9, bandwidth=1e6, latency=0.0):
    platform = Platform("pair")
    platform.add_host("alice", speed)
    platform.add_host("bob", speed)
    platform.add_link("wire", bandwidth, latency)
    platform.connect("alice", "bob", "wire")
    return platform


class TestEngineBasics:
    def test_add_actor_and_run(self):
        engine = Engine(pair_platform())
        times = {}

        def worker(actor):
            yield actor.execute(2e9)
            times["done"] = actor.now

        engine.add_actor("worker", "alice", worker)
        engine.run()
        assert times["done"] == pytest.approx(2.0)

    def test_this_actor_helpers(self):
        engine = Engine(pair_platform())
        seen = {}

        def worker(actor):
            seen["name"] = this_actor.get_name()
            seen["host"] = this_actor.get_host().name
            yield this_actor.sleep_for(1.5)
            seen["woke"] = actor.now

        engine.add_actor("w", "alice", worker)
        engine.run()
        assert seen == {"name": "w", "host": "alice",
                        "woke": pytest.approx(1.5)}

    def test_mailbox_put_get_roundtrip(self):
        engine = Engine(pair_platform(bandwidth=1e6, latency=0.5))
        times = {}

        def sender(actor):
            yield engine.mailbox("box").put({"k": 1}, size=2e6)
            times["sent"] = actor.now

        def receiver(actor):
            payload = yield engine.mailbox("box").get()
            times["received"] = actor.now
            times["payload"] = payload

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        # 2 MB at 1 MB/s + 0.5 s latency, rendezvous on both sides
        assert times["received"] == pytest.approx(2.5)
        assert times["sent"] == pytest.approx(2.5)
        assert times["payload"] == {"k": 1}

    @pytest.mark.parametrize("first", ["put", "get"])
    @pytest.mark.parametrize("put_rate, get_rate", [(2e5, 5e5), (5e5, 2e5)])
    def test_a_rate_on_both_sides_takes_the_min(self, first, put_rate,
                                                  get_rate):
        """1 MB over a 1 MB/s wire: 5 s at the smaller of the two rates,
        whichever side reaches the mailbox first."""
        engine = Engine(pair_platform(bandwidth=1e6))
        done = []

        def sender(actor):
            if first == "get":
                yield actor.sleep_for(1.0)
            yield engine.mailbox("box").put("x", size=1e6, rate=put_rate)

        def receiver(actor):
            if first == "put":
                yield actor.sleep_for(1.0)
            yield engine.mailbox("box").get(rate=get_rate)
            done.append(actor.now)

        engine.add_actor("sender", "alice", sender)
        engine.add_actor("receiver", "bob", receiver)
        engine.run()
        assert done == [pytest.approx(1.0 + 1e6 / 2e5)]

    def test_the_rarely_called_names_in_one_scenario(self):
        """Every s4u name no other test reaches, with the value it must
        give: 1e9 flops on a 1 Gflop/s leaf, half of them left after a
        0.5 s nap beside it, a 2e8-byte put over a 1e8 byte/s leaf link,
        a sleeper suspended from host code."""
        engine = Engine(make_star(num_hosts=2, host_speed=1e9,
                                  link_bandwidth=1e8, link_latency=0.0))
        seen = []

        def worker(actor):
            seen.append(("pid", this_actor.get_pid() == actor.pid,
                         actor.is_suspended, actor.host.cores))
            comp = yield actor.exec_async(1e9)
            seen.append(("t=0", comp.remaining))
            yield actor.sleep_for(0.5)
            seen.append(("t=0.5", actor.now, comp.remaining))
            yield comp.wait()
            seen.append(("t=1", actor.now, comp.remaining))

        def sender(actor):
            yield engine.mailbox("box").put("x", size=2e8)

        def receiver(actor):
            yield engine.mailbox("box").get()

        def sleeper(actor):
            yield actor.sleep_for(1.0)

        engine.add_actor("worker", "leaf-0", worker)
        engine.add_actor("sender", "leaf-1", sender)
        engine.add_actor("receiver", "center", receiver)
        nap = engine.add_actor("sleeper", "leaf-1", sleeper)
        assert len(engine.host("leaf-1").actors) == 2
        engine.run(until=0.25)
        nap.suspend()
        assert nap.is_suspended
        engine.run(until=2.0)
        assert nap.is_alive  # suspended across its wake-up date
        nap.resume()
        assert engine.run() == 2.0
        assert seen == [("pid", True, False, 1),
                        ("t=0", 1e9),
                        ("t=0.5", 0.5, 5e8),
                        ("t=1", 1.0, 0.0)]


class TestActivityFutures:
    def test_exec_async_overlaps_with_sleep(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor):
            comp = yield actor.exec_async(2e9)      # 2 s of compute
            yield this_actor.sleep_for(1.0)         # overlapped
            times["mid"] = actor.now
            yield comp.wait()
            times["done"] = actor.now

        engine.add_actor("w", "alice", worker)
        engine.run()
        assert times["mid"] == pytest.approx(1.0)
        assert times["done"] == pytest.approx(2.0)  # not 3.0: overlapped

    def test_test_polls_before_completion(self):
        engine = Engine(pair_platform(speed=1e9))
        polls = []

        def worker(actor):
            comp = yield actor.exec_async(2e9)
            early = yield comp.test()
            polls.append(early)
            yield this_actor.sleep_for(5.0)
            late = yield comp.test()
            polls.append(late)
            yield comp.wait()

        engine.add_actor("w", "alice", worker)
        engine.run()
        assert polls == [False, True]

    def test_comm_async_returns_payload_on_wait(self):
        engine = Engine(pair_platform())
        got = {}

        def sender(actor):
            yield engine.mailbox("box").put("hello", size=1e6)

        def receiver(actor):
            comm = yield engine.mailbox("box").get_async()
            got["payload"] = yield comm.wait()

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert got["payload"] == "hello"

    def test_wait_timeout_raises(self):
        engine = Engine(pair_platform())
        outcome = {}

        def lonely(actor):
            comm = yield engine.mailbox("void").get_async()
            try:
                yield comm.wait(timeout=2.5)
            except SimTimeoutError:
                outcome["timeout_at"] = actor.now

        engine.add_actor("lonely", "alice", lonely)
        engine.run()
        assert outcome["timeout_at"] == pytest.approx(2.5)

    @pytest.mark.parametrize("kind", ["exec", "comm"])
    def test_cancel_wakes_waiter(self, kind):
        """An Exec cancels itself through its actor's engine, a Comm (here
        a receive no sender ever matches) through its mailbox's."""
        from repro.exceptions import CancelledError
        engine = Engine(pair_platform(speed=1e9))
        outcome = {}
        handles = {}

        def worker(actor):
            if kind == "exec":
                comp = yield actor.exec_async(1e12)    # 1000 s
            else:
                comp = yield engine.mailbox("void").get_async()
            handles["comp"] = comp
            try:
                yield comp.wait()
            except CancelledError:
                outcome["cancelled_at"] = actor.now

        def saboteur(actor):
            yield this_actor.sleep_for(2.0)
            handles["comp"].cancel()

        engine.add_actor("w", "alice", worker)
        engine.add_actor("x", "bob", saboteur)
        engine.run()
        assert outcome["cancelled_at"] == pytest.approx(2.0)


class TestActivitySet:
    def test_wait_any_reaps_in_completion_order(self):
        """The acceptance scenario: one Exec overlapping two async Comms,
        all reaped through ActivitySet.wait_any in completion order."""
        engine = Engine(pair_platform(speed=1e9, bandwidth=1e6))
        reaped = []

        def feeder(actor, box, size, delay):
            yield this_actor.sleep_for(delay)
            yield engine.mailbox(box).put(box, size=size)

        def worker(actor):
            comp = yield actor.exec_async(3e9)          # done at t=3
            fast = yield engine.mailbox("fast").get_async()   # done at t=1
            slow = yield engine.mailbox("slow").get_async()   # done at t=5
            pending = ActivitySet([comp, fast, slow])
            assert all(member in pending for member in (comp, fast, slow))
            while not pending.empty():
                done = yield pending.wait_any()
                reaped.append((done.kind, actor.now))

        engine.add_actor("worker", "alice", worker)
        engine.add_actor("f1", "bob", feeder, "fast", 1e6, 0.0)    # 1 s xfer
        engine.add_actor("f2", "bob", feeder, "slow", 1e6, 4.0)    # ends t=5
        engine.run()
        assert [k for k, _ in reaped] == ["comm", "exec", "comm"]
        assert reaped[0][1] == pytest.approx(1.0)
        assert reaped[1][1] == pytest.approx(3.0)
        assert reaped[2][1] == pytest.approx(5.0)

    def test_wait_any_timeout_raises(self):
        engine = Engine(pair_platform())
        outcome = {}

        def worker(actor):
            comm = yield engine.mailbox("void").get_async()
            pending = ActivitySet([comm])
            try:
                yield pending.wait_any(timeout=1.5)
            except SimTimeoutError:
                outcome["at"] = actor.now
                outcome["left"] = comm in pending

        engine.add_actor("w", "alice", worker)
        engine.run()
        assert outcome["at"] == pytest.approx(1.5)
        assert outcome["left"]               # nothing was reaped

    def test_wait_all_blocks_until_every_member_is_done(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor):
            a = yield actor.exec_async(1e9)          # 2 s shared: both at t=2
            b = yield actor.exec_async(1e9)
            pending = ActivitySet([a, b])
            yield pending.wait_all()
            times["done"] = actor.now
            times["emptied"] = pending.empty()

        engine.add_actor("w", "alice", worker)
        engine.run()
        assert times["done"] == pytest.approx(2.0)
        assert times["emptied"]

    @pytest.mark.parametrize("member", ["done", "failed"])
    def test_wait_all_answers_at_once_when_a_member_is_already_over(
            self, member):
        """Every member already done: the wait returns at once and the
        set empties.  A member that already failed: its error is raised at
        once, and only that member leaves the set."""
        from repro.exceptions import HostFailureError
        engine = Engine(pair_platform(speed=1e9))
        outcome = {}

        def worker(actor):
            first = yield actor.exec_async(
                1e8 if member == "done" else 1e12, host=engine.host("bob"))
            second = yield actor.exec_async(1e8)
            yield actor.sleep_for(1.0)
            pending = ActivitySet([first, second])
            try:
                outcome["value"] = yield pending.wait_all()
            except HostFailureError:
                outcome["value"] = "HostFailureError"
            outcome["at"] = actor.now
            outcome["left"] = (first in pending, second in pending)

        engine.add_actor("w", "alice", worker)
        if member == "failed":
            engine.timers.schedule(0.5, engine.host("bob").turn_off)
        engine.run()
        if member == "done":
            assert outcome == {"value": None, "at": 1.0,
                               "left": (False, False)}
        else:
            assert outcome == {"value": "HostFailureError", "at": 1.0,
                               "left": (False, True)}

    def test_wait_any_reaps_failed_member_and_set_empties(self):
        """A member that fails must still leave the set, so the canonical
        'while not pending.empty(): wait_any()' loop terminates."""
        from repro.exceptions import HostFailureError
        engine = Engine(pair_platform(speed=1e9))
        log = []

        def worker(actor):
            comp = yield actor.exec_async(1e12, host=engine.host("bob"))
            pending = ActivitySet([comp])
            while not pending.empty():
                try:
                    done = yield pending.wait_any()
                    log.append(("done", done.kind))
                except HostFailureError:
                    log.append(("failed", actor.now))

        def saboteur(actor):
            yield this_actor.sleep_for(1.0)
            engine.host("bob").turn_off()

        engine.add_actor("w", "alice", worker)
        engine.add_actor("x", "alice", saboteur)
        engine.run()
        assert log == [("failed", pytest.approx(1.0))]   # exactly once

    def test_wait_any_timeout_leaves_comm_retryable(self):
        """A wait_any timeout stops the wait, not the pending async comm:
        retrying must still receive a message that arrives later."""
        engine = Engine(pair_platform())
        got = {}

        def receiver(actor):
            comm = yield engine.mailbox("box").get_async()
            pending = ActivitySet([comm])
            try:
                yield pending.wait_any(timeout=1.0)
            except SimTimeoutError:
                got["timed_out_at"] = actor.now
            done = yield pending.wait_any()              # retry succeeds
            got["payload"] = done.get_payload()
            got["received_at"] = actor.now

        def sender(actor):
            yield this_actor.sleep_for(2.5)
            yield engine.mailbox("box").put("late", size=1e6)

        engine.add_actor("r", "alice", receiver)
        engine.add_actor("s", "bob", sender)
        engine.run()
        assert got["timed_out_at"] == pytest.approx(1.0)
        assert got["payload"] == "late"
        assert got["received_at"] == pytest.approx(3.5)

    def test_test_any_polls_without_blocking(self):
        engine = Engine(pair_platform(speed=1e9))
        seen = {}

        def worker(actor):
            comp = yield actor.exec_async(2e9)
            pending = ActivitySet([comp])
            seen["early"] = pending.test_any()
            yield this_actor.sleep_for(5.0)
            seen["late"] = pending.test_any() is comp
            seen["emptied"] = pending.empty()

        engine.add_actor("w", "alice", worker)
        engine.run()
        assert seen["early"] is None
        assert seen["late"] is True
        assert seen["emptied"]


    def test_race_cancels_the_loser_round_after_round(self):
        """Exec raced against a 10 ms exec on an idle host, loser
        cancelled, in a loop: both completion orders, and a cancelled exec
        must free its CPU for the next round (the final date says it
        did)."""
        engine = Engine(make_star(num_hosts=6, host_speed=1e9))
        winners = []

        def racer(actor, idle):
            for round_no in range(4):
                # Even rounds: 1 ms of work beats the 10 ms nap; odd
                # rounds: the nap beats 1 s of work.
                comp = yield actor.exec_async(1e6 if round_no % 2 == 0
                                              else 1e9)
                nap = yield actor.exec_async(1e7, host=engine.host(idle))
                pending = ActivitySet([comp, nap])
                winner = yield pending.wait_any()
                winners.append("exec" if winner is comp else "sleep")
                loser = nap if winner is comp else comp
                loser.cancel()
                pending.erase(loser)
                assert pending.empty()

        for i in range(3):
            engine.add_actor(f"racer-{i}", f"leaf-{i}", racer, f"leaf-{i + 3}")
        assert engine.run() == pytest.approx(2 * (0.001 + 0.01))
        assert winners.count("exec") == winners.count("sleep") == 6


class TestLoopbackRegression:
    def test_same_host_comm_completes_instantly(self):
        """Regression: an empty-route (same host) transfer used to create a
        constraint-free network action that never completed, hanging the
        simulation in a zero-delay engine spin."""
        engine = Engine(pair_platform())
        times = {}

        def sender(actor):
            yield engine.mailbox("box").put("big", size=1e9)

        def receiver(actor):
            yield engine.mailbox("box").get()
            times["done"] = actor.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "alice", receiver)
        engine.run()
        assert times["done"] == pytest.approx(0.0)

    def test_same_host_comm_pays_latency_only(self):
        platform = Platform("lat")
        platform.add_host("alice", 1e9)
        platform.add_host("bob", 1e9)
        platform.add_link("wire", 1e6, 0.25)
        platform.connect("alice", "bob", "wire")
        engine = Engine(platform)
        times = {}

        def sender(actor):
            yield engine.mailbox("box").put("x", size=1e9)

        def receiver(actor):
            yield engine.mailbox("box").get()
            times["done"] = actor.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "alice", receiver)
        engine.run()
        # same-host route is empty: no link latency, no bandwidth charge
        assert times["done"] == pytest.approx(0.0)


class TestActorLifecycle:
    def test_kill_another_actor_s4u_style(self):
        engine = Engine(pair_platform())
        log = []

        def victim(actor):
            try:
                yield this_actor.sleep_for(100.0)
                log.append("survived")
            finally:
                log.append(("killed-at", actor.now))

        def killer(actor, target):
            yield this_actor.sleep_for(2.0)
            yield target.kill()

        target = engine.add_actor("victim", "alice", victim)
        engine.add_actor("killer", "bob", killer, target)
        engine.run()
        assert ("killed-at", pytest.approx(2.0)) in log
        assert "survived" not in log

    def test_join_waits_for_termination(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def short(actor):
            yield actor.execute(3e9)

        def joiner(actor, other):
            yield other.join()
            times["joined"] = actor.now

        other = engine.add_actor("short", "alice", short)
        engine.add_actor("joiner", "bob", joiner, other)
        engine.run()
        assert times["joined"] == pytest.approx(3.0)

    def test_spawn_join_reap_waves(self):
        """Waves of short-lived actors created from inside the simulation,
        each wave joined before the next: the dead never linger in the
        alive set, whatever the total spawned."""
        engine = Engine(make_star(num_hosts=4, host_speed=1e9))
        reports = []
        peak_alive = []

        def worker(actor, index):
            yield actor.execute(1e6)
            yield engine.mailbox("sink").put(index, size=1e3)

        def sink(actor):
            for _ in range(3 * 8):
                reports.append((yield engine.mailbox("sink").get()))

        def spawner(actor):
            for wave in range(3):
                batch = [engine.add_actor(f"w-{wave}-{i}", f"leaf-{i % 4}",
                                          worker, wave * 8 + i)
                         for i in range(8)]
                peak_alive.append(engine.actor_count())
                for spawned in batch:
                    yield spawned.join()
                assert not any(spawned.is_alive for spawned in batch)

        engine.add_actor("sink", "center", sink)
        engine.add_actor("spawner", "center", spawner)
        engine.run()
        assert sorted(reports) == list(range(24))
        assert peak_alive == [10, 10, 10]     # one wave + sink + spawner
        assert engine.actor_count() == 0

    @staticmethod
    def _calls_of_actor_count(finished):
        """Python and C calls one ``actor_count()`` makes once ``finished``
        actors have ended and one sleeper is still alive."""
        def quick(actor):
            yield actor.sleep_for(0.5)

        def sleeper(actor):
            yield actor.sleep_for(10.0)

        engine = Engine(pair_platform())
        engine.add_actor("sleeper", "bob", sleeper)
        quick_ones = [engine.add_actor(f"q{index}", "alice", quick)
                      for index in range(finished)]
        engine.run(until=1.0)
        calls = [0]

        def count(frame, event, arg):
            if event in ("call", "c_call"):
                calls[0] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            alive = engine.actor_count()
        finally:
            sys.setprofile(previous)
        assert alive == 1
        assert not any(actor.is_alive for actor in quick_ones)
        return calls[0]

    def test_actor_count_does_not_grow_with_the_dead(self):
        """``actor_count()`` is O(1): no scan of the actors that ended,
        counted without a clock."""
        assert (self._calls_of_actor_count(10_000)
                == self._calls_of_actor_count(10))

    def test_suspend_resume_across_actors(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor):
            yield actor.execute(1e9)
            times["done"] = actor.now

        def controller(actor, target):
            yield this_actor.sleep_for(0.5)
            yield target.suspend()
            yield this_actor.sleep_for(2.0)
            yield target.resume()

        target = engine.add_actor("worker", "alice", worker)
        engine.add_actor("ctl", "bob", controller, target)
        engine.run()
        # 0.5 s of work, 2 s suspended, 0.5 s of work
        assert times["done"] == pytest.approx(3.0)

    def test_lifecycle_calls_that_change_nothing_are_no_ops(self):
        """Resuming a running actor and suspending a suspended one change
        nothing: one resume still ends the one suspension.  A dead actor
        stays as it died: a second kill, a suspend or a resume leaves its
        exit status and its ``on_exit`` count alone, and it is not
        suspended, even when it was when it died."""
        engine = Engine(pair_platform(speed=1e9))
        times, exits = {}, []

        def worker(actor):
            yield actor.execute(1e9)
            times["done"] = actor.now

        def sleeper(actor):
            yield actor.sleep_for(100.0)

        def controller(actor, target, corpse, suspended_corpse):
            yield target.resume()
            yield this_actor.sleep_for(0.5)
            yield target.suspend()
            yield target.suspend()
            yield this_actor.sleep_for(2.0)
            yield target.resume()
            yield suspended_corpse.suspend()
            for victim in (corpse, suspended_corpse):
                yield victim.kill()
                yield victim.kill()
            yield corpse.suspend()
            yield suspended_corpse.resume()

        target = engine.add_actor("worker", "alice", worker)
        corpse = engine.add_actor("corpse", "bob", sleeper)
        suspended_corpse = engine.add_actor("suspended", "bob", sleeper)
        for victim in (corpse, suspended_corpse):
            victim.on_exit(exits.append)
        engine.add_actor("ctl", "bob", controller, target, corpse,
                         suspended_corpse)
        engine.run()
        # 0.5 s of work, 2 s suspended, 0.5 s of work
        assert times["done"] == pytest.approx(3.0)
        assert exits == [True, True]
        assert [(victim.is_alive, victim.is_suspended, victim.exit_status)
                for victim in (corpse, suspended_corpse)] == [
                    (False, False, None), (False, False, None)]

    @pytest.mark.parametrize("how", ["itself", "by a peer"])
    def test_an_actor_killed_while_suspended_keeps_no_suspension(self, how):
        """Killed while suspended, an actor dies with nothing parked: it
        does not read as suspended and holds no answer for a resume
        that can never come."""
        engine = Engine(pair_platform(speed=1e9))

        def victim(actor):
            if how == "itself":
                yield actor.suspend()
            yield actor.sleep_for(100.0)

        def controller(actor, target):
            if how == "by a peer":
                yield target.suspend()
            yield this_actor.sleep_for(1.0)
            assert target.is_suspended
            yield target.kill()

        target = engine.add_actor("victim", "alice", victim)
        engine.add_actor("ctl", "bob", controller, target)
        assert engine.run() == 1.0
        assert not target.is_alive and not target.is_suspended
        assert target._parked_resume is None

    def test_current_actor_outside_simulation_raises(self):
        with pytest.raises(RuntimeError):
            s4u.current_actor()


class TestRunContract:
    """What ``Engine.run`` guarantees around errors and repeated calls."""

    def test_exception_in_actor_body_terminates_the_actor(self):
        engine = Engine(make_star(num_hosts=3))
        exits = []

        def bad(actor):
            yield actor.execute(1e6)
            raise RuntimeError("boom")

        def good(actor):
            yield actor.execute(5e6)

        def joiner(actor, target):
            yield target.join()
            exits.append("joined")

        culprit = engine.add_actor("bad", "leaf-0", bad)
        culprit.on_exit(exits.append)
        healthy = engine.add_actor("good", "leaf-1", good)
        engine.add_actor("joiner", "leaf-2", joiner, culprit)
        with pytest.raises(RuntimeError, match="boom") as raised:
            engine.run()
        # Loud, but no zombie: dead, uncounted, off its host, exit hook
        # fired as a failure, the escaped exception on record.
        assert not culprit.is_alive
        assert culprit.exit_status is raised.value
        assert exits == [True]
        assert engine.actor_count() == 2
        assert culprit not in culprit.host.actors
        assert s4u.actor._current is None
        # The next run finishes the healthy actors; no deadlock reported.
        final = engine.run()
        assert not engine.deadlocked
        assert not healthy.is_alive and healthy.exit_status is None
        assert exits == [True, "joined"]
        assert final == pytest.approx(5e6 / 1e9)

    def test_deadlocked_is_reset_by_the_next_run(self):
        engine = Engine(make_star(num_hosts=3))

        def stuck(actor):
            yield engine.mailbox("nobody").get()

        def healthy(actor):
            yield actor.sleep_for(0.001)

        engine.add_actor("stuck", "leaf-0", stuck)
        engine.run()
        assert engine.deadlocked
        engine.add_actor("healthy", "leaf-1", healthy)
        assert engine.run() == pytest.approx(0.001)
        assert not engine.deadlocked

    @pytest.mark.parametrize("traced", [False, True])
    def test_an_exec_suspended_by_a_peer_that_ends_deadlocks_the_run(
            self, traced):
        """The worker's exec is still an action, but only an actor could
        resume it: once the peer ends, nothing can ever happen, and the
        run ends deadlocked at once, a periodic availability trace on a
        host or not (the bound makes a run that goes on fail, not
        hang)."""
        from repro.surf.trace import Trace

        platform = pair_platform(speed=1e9)
        if traced:
            platform.add_host("carol", 1e9, availability_trace=Trace(
                [(0, 1), (1, .5)], period=2))
        engine = Engine(platform)

        def worker(actor):
            yield actor.execute(1e9)

        def controller(actor, target):
            yield this_actor.sleep_for(0.5)
            yield target.suspend()

        target = engine.add_actor("worker", "alice", worker)
        engine.add_actor("ctl", "bob", controller, target)
        assert engine.run(until=1e3) == 0.5
        assert engine.deadlocked and not target.is_alive

    def test_an_exec_no_trace_event_lifts_off_a_zero_rate_deadlocks_the_run(
            self):
        """The trace drops the host to no availability and ends: the exec
        runs on at rate 0, so the run goes on past the drop, then SURF
        finds nothing that can ever happen (``step()`` returns ``None``)
        and the run ends deadlocked."""
        from repro.surf.trace import Trace

        platform = Platform("dropped")
        platform.add_host("alice", 1e9, availability_trace=Trace(
            [(0, 1), (0.5, 0)]))
        engine = Engine(platform)
        worker = engine.add_actor(
            "worker", "alice", lambda actor: (yield actor.execute(1e9)))
        assert engine.surf.step(until=0.0) is not None
        assert engine.run() == 0.5
        assert engine.deadlocked and not worker.is_alive
        assert engine.surf.step() is None

    @pytest.mark.parametrize("waker", [None, "speed listener", "state trace"])
    def test_a_periodic_trace_does_not_outlive_a_deadlock(self, waker):
        """An actor blocked on an empty mailbox next to a periodic
        availability trace, which never runs out of events: nothing can
        wake it, so the run ends deadlocked at once.  An observer of the
        speed changes only watches, so it changes nothing; a pending
        state event could wake the actor, so that run goes on."""
        from repro.exceptions import DeadlockError
        from repro.surf.trace import Trace

        def world(raise_on_deadlock=False):
            platform = Platform("traced")
            platform.add_host("alice", 1e9, availability_trace=Trace(
                [(0, 1), (1, .5)], period=2))
            platform.add_host("bob", 1e9, state_trace=Trace(
                [(0.5, 0), (1.5, 1)], period=2)
                if waker == "state trace" else None)
            engine = Engine(platform, raise_on_deadlock=raise_on_deadlock)
            if waker == "speed listener":
                engine.observe(lambda date, kind, subject, value: None)
            engine.add_actor(
                "stuck", "alice",
                lambda actor: (yield engine.mailbox("nobody").get()))
            return engine

        engine = world()
        if waker != "state trace":
            assert engine.run(until=1e3) == 0.0 and engine.deadlocked
            with pytest.raises(DeadlockError, match="t=0"):
                world(raise_on_deadlock=True).run(until=1e3)
        else:
            assert engine.run(until=1e3) == 1e3 and not engine.deadlocked

    def test_run_until_a_past_date_is_a_no_op(self):
        engine = Engine(make_star(num_hosts=3))
        marks = []

        def sleeper(actor):
            yield actor.sleep_for(10)
            marks.append(actor.now)

        def late(actor):
            marks.append(actor.now)
            yield actor.sleep_for(1)

        sleeper_actor = engine.add_actor("sleeper", "leaf-0", sleeper)
        assert engine.run(until=6) == 6.0
        late_actor = engine.add_actor("late", "leaf-1", late)
        assert engine.run(until=3) == 6.0
        assert engine.surf.clock == 6.0
        # Nothing ran: neither body got a turn past its last simcall.
        assert sleeper_actor.is_alive and late_actor.is_alive
        assert marks == []
        assert engine.run() == 10.0
        assert marks == [6.0, 10.0]

    def test_run_until_nan_raises_and_steps_nothing(self):
        # It used to run to the end: this body returned 10.0.
        engine = Engine(make_star(num_hosts=3))

        marks = []

        def body(actor):
            marks.append(actor.now)
            yield actor.execute(5e9)
            yield actor.execute(5e9)

        worker = engine.add_actor("worker", "leaf-0", body)
        with pytest.raises(ValueError, match="nan"):
            engine.run(until=math.nan)
        assert engine.now == 0.0
        # Nothing ran: the body never got its first turn.
        assert worker.is_alive and marks == []
        assert engine.run() == 10.0


def overlap_fleet(workers):
    """The fleet shape perfbench times: exec ∥ put, reaped by wait_any."""
    engine, received, spawn_workers = overlap_world(workers)
    spawn_workers()
    return engine, received


def overlap_world(workers):
    """The overlap fleet's engine with its sink, the list the sink fills
    and the function that adds the workers."""
    engine = Engine(make_star(num_hosts=workers))
    box = engine.mailbox("sink")
    received = []

    def worker(actor):
        comp = yield actor.exec_async(5e7)
        comm = yield box.put_async(actor.name, size=1e4)
        pending = ActivitySet([comp, comm])
        while not pending.empty():
            yield pending.wait_any()

    def sink(actor):
        for _ in range(workers):
            received.append((yield box.get()))

    def spawn_workers():
        for i in range(workers):
            engine.add_actor(f"worker-{i}", f"leaf-{i}", worker)

    engine.add_actor("sink", "center", sink)
    return engine, received, spawn_workers


class TestCallsPerActivity:
    """The per-event path's cost per activity, pinned without a clock."""

    #: Python frames per activity (one exec and one comm per worker) whose
    #: code lives under ``repro/<layer>/``.  s4u: 58.6 before the
    #: deferred-start path went (PR 17), 51.6 after, 35.1 with the fused
    #: actor turn (PR 18), 31.6 with the one ``submit`` (PR 20: two of a
    #: simcall's four frames moved to ``repro/kernel/``, 7.0 -> 12.0
    #: there, and the uncounted dataclass ``__init__`` went).  surf (the
    #: LMM solver included): 73.0 before PR 18, 49.6 after, 47.5 before
    #: the per-event code below s4u read slots instead of calling
    #: properties and helpers, 38.5 after; kernel 12.0 -> 10.0 there.
    #: Measured at 400 workers when the one-variable component got its
    #: closed form and the s4u turn lost its builtins and spare frames:
    #: s4u 30.0 -> 27.0, surf 38.5 -> 36.5, kernel 10.0 (unchanged) and
    #: platform 8.5 (first counted then).  The ceilings are those numbers
    #: plus 0.1 for the sink's start, which 100 workers amortize less.
    #: Lower them with each lever that lands.
    CEILINGS = {"s4u": 27.1, "surf": 36.6, "kernel": 10.1, "platform": 8.6}

    #: Builtins the layers do not call per activity: each has a compare
    #: or a slot read that yields the same value.  ``getattr`` stays in
    #: ``repro/s4u``, where ``submit`` resolves the handler it names.
    #: isinstance per activity was 4.0 from s4u and 2.5 from kernel
    #: before ``action.data``, ``Activity.kind`` and the yielded
    #: request's class were compared instead.
    BANNED = (max, min, math.isinf, any, getattr, isinstance)
    ALLOWED_IN_S4U = (getattr,)

    #: ``len`` calls from ``repro/surf`` per activity: 12.5 -> 5.0 when a
    #: one-variable component stopped going through ``_solve_single``.
    SURF_LEN_CEILING = 5.1

    @pytest.mark.parametrize("workers", [100, 400])
    def test_overlap_fleet_stays_under_the_frame_ceilings(self, workers):
        engine, received = overlap_fleet(workers)
        # Python frames only: the count does not depend on which builtins
        # the interpreter happens to implement in C.
        layers = {os.sep + os.path.join("repro", layer) + os.sep: layer
                  for layer in self.CEILINGS}
        frames = dict.fromkeys(self.CEILINGS, 0)
        # Banned builtin calls, and generator expressions (a frame per
        # element stream) below s4u and platform, by caller; the surf
        # layer's len calls; the one-constraint water-filling runs.
        banned = {}
        surf_len = [0]
        solve_single = [0]

        def count(frame, event, arg):
            if event != "call" and event != "c_call":
                return
            filename = frame.f_code.co_filename
            for marker, layer in layers.items():
                if marker in filename:
                    break
            else:
                return
            name = frame.f_code.co_name
            if event == "call":
                frames[layer] += 1
                if name == "<genexpr>" and layer in ("surf", "kernel"):
                    banned[name] = banned.get(name, 0) + 1
                elif name == "_solve_single":
                    solve_single[0] += 1
            elif any(arg is f for f in self.BANNED) and not (
                    layer == "s4u"
                    and any(arg is f for f in self.ALLOWED_IN_S4U)):
                key = f"{arg.__name__} in {layer}.{name}"
                banned[key] = banned.get(key, 0) + 1
            elif arg is len and layer == "surf":
                surf_len[0] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            engine.run()
        finally:
            sys.setprofile(previous)
        assert len(received) == workers
        # The same ceilings at both sizes: a per-activity cost that grows
        # with the fleet is the scale decay the ceilings exist to catch.
        for layer, ceiling in self.CEILINGS.items():
            assert frames[layer] / (2 * workers) <= ceiling, layer
        assert banned == {}
        assert surf_len[0] / (2 * workers) <= self.SURF_LEN_CEILING
        # Every component of the fleet is one variable on one constraint:
        # solved in closed form (it was 2 runs per worker).
        assert solve_single[0] == 0

    def test_a_shared_constraint_still_goes_through_solve_single(self):
        from repro.surf.lmm import MaxMinSystem

        system = MaxMinSystem()
        link = system.new_constraint(100.0)
        flows = [system.new_variable(bound=bound) for bound in (None, 30.0)]
        for flow in flows:
            system.expand(link, flow)
        runs = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "_solve_single":
                runs[0] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            system.solve()
        finally:
            sys.setprofile(previous)
        assert runs == [1]
        assert [flow.value for flow in flows] == [70.0, 30.0]

    @pytest.mark.parametrize("workers", [7, 100])
    def test_every_traced_seam_is_still_a_call_per_event(self, workers):
        """The patch points of ``perfbench/trace.py`` stay real calls.

        Wrapped the way the tracer wraps them — class-level ``setattr``
        before ``run()`` — each seam must be crossed as often as before
        the per-event path was fused: a loop that inlines a seam's body,
        or binds it before the wrapper is installed, zeroes a pinned span
        count in the benchmark.
        """
        from repro.kernel.context import GeneratorContext
        from repro.kernel.timer import TimerQueue
        from repro.surf.engine import SurfEngine
        from repro.surf.lmm import MaxMinSystem

        seams = ((GeneratorContext, "resume"), (TimerQueue, "fire_until"),
                 (SurfEngine, "step"), (MaxMinSystem, "solve"),
                 (MaxMinSystem, "solve_grouped"),
                 (Platform, "route_resources"), (Platform, "cpu_of"),
                 (Platform, "realize"), (Engine, "run"),
                 (Engine, "add_actor"))
        calls = {}

        def counted(key, original):
            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        originals = [(owner, name, vars(owner)[name])
                     for owner, name in seams]
        for owner, name, original in originals:
            setattr(owner, name, counted(name, original))
        try:
            engine, received = overlap_fleet(workers)
            setup, calls = calls, {}
            engine.run()
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)
        assert len(received) == workers
        assert setup == {"realize": 1, "add_actor": workers + 1,
                         "cpu_of": workers + 1}
        # Five turns per worker (the start, one per *_async answer, one
        # per wait_any wake-up), the sink's start plus one per message;
        # one step per completion date plus the one ending the latency
        # phases.
        assert calls == {"run": 1, "resume": 6 * workers + 1,
                         "route_resources": workers,
                         "step": 2 * workers + 1,
                         "fire_until": 2 * workers + 1,
                         "solve": 2 * workers + 2}


class TestBytesPerActivity:
    """The per-event path's memory per worker, pinned without a clock.

    ``tracemalloc`` reads the bytes the overlap fleet holds per worker,
    its hosts materialized first so only the actors count: once every
    worker was added (``PER_ACTOR``), and once every ``Exec`` and
    ``Comm`` is in flight, one ``run(until=…)`` short of the first
    completion (``IN_FLIGHT``).  Before an object no snapshot carries
    stopped holding empty containers and unread copies, Python 3.11 read
    904–932 and 2 341–2 370 bytes at 100 and 400 workers alike (3.12 and
    3.13 within 15 bytes of that); after, 775–804 and 2 054–2 081 (no
    second empty ``kwargs`` dict, ``data`` dict or ``on_exit`` list per
    actor; ``waiters`` a tuple until the first waiter, no ``post_time``,
    a slotted ``ActivitySet`` and a tuple snapshot per wait).  Python
    3.10 keeps a generator's frame as an object of its own: 1 202–1 230
    and 2 699–2 745 before, 1 073–1 102 and 2 347–2 393 after.  An
    ``Exec`` without its unread ``flops``, ``priority`` and ``bound``
    slots takes 24 bytes off ``IN_FLIGHT`` (3.11: 2 030–2 057).  An
    activity without its unread ``_engine`` slot and an engine that no
    longer lists every actor it ever added take 25 more off (3.11:
    2 011–2 014; 9 of them are the list, off ``PER_ACTOR`` too: 777–781;
    3.10.13 the same 25 and 9: 2 315–2 325 and 1 083–1 089).
    The spread is the pid: above 256 it is an int object of its own, 28
    bytes.  The ceilings are the highest reads plus 2 to 3 %.  Lower
    them with each lever that lands.
    """

    PER_ACTOR, IN_FLIGHT = ((1130, 2391) if sys.version_info < (3, 11)
                            else (830, 2071))

    @pytest.mark.parametrize("workers", [100, 400])
    def test_overlap_fleet_stays_under_the_byte_ceilings(self, workers):
        import gc
        import tracemalloc

        # A first fleet in the process allocates what every later one
        # shares (3.10: 37 kB): not the workers' bytes.
        warm_up, _ = overlap_fleet(2)
        warm_up.run()
        engine, received, spawn_workers = overlap_world(workers)
        for i in range(workers):
            engine.host(f"leaf-{i}")
        # A profile or trace hook (tests/never_run.py, coverage) allocates
        # in the window and gives every frame it sees an object: off.
        hooks = sys.getprofile(), sys.gettrace()
        sys.setprofile(None)
        sys.settrace(None)
        gc.collect()  # also empties the free lists: every object counts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spawn_workers()
            per_actor = tracemalloc.get_traced_memory()[0] - base
            engine.run(until=0.005)
            in_flight = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            sys.setprofile(hooks[0])
            sys.settrace(hooks[1])
        # Short of the first completion: every worker waits on both.
        assert received == []
        assert all(len(actor._wait_activities) == 2
                   for actor in list(engine._alive_actors)[1:])
        # The same ceilings at both sizes: a cost per worker that grows
        # with the fleet is the scale decay they exist to catch.
        assert per_actor / workers <= self.PER_ACTOR
        assert in_flight / workers <= self.IN_FLIGHT
        engine.run()
        assert len(received) == workers


class TestHotClassesKeepSlots:
    """Every object the per-event path makes per activity or per actor
    is slotted: a ``__dict__`` costs each instance a dict."""

    def test_no_instance_of_a_hot_class_has_a_dict(self):
        from repro.kernel.context import GeneratorContext
        from repro.kernel.simcall import Simcall
        from repro.surf.action import Action
        from repro.surf.cpu import CpuAction
        from repro.surf.network import NetworkAction

        engine = Engine(pair_platform())
        seen = {}

        def sender(actor):
            comp = yield actor.exec_async(1e9)
            comm = yield engine.mailbox("box").put_async("x", size=1e6)
            seen["set"] = ActivitySet([comp, comm])
            seen["simcall"] = seen["set"].wait_all()
            yield seen["simcall"]

        def receiver(actor):
            yield engine.mailbox("box").get()

        alice = engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run(until=0.5)
        comp, comm = alice._wait_activities
        instances = {
            Action: Action(comp.surf_action.model, 1.0),
            CpuAction: comp.surf_action,
            NetworkAction: comm.surf_action,
            s4u.Activity: s4u.Activity("exit"),
            s4u.Exec: comp,
            s4u.Comm: comm,
            ActivitySet: seen["set"],
            s4u.Actor: alice,
            Simcall: seen["simcall"],
            GeneratorContext: alice.context,
        }
        for cls, instance in instances.items():
            assert type(instance) is cls
            assert not hasattr(instance, "__dict__"), cls.__name__
        engine.run()


# -- every kind of wait x every way it ends ------------------------------------
#
# Each blocking call below starts at t=0 and would complete around t=2;
# the ending under test happens at t=1 (suspend_resume: suspended at 1,
# resumed at 3, i.e. across the wake).

def _block_execute(world, actor, timeout):
    yield actor.execute(2e9)


def _block_sleep_for(world, actor, timeout):
    yield actor.sleep_for(2.0)


def _reaping_peer(world, actor, post):
    """The other side of the waiter's put/get, reaped through a set."""
    if post == "get_async":
        comm = yield world.box.get_async()
    else:
        comm = yield world.box.put_async("x", size=2.5e7)
    world.track(comm)
    world.peer_set = ActivitySet([comm])
    try:
        yield world.peer_set.wait_any()
    except SimGridError as exc:
        world.peer_outcomes.append(type(exc).__name__)
    else:
        world.peer_outcomes.append("ok")


def _block_put(world, actor, timeout):
    world.spawn("peer", "leaf-1", _reaping_peer, "get_async")
    yield world.box.put("x", size=2.5e7, timeout=timeout)


def _block_get(world, actor, timeout):
    world.spawn("peer", "leaf-1", _reaping_peer, "put_async")
    yield world.box.get(timeout=timeout)


def _block_handle_wait(world, actor, timeout):
    handle = world.cancellable = world.track((yield actor.exec_async(2e9)))
    yield handle.wait(timeout=timeout)


def _block_wait_any(world, actor, timeout):
    first = world.cancellable = world.track((yield actor.exec_async(2e9)))
    world.track((yield actor.exec_async(5e9, host=world.engine.host(
        "leaf-2"))))
    world.set = ActivitySet(world.activities)
    yield world.set.wait_any(timeout=timeout)
    assert first not in world.set


def _block_wait_all(world, actor, timeout):
    world.track((yield actor.exec_async(5e8)))
    world.cancellable = world.track((yield actor.exec_async(
        2e9, host=world.engine.host("leaf-2"))))
    world.set = ActivitySet(world.activities)
    yield world.set.wait_all(timeout=timeout)
    assert world.set.empty()


def _block_join(world, actor, timeout):
    target = world.spawn("target", "leaf-2", _block_sleep_for, None)
    try:
        yield target.join(timeout=timeout)
    finally:
        world.track(target._exit)


_NO_HANDLE = {"completion", "kill", "host_off", "suspend_resume"}
_WAITS = {
    # call: (body, the endings that apply to it)
    "execute": (_block_execute, _NO_HANDLE),
    "sleep_for": (_block_sleep_for, _NO_HANDLE),
    "put": (_block_put, _NO_HANDLE | {"timeout"}),
    "get": (_block_get, _NO_HANDLE | {"timeout"}),
    "handle.wait": (_block_handle_wait, _NO_HANDLE | {"timeout", "cancel"}),
    "wait_any": (_block_wait_any, _NO_HANDLE | {"timeout", "cancel"}),
    "wait_all": (_block_wait_all, _NO_HANDLE | {"timeout", "cancel"}),
    "join": (_block_join, _NO_HANDLE | {"timeout"}),
}
_OUTCOMES = {"completion": "ok", "suspend_resume": "ok",
             "timeout": "SimTimeoutError", "cancel": "CancelledError",
             "kill": "ProcessKilledError", "host_off": "ProcessKilledError"}


class _WaitWorld:
    """One engine, one waiter, and what the invariants need to see."""

    def __init__(self, context):
        self.context = context
        self.engine = Engine(make_star(num_hosts=3), context_factory=context)
        self.box = self.engine.mailbox("box")
        self.activities = []     # every handle a scenario got hold of
        self.cancellable = None  # the one the "cancel" ending cancels
        self.set = None          # the set the waiter reaps through, if any
        self.outcomes = []       # (what reached the waiter, date)
        self.peer_outcomes = []
        self.peer_set = None
        self.actors = []         # every actor spawned

    def spawn(self, name, host, body, *args):
        """Bodies are generators over (world, actor, ...), pumped under a
        thread context (see :mod:`pump`)."""
        actor = self.engine.add_actor(
            name, host,
            actor_body(self.context, lambda actor: body(self, actor, *args)))
        self.actors.append(actor)
        return actor

    def track(self, activity):
        self.activities.append(activity)
        return activity


def _waiter(world, actor, block, timeout):
    try:
        yield from block(world, actor, timeout)
    except SimGridError as exc:
        world.outcomes.append((type(exc).__name__, actor.now))
    else:
        world.outcomes.append(("ok", actor.now))


def _ender(world, actor, ending, waiter):
    yield actor.sleep_for(1.0)
    if ending == "kill":
        yield waiter.kill()
    elif ending == "host_off":
        waiter.host.turn_off()
    elif ending == "cancel":
        world.cancellable.cancel()
    elif ending == "suspend_resume":
        yield waiter.suspend()
        yield actor.sleep_for(2.0)
        yield waiter.resume()


class TestEveryWaitEveryEnding:
    """The wait path's contract, one row per (blocking call, ending)."""

    @pytest.mark.parametrize("context", ["generator", "thread"])
    @pytest.mark.parametrize("call, ending", [
        (call, ending) for call, (_, endings) in _WAITS.items()
        for ending in sorted(endings)])
    def test_one_outcome_and_nothing_left_behind(self, call, ending, context):
        world = _WaitWorld(context)
        engine = world.engine
        waiter = world.spawn("waiter", "leaf-0", _waiter, _WAITS[call][0],
                             1.0 if ending == "timeout" else None)
        world.spawn("ender", "center", _ender, ending, waiter)
        engine.run()

        # Exactly one outcome reached the waiter, at the ending's date.
        (outcome, date), = world.outcomes
        assert outcome == _OUTCOMES[ending]
        if ending == "completion":
            assert 1.0 < date < 3.0
        elif ending == "suspend_resume":
            assert date >= 3.0
        else:
            assert date == 1.0
        # Nobody is left waiting, on anything.
        for actor in world.actors:
            assert not actor.is_alive
            assert (actor._wait_kind, tuple(actor._wait_activities),
                    actor._wait_owner, actor._wait_timer) == (
                        None, (), None, None)
        for activity in world.activities:
            assert activity.waiters == ()
        # No timer of the wait survives.
        engine.timers.compact()
        for _, _, timer in engine.timers._heap:
            assert (getattr(timer.callback, "func", None)
                    != engine._on_wait_timeout)
        # What ended the wait left the set it was reaped through.
        if ending == "cancel" and world.set is not None:
            assert world.cancellable not in world.set
        # The comm ended for both sides: one outcome for the peer, whose
        # set emptied, and no transfer left in flight.
        if call in ("put", "get"):
            survived = ending in ("completion", "suspend_resume")
            assert world.peer_outcomes == [
                "ok" if survived else "TransferFailureError"]
            assert world.peer_set.empty()
        for activity in world.activities:
            assert not (isinstance(activity, s4u.Comm)
                        and activity.state is s4u.ActivityState.STARTED)
        assert not engine._active_comms


class TestBlockingCallOnAnotherActorsObject:
    """A blocking call is the *running* actor's request, whichever actor
    object it is made on — under both context factories."""

    @pytest.mark.parametrize("context", ["generator", "thread"])
    def test_the_caller_pays_and_the_exec_runs_on_the_others_host(
            self, context):
        world = _WaitWorld(context)
        marks = []

        def bystander(world, actor):
            yield actor.sleep_for(10.0)

        def caller(world, actor, other):
            yield actor.sleep_for(1.0)
            yield other.execute(1e9)
            marks.append(("execute", actor.now))
            yield other.sleep_for(1.0)
            marks.append(("sleep_for", actor.now))
            comp = yield other.exec_async(1e9)
            assert comp.actor is actor and comp.host is other.host
            yield comp.wait()
            marks.append(("exec_async", actor.now))

        other = world.spawn("other", "leaf-1", bystander)
        world.spawn("caller", "leaf-0", caller, other)
        # Submitted through the wrong thread context, the call parks every
        # thread in a C-level wait the hang watchdog cannot interrupt: run
        # from a thread this test can give up on.
        finals = []
        runner = threading.Thread(
            target=lambda: finals.append(world.engine.run()), daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "the simulation wedged"
        assert finals == [10.0]
        assert marks == [("execute", 2.0), ("sleep_for", 3.0),
                         ("exec_async", 4.0)]


_NAN, _INF = float("nan"), float("inf")
#: (the argument the ValueError must name, the call making it) — the
#: call gets the world, the calling actor and a live Exec handle.
_BAD_ARGUMENTS = {
    "execute(-1)": ("flops", lambda w, a, h: a.execute(-1)),
    "execute(nan)": ("flops", lambda w, a, h: a.execute(_NAN)),
    "execute(inf)": ("flops", lambda w, a, h: a.execute(_INF)),
    "exec_async(-1)": ("flops", lambda w, a, h: a.exec_async(-1)),
    "exec_async(nan)": ("flops", lambda w, a, h: a.exec_async(_NAN)),
    "execute(priority=-1)":
        ("priority", lambda w, a, h: a.execute(1, priority=-1)),
    "exec_async(priority=nan)":
        ("priority", lambda w, a, h: a.exec_async(1, priority=_NAN)),
    "execute(bound=0)": ("bound", lambda w, a, h: a.execute(1, bound=0)),
    "exec_async(bound=nan)":
        ("bound", lambda w, a, h: a.exec_async(1, bound=_NAN)),
    "sleep_for(-1)": ("duration", lambda w, a, h: a.sleep_for(-1)),
    "sleep_for(nan)": ("duration", lambda w, a, h: a.sleep_for(_NAN)),
    "sleep_for(inf)": ("duration", lambda w, a, h: a.sleep_for(_INF)),
    "this_actor.sleep_for(nan)":
        ("duration", lambda w, a, h: this_actor.sleep_for(_NAN)),
    "join(timeout=-1)": ("timeout", lambda w, a, h: w.bystander.join(-1)),
    "put(size=-5)": ("size", lambda w, a, h: w.box.put("x", size=-5)),
    "put(size=nan)": ("size", lambda w, a, h: w.box.put("x", size=_NAN)),
    "put(rate=0)": ("rate", lambda w, a, h: w.box.put("x", rate=0)),
    "put(timeout=-1)":
        ("timeout", lambda w, a, h: w.box.put("x", timeout=-1)),
    "put(priority=-1)":
        ("priority", lambda w, a, h: w.box.put("x", priority=-1)),
    "put_async(size=inf)":
        ("size", lambda w, a, h: w.box.put_async("x", size=_INF)),
    "put_async(rate=nan)":
        ("rate", lambda w, a, h: w.box.put_async("x", rate=_NAN)),
    "put_async(priority=nan)":
        ("priority", lambda w, a, h: w.box.put_async("x", priority=_NAN)),
    "get(timeout=-1)": ("timeout", lambda w, a, h: w.box.get(timeout=-1)),
    "get(timeout=nan)": ("timeout", lambda w, a, h: w.box.get(timeout=_NAN)),
    "get(rate=-1)": ("rate", lambda w, a, h: w.box.get(rate=-1)),
    "get_async(rate=0)": ("rate", lambda w, a, h: w.box.get_async(rate=0)),
    "wait(timeout=-1)": ("timeout", lambda w, a, h: h.wait(timeout=-1)),
    "wait_any(timeout=-1)":
        ("timeout", lambda w, a, h: ActivitySet([h]).wait_any(timeout=-1)),
    "wait_all(timeout=nan)":
        ("timeout", lambda w, a, h: ActivitySet([h]).wait_all(timeout=_NAN)),
}


def _bad_caller(world, actor, call):
    # Not at t=0: a negative timeout is then a date in the past.
    yield actor.sleep_for(5.0)
    handle = world.track((yield actor.exec_async(1e9)))
    try:
        yield call(world, actor, handle)
    except ValueError as exc:
        world.outcomes.append((str(exc), actor.now))
    yield handle.wait()
    world.outcomes.append(("went on", actor.now))


def _bystander(world, actor):
    yield actor.sleep_for(7.0)
    world.peer_outcomes.append(actor.now)


class TestArgumentsAreCheckedInTheActor:
    """An out-of-range amount is the caller's bug and the caller's alone:
    ``ValueError`` at the call site, naming the argument, before anything
    reaches the kernel — the run, the clock and the other actors never
    notice."""

    @pytest.mark.parametrize("context", ["generator", "thread"])
    @pytest.mark.parametrize("bad", sorted(_BAD_ARGUMENTS))
    def test_value_error_at_the_call_site_and_the_run_goes_on(
            self, bad, context):
        argument, call = _BAD_ARGUMENTS[bad]
        world = _WaitWorld(context)
        engine = world.engine
        world.bystander = world.spawn("bystander", "leaf-1", _bystander)
        world.spawn("caller", "leaf-0", _bad_caller, call)
        assert engine.run() == 7.0
        (message, date), went_on = world.outcomes
        assert message.startswith(argument + " must be") and date == 5.0
        assert went_on == ("went on", 6.0)
        assert world.peer_outcomes == [7.0]
        assert not engine.deadlocked and engine.actor_count() == 0
        assert world.box.empty and not engine.timers
        # Nothing is left to do: a second run is a no-op.
        assert engine.run() == 7.0
        assert len(world.outcomes) == 2 and world.peer_outcomes == [7.0]


class TestOneWaitPath:
    """Structural guards: the single-writer property of the wait state and
    picklable timer callbacks are what an event sink will hook and what a
    snapshot relies on, so their erosion must fail here."""

    SRC = pathlib.Path(s4u.__file__).resolve().parent.parent
    WAIT_SLOTS = {"_wait_kind", "_wait_activities", "_wait_owner",
                  "_wait_timer"}
    WRITERS = {"Actor.__init__", "Engine._block_on", "Engine._unblock"}

    @staticmethod
    def _functions(tree):
        """(qualified name, node) of every method and function."""
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{node.name}.{item.name}", item
            elif isinstance(node, ast.FunctionDef):
                yield node.name, node

    def test_wait_slots_have_three_writers(self):
        writers = set()
        for path in sorted((self.SRC / "s4u").glob("*.py")):
            for name, function in self._functions(ast.parse(path.read_text())):
                for node in ast.walk(function):
                    targets = []
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        targets = [node.target]
                    for target in targets:
                        for leaf in ast.walk(target):
                            if (isinstance(leaf, ast.Attribute)
                                    and leaf.attr in self.WAIT_SLOTS):
                                writers.add(name)
        assert writers == self.WRITERS

    def test_no_lambda_or_nested_function_is_scheduled_as_a_timer(self):
        offenders = []
        for package in ("s4u", "ft", "replay", "kernel"):
            for path in sorted((self.SRC / package).glob("*.py")):
                tree = ast.parse(path.read_text())
                outer = {id(node) for _, node in self._functions(tree)}
                nested = {node.name for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef)
                          and id(node) not in outer}
                for call in ast.walk(tree):
                    if not (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "schedule"
                            and getattr(call.func.value, "attr",
                                        getattr(call.func.value, "id", None))
                            == "timers"):
                        continue
                    for argument in call.args + call.keywords:
                        for leaf in ast.walk(argument):
                            if isinstance(leaf, ast.Lambda) or (
                                    isinstance(leaf, ast.Name)
                                    and leaf.id in nested):
                                offenders.append(f"{path.name}:{call.lineno}")
        assert offenders == []
