"""The behavioural pins of the retired MSG test suite, expressed on s4u.

The MSG compatibility shim (and its ``tests/test_msg_*`` files) was removed
once every layer ran natively on s4u.  The scenarios below are the cases
from those files worth keeping: they pin simulation *physics* (transfer
dates, CPU sharing, rendezvous semantics, failure propagation, deadlock
detection) rather than shim plumbing, so they must keep passing no matter
which API spells them.
"""

import pytest

from repro import (
    DeadlockError,
    HostFailureError,
    SimTimeoutError,
    TransferFailureError,
)
from repro.platform import Platform
from repro.s4u import Engine
from repro.surf.trace import Trace


def pair_platform(speed=1e9, bandwidth=1e6, latency=0.0, traces=None):
    platform = Platform("pair")
    traces = traces or {}
    platform.add_host("alice", speed, state_trace=traces.get("alice"))
    platform.add_host("bob", speed, state_trace=traces.get("bob"))
    platform.add_link("wire", bandwidth, latency,
                      state_trace=traces.get("wire"))
    platform.connect("alice", "bob", "wire")
    return platform


class TestExecutionPhysics:
    def test_execute_duration_matches_speed(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor):
            yield actor.execute(2e9)
            times["done"] = actor.now

        engine.add_actor("worker", "alice", worker)
        engine.run()
        assert times["done"] == pytest.approx(2.0)

    def test_two_actors_share_the_host(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor, key):
            yield actor.execute(1e9)
            times[key] = actor.now

        engine.add_actor("w1", "alice", worker, "w1")
        engine.add_actor("w2", "alice", worker, "w2")
        engine.run()
        assert times["w1"] == pytest.approx(2.0)
        assert times["w2"] == pytest.approx(2.0)

    def test_actors_on_different_hosts_do_not_interfere(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor, key):
            yield actor.execute(1e9)
            times[key] = actor.now

        engine.add_actor("w1", "alice", worker, "w1")
        engine.add_actor("w2", "bob", worker, "w2")
        engine.run()
        assert times["w1"] == pytest.approx(1.0)
        assert times["w2"] == pytest.approx(1.0)

    def test_execution_priority(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def worker(actor, key, priority):
            yield actor.execute(1e9, priority=priority)
            times[key] = actor.now

        engine.add_actor("high", "alice", worker, "high", 3.0)
        engine.add_actor("low", "alice", worker, "low", 1.0)
        engine.run()
        assert times["high"] < times["low"]

    def test_kill_actor_blocked_on_execution_frees_the_cpu(self):
        engine = Engine(pair_platform(speed=1e9))
        times = {}

        def hog(actor):
            yield actor.execute(1e12)

        def other(actor):
            yield actor.execute(1e9)
            times["other"] = actor.now

        def killer(actor, target):
            yield actor.sleep_for(0.5)
            yield target.kill()

        hog_actor = engine.add_actor("hog", "alice", hog)
        engine.add_actor("other", "alice", other)
        engine.add_actor("killer", "alice", killer, hog_actor)
        engine.run()
        # the other actor had half the CPU for 0.5 s, then all of it
        assert times["other"] == pytest.approx(1.25)


class TestCommunicationPhysics:
    def test_transfer_time_includes_bandwidth_and_latency(self):
        engine = Engine(pair_platform(bandwidth=1e6, latency=0.5))
        times = {}

        def sender(actor):
            yield actor.engine.mailbox("box").put("data", size=2e6)
            times["sent"] = actor.now

        def receiver(actor):
            payload = yield actor.engine.mailbox("box").get()
            times["received"] = actor.now
            times["payload"] = payload

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert times["received"] == pytest.approx(2.5)
        assert times["sent"] == pytest.approx(2.5)   # rendezvous semantics
        assert times["payload"] == "data"

    def test_sender_blocks_until_receiver_arrives(self):
        engine = Engine(pair_platform(bandwidth=1e6))
        times = {}

        def sender(actor):
            yield actor.engine.mailbox("box").put("data", size=1e6)
            times["sent"] = actor.now

        def late_receiver(actor):
            yield actor.sleep_for(5.0)
            yield actor.engine.mailbox("box").get()
            times["received"] = actor.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", late_receiver)
        engine.run()
        assert times["sent"] == pytest.approx(6.0)
        assert times["received"] == pytest.approx(6.0)

    def test_two_flows_share_the_link(self):
        engine = Engine(pair_platform(bandwidth=1e6))
        times = {}

        def sender(actor, box):
            yield actor.engine.mailbox(box).put("d", size=1e6)

        def receiver(actor, box, key):
            yield actor.engine.mailbox(box).get()
            times[key] = actor.now

        engine.add_actor("s1", "alice", sender, "box1")
        engine.add_actor("s2", "alice", sender, "box2")
        engine.add_actor("r1", "bob", receiver, "box1", "r1")
        engine.add_actor("r2", "bob", receiver, "box2", "r2")
        engine.run()
        # each flow gets half the link: 2 s instead of 1 s
        assert times["r1"] == pytest.approx(2.0)
        assert times["r2"] == pytest.approx(2.0)

    def test_fifo_matching_on_one_mailbox(self):
        engine = Engine(pair_platform())
        order = []

        def sender(actor):
            yield actor.engine.mailbox("box").put("first", size=1.0)
            yield actor.engine.mailbox("box").put("second", size=1.0)

        def receiver(actor):
            order.append((yield actor.engine.mailbox("box").get()))
            order.append((yield actor.engine.mailbox("box").get()))

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert order == ["first", "second"]

    def test_rate_limited_put(self):
        engine = Engine(pair_platform(bandwidth=1e7))
        times = {}

        def sender(actor):
            yield actor.engine.mailbox("box").put("d", size=1e6, rate=1e5)

        def receiver(actor):
            yield actor.engine.mailbox("box").get()
            times["done"] = actor.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert times["done"] == pytest.approx(10.0)

    def test_detached_put_is_fire_and_forget(self):
        engine = Engine(pair_platform())
        times = {}

        def sender(actor):
            yield actor.engine.mailbox("box").put_async("d", size=1e6,
                                                        detached=True)
            times["sender_returned"] = actor.now

        def receiver(actor):
            yield actor.engine.mailbox("box").get()
            times["received"] = actor.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert times["sender_returned"] == pytest.approx(0.0)
        assert times["received"] == pytest.approx(1.0)


class TestPaperListing:
    def test_paper_client_server_exchange(self):
        """The paper's quickstart timings on a deterministic platform."""
        MFLOP, MBYTE = 1e6, 1e6
        platform = Platform("paper")
        platform.add_host("client-host", 1e8)
        platform.add_host("server-host", 1e8)
        platform.add_link("lan", 1.25e6, 1e-3)
        platform.connect("client-host", "server-host", "lan")
        engine = Engine(platform)
        times = {}

        def client(actor):
            yield actor.engine.mailbox("server:22").put(
                ("Remote", 30.0 * MFLOP), size=3.2 * MBYTE)
            yield actor.execute(10.50 * MFLOP)
            ack_size = yield actor.engine.mailbox("client:23").get()
            times["client_done"] = actor.now
            times["ack_size"] = ack_size

        def server(actor):
            _, flops = yield actor.engine.mailbox("server:22").get()
            yield actor.execute(flops)
            yield actor.engine.mailbox("client:23").put(
                0.01 * MBYTE, size=0.01 * MBYTE)
            times["server_done"] = actor.now

        engine.add_actor("client", "client-host", client)
        engine.add_actor("server", "server-host", server)
        engine.run()
        # transfer: 3.2 MB at 1.25 MB/s + 1 ms = 2.561 s
        transfer = 3.2 * MBYTE / 1.25e6 + 1e-3
        # server computes 30 MFlop at 100 MFlop/s = 0.3 s, ack is 10 KB
        ack_time = 0.01 * MBYTE / 1.25e6 + 1e-3
        assert times["server_done"] == pytest.approx(
            transfer + 0.3 + ack_time, rel=1e-6)
        assert times["client_done"] == pytest.approx(times["server_done"])
        assert times["ack_size"] == pytest.approx(0.01 * MBYTE)


class TestLifecycle:
    def test_actor_created_dynamically_by_another_actor(self):
        engine = Engine(pair_platform())
        log = []

        def child(actor, tag):
            yield actor.execute(1e9)
            log.append((tag, actor.now))

        def parent(actor):
            yield actor.sleep_for(1.0)
            actor.engine.add_actor("child", "alice", child, "spawned")
            yield actor.sleep_for(0.1)

        engine.add_actor("parent", "alice", parent)
        engine.run()
        assert log == [("spawned", pytest.approx(2.0))]

    def test_daemons_die_with_the_last_regular_actor(self):
        engine = Engine(pair_platform())
        log = []

        def daemon(actor):
            while True:
                yield actor.sleep_for(1.0)
                log.append(actor.now)

        def main(actor):
            yield actor.sleep_for(3.5)

        engine.add_actor("daemon", "alice", daemon, daemon=True)
        engine.add_actor("main", "alice", main)
        final = engine.run()
        assert final == pytest.approx(3.5)
        assert log == [1.0, 2.0, 3.0]

    def test_run_until_stops_at_bound(self):
        engine = Engine(pair_platform(speed=1e6))

        def worker(actor):
            yield actor.execute(1e9)   # would take 1000 s

        engine.add_actor("w", "alice", worker)
        final = engine.run(until=10.0)
        assert final == pytest.approx(10.0)
        assert engine.actor_count() == 1   # still alive, simply not finished


    def test_thread_context_factory(self):
        """The same rendezvous scenario runs under the thread contexts."""
        engine = Engine(pair_platform(), context_factory="thread")
        times = {}

        def sender(actor):
            actor.engine.mailbox("box").put("d", size=1e6)

        def receiver(actor):
            payload = actor.engine.mailbox("box").get()
            times["got"] = (payload, actor.now)

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert times["got"][0] == "d"
        assert times["got"][1] == pytest.approx(1.0)


class TestTimeouts:
    def test_receive_timeout_raises(self):
        engine = Engine(pair_platform())
        outcome = {}

        def lonely(actor):
            try:
                yield actor.engine.mailbox("nowhere").get(timeout=3.0)
            except SimTimeoutError:
                outcome["timeout_at"] = actor.now

        engine.add_actor("lonely", "alice", lonely)
        engine.run()
        assert outcome["timeout_at"] == pytest.approx(3.0)

    def test_send_timeout_raises(self):
        engine = Engine(pair_platform())
        outcome = {}

        def impatient(actor):
            try:
                yield actor.engine.mailbox("void").put("d", size=1e6,
                                                       timeout=2.0)
            except SimTimeoutError:
                outcome["timeout_at"] = actor.now

        engine.add_actor("impatient", "alice", impatient)
        engine.run()
        assert outcome["timeout_at"] == pytest.approx(2.0)

    def test_started_transfer_timeout_fails_the_peer(self):
        # A very slow transfer: the receiver times out mid-transfer and the
        # sender observes a transfer failure.
        engine = Engine(pair_platform(bandwidth=1e3))
        outcome = {}

        def sender(actor):
            try:
                yield actor.engine.mailbox("box").put("huge", size=1e9)
            except TransferFailureError:
                outcome["sender"] = ("failed", actor.now)

        def receiver(actor):
            try:
                yield actor.engine.mailbox("box").get(timeout=10.0)
            except SimTimeoutError:
                outcome["receiver"] = ("timeout", actor.now)

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert outcome["receiver"] == ("timeout", pytest.approx(10.0))
        assert outcome["sender"][0] == "failed"


class TestFailures:
    def test_host_failure_kills_its_actors(self):
        trace = Trace([(5.0, 0.0)], name="alice-death")
        engine = Engine(pair_platform(traces={"alice": trace}))
        log = []

        def worker(actor):
            try:
                yield actor.execute(1e12)
                log.append("finished")
            finally:
                log.append(("interrupted", actor.now))

        engine.add_actor("worker", "alice", worker)
        engine.run()
        assert ("interrupted", pytest.approx(5.0)) in log
        assert "finished" not in log

    def test_transfer_fails_when_peer_host_dies(self):
        trace = Trace([(2.0, 0.0)], name="bob-death")
        engine = Engine(pair_platform(bandwidth=1e5,
                                      traces={"bob": trace}))
        outcome = {}

        def sender(actor):
            try:
                yield actor.engine.mailbox("box").put("d", size=1e7)
            except TransferFailureError:
                outcome["sender"] = ("transfer-failure", actor.now)

        def receiver(actor):
            yield actor.engine.mailbox("box").get()

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert outcome["sender"] == ("transfer-failure", pytest.approx(2.0))

    def test_link_failure_fails_the_transfer(self):
        trace = Trace([(1.0, 0.0)], name="wire-death")
        engine = Engine(pair_platform(bandwidth=1e5,
                                      traces={"wire": trace}))
        outcome = {}

        def sender(actor):
            try:
                yield actor.engine.mailbox("box").put("d", size=1e7)
            except TransferFailureError:
                outcome["sender_failed_at"] = actor.now

        def receiver(actor):
            try:
                yield actor.engine.mailbox("box").get()
            except TransferFailureError:
                outcome["receiver_failed_at"] = actor.now

        engine.add_actor("s", "alice", sender)
        engine.add_actor("r", "bob", receiver)
        engine.run()
        assert outcome["sender_failed_at"] == pytest.approx(1.0)
        assert outcome["receiver_failed_at"] == pytest.approx(1.0)

    def test_execute_on_dead_host_raises_host_failure(self):
        engine = Engine(pair_platform())
        outcome = {}

        def worker(actor):
            yield actor.sleep_for(1.0)
            try:
                yield actor.execute(1e9, host=actor.engine.host("bob"))
            except HostFailureError:
                outcome["refused"] = True

        def saboteur(actor):
            yield actor.sleep_for(0.5)
            actor.engine.host("bob").turn_off()

        engine.add_actor("worker", "alice", worker)
        engine.add_actor("saboteur", "alice", saboteur)
        engine.run()
        assert outcome.get("refused") is True


class TestDeadlock:
    def test_deadlock_detected_and_simulation_ends(self):
        engine = Engine(pair_platform())

        def waiter(actor):
            yield actor.engine.mailbox("never").get()

        engine.add_actor("waiter", "alice", waiter)
        engine.run()
        assert engine.deadlocked

    def test_deadlock_raises_when_requested(self):
        engine = Engine(pair_platform(), raise_on_deadlock=True)

        def waiter(actor):
            yield actor.engine.mailbox("never").get()

        engine.add_actor("waiter", "alice", waiter)
        with pytest.raises(DeadlockError):
            engine.run()

    def test_no_deadlock_flag_on_clean_termination(self):
        engine = Engine(pair_platform())

        def quick(actor):
            yield actor.sleep_for(1.0)

        engine.add_actor("quick", "alice", quick)
        engine.run()
        assert not engine.deadlocked
