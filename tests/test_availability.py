"""Availability modulation end-to-end: traces, runtime speed, observers.

The paper's SURF panel lists *trace-based simulation of performance
variations due to external load* — CPU availability and network bandwidth
scaled by a trace while the simulation runs.  These tests pin the
hand-computed dates for activities spanning an availability dip, exercise
the runtime ``Host.set_speed`` / ``Link.set_bandwidth`` write path, check
the ``"speed"`` events of ``Engine.observe``, prove the selective solve
only re-solves the LMM component containing the modulated resource, and
check that the runtime setters reject non-finite values in the caller.
"""

import math

import pytest

from repro.platform import Platform, make_star
from repro.s4u import Engine, this_actor
from repro.surf.engine import SurfEngine
from repro.surf.trace import Trace
from test_state_path import CONTEXTS, _World


def dip_platform(cores=1, host_trace=None, link_trace=None):
    """Two hosts joined by one link; optional traces on host "a" / the link."""
    platform = Platform("dip")
    platform.add_host("a", 1e9, cores=cores, availability_trace=host_trace)
    platform.add_host("b", 1e9)
    platform.add_link("wire", 1e6, latency=0.0, bandwidth_trace=link_trace)
    platform.connect("a", "b", "wire")
    return platform


class TestTraceDrivenDates:
    def test_exec_spans_availability_dip(self):
        # 2 s at 1e9 flop/s (2e9 done), dip to 0.5 -> 1e9 left at 5e8.
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="load")
        engine = Engine(dip_platform(host_trace=trace))
        times = {}

        def worker(actor):
            yield actor.execute(3e9)
            times["done"] = actor.now

        engine.add_actor("w", "a", worker)
        engine.run()
        assert times["done"] == pytest.approx(4.0)

    def test_comm_spans_bandwidth_dip(self):
        # 2 s at 1e6 B/s (2e6 sent), dip to 0.5 -> 1e6 left at 5e5.
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="bw")
        engine = Engine(dip_platform(link_trace=trace))
        times = {}

        def sender(actor):
            yield engine.mailbox("box").put("payload", size=3e6)

        def receiver(actor):
            yield engine.mailbox("box").get()
            times["received"] = actor.now

        engine.add_actor("s", "a", sender)
        engine.add_actor("r", "b", receiver)
        engine.run()
        assert times["received"] == pytest.approx(4.0)

    def test_trace_dip_fires_speed_observer(self):
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="load")
        engine = Engine(dip_platform(host_trace=trace))
        host = engine.host("a")
        seen = []
        engine.observe(lambda date, kind, subject, value: kind == "speed"
                       and seen.append((subject.name, value, date)))

        def worker(actor):
            yield actor.execute(3e9)

        engine.add_actor("w", "a", worker)
        engine.run()
        # The t=0 event is a no-op value-wise but still an observed change.
        assert ("a", 5e8, 2.0) in seen
        assert host.available_speed == 5e8

    def test_bandwidth_trace_fires_speed_observer_with_link(self):
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="bw")
        engine = Engine(dip_platform(link_trace=trace))
        seen = []
        engine.observe(lambda date, kind, subject, value: kind == "speed"
                       and seen.append((subject.name, value)))

        def sender(actor):
            yield engine.mailbox("box").put("x", size=3e6)

        def receiver(actor):
            yield engine.mailbox("box").get()

        engine.add_actor("s", "a", sender)
        engine.add_actor("r", "b", receiver)
        engine.run()
        assert ("wire", 5e5) in seen


class TestRuntimeSpeedChange:
    def test_set_speed_reshapes_running_exec(self):
        engine = Engine(dip_platform())
        host = engine.host("a")
        times = {}

        def worker(actor):
            yield actor.execute(4e9)
            times["done"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            host.set_speed(5e8)     # 2e9 done, 2e9 left at 5e8 -> +4 s

        engine.add_actor("w", "a", worker)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["done"] == pytest.approx(6.0)
        assert host.speed == 5e8

    def test_set_speed_fires_observer_with_host(self):
        engine = Engine(dip_platform())
        host = engine.host("a")
        seen = []
        engine.observe(lambda date, kind, subject, value: kind == "speed"
                       and seen.append((subject, value)))

        def admin(actor):
            yield this_actor.sleep_for(1.0)
            host.set_speed(2e9)

        engine.add_actor("admin", "b", admin)
        engine.run()
        assert seen == [(host, 2e9)]

    def test_set_speed_composes_with_availability_trace(self):
        # The trace keeps scaling the *new* peak: after set_speed(2e9)
        # under availability 0.5 the effective speed is 1e9.
        trace = Trace([(0.0, 0.5)], name="half")
        engine = Engine(dip_platform(host_trace=trace))
        host = engine.host("a")
        times = {}

        def worker(actor):
            yield actor.execute(2e9)
            times["done"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            host.set_speed(2e9)     # 1e9 done at 5e8, 1e9 left at 1e9

        engine.add_actor("w", "a", worker)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["done"] == pytest.approx(3.0)
        assert host.available_speed == pytest.approx(1e9)

    def test_set_link_bandwidth_reshapes_running_comm(self):
        engine = Engine(dip_platform())
        link = engine.link_by_name("wire")
        times = {}
        seen = []
        engine.observe(lambda date, kind, subject, value: kind == "speed"
                       and seen.append((subject, value)))

        def sender(actor):
            yield engine.mailbox("box").put("x", size=4e6)

        def receiver(actor):
            yield engine.mailbox("box").get()
            times["received"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            link.set_bandwidth(5e5)     # 2e6 sent, 2e6 left at 5e5

        engine.add_actor("s", "a", sender)
        engine.add_actor("r", "b", receiver)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["received"] == pytest.approx(6.0)
        assert seen == [(link, 5e5)]

    def test_set_speed_rejects_nonpositive(self):
        engine = Engine(dip_platform())
        with pytest.raises(ValueError):
            engine.host("a").set_speed(0.0)


class TestMulticoreBoundResync:
    def test_single_exec_tracks_core_speed_through_dip(self):
        # cores=2: the constraint allows 2e9 flop/s but one exec is capped
        # at a single core.  When availability halves, the per-exec bound
        # must follow the *current* core speed (5e8), not the peak — with
        # a stale bound the lone exec would finish at t=4 instead of t=6.
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="load")
        engine = Engine(dip_platform(cores=2, host_trace=trace))
        times = {}

        def worker(actor):
            yield actor.execute(4e9)
            times["done"] = actor.now

        engine.add_actor("w", "a", worker)
        engine.run()
        assert times["done"] == pytest.approx(6.0)

    def test_set_speed_resyncs_multicore_bounds(self):
        engine = Engine(dip_platform(cores=2))
        host = engine.host("a")
        times = {}

        def worker(actor):
            yield actor.execute(4e9)
            times["done"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            host.set_speed(5e8)

        engine.add_actor("w", "a", worker)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["done"] == pytest.approx(6.0)

    def test_user_bound_survives_dip_and_recovery(self):
        # A caller cap below the dipped core speed stays in force when the
        # core recovers: merged bound = min(user_bound, core_speed).
        trace = Trace([(0.0, 0.5), (2.0, 1.0)], name="recover")
        engine = Engine(dip_platform(cores=2, host_trace=trace))
        times = {}

        def worker(actor):
            # capped at 2.5e8 flop/s by the caller, below both 5e8 and 1e9
            yield actor.execute(1e9, bound=2.5e8)
            times["done"] = actor.now

        engine.add_actor("w", "a", worker)
        engine.run()
        assert times["done"] == pytest.approx(4.0)


class TestSelectiveResolve:
    def test_dip_resolves_only_affected_component(self):
        # Two CPUs with no shared constraint are separate LMM components;
        # an availability event on one must re-solve exactly that one.
        trace = Trace([(1.0, 0.5)], name="load")
        surf = SurfEngine()
        cpu_a = surf.cpu_model.add_cpu("a", speed=1e9,
                                       availability_trace=trace)
        cpu_b = surf.cpu_model.add_cpu("b", speed=1e9)
        surf.register_resource_traces(cpu_a)
        surf.cpu_model.execute(cpu_a, 1e10)
        surf.cpu_model.execute(cpu_b, 1e10)

        result = surf.step()            # initial solve, trace fires at t=1
        assert result.time == pytest.approx(1.0)
        assert result.speed_changes == [(cpu_a, 0.5)]
        before = dict(surf.cpu_model.solver_stats())

        result = surf.step()            # re-share: only cpu_a is dirty
        assert result.time == pytest.approx(10.0)   # b finishes undisturbed
        after = surf.cpu_model.solver_stats()
        assert after["constraints_solved"] - before["constraints_solved"] == 1
        assert after["variables_solved"] - before["variables_solved"] == 1

        while surf.step() is not None:
            pass
        assert surf.clock == pytest.approx(19.0)    # a: 1 + 9e9/5e8


# -- runtime setters reject non-finite values ----------------------------------

#: The runtime setters, by the argument each one checks.
SETTERS = {
    "speed": lambda engine, value: engine.host("leaf-0").set_speed(
        value),
    "bandwidth": lambda engine, value: engine.link_by_name(
        "leaf-link-0").set_bandwidth(value),
    "latency": lambda engine, value: engine.link_by_name(
        "leaf-link-1").set_latency(value),
}


def _send(world, actor, box, size):
    yield world.engine.mailbox(box).put(box, size=size)


def _receive(world, actor, box):
    yield world.engine.mailbox(box).get()
    world.note("received", box)


def _compute(world, actor):
    yield actor.execute(1e9)
    world.note("computed")


def _admin(world, actor, setter, value):
    yield actor.sleep_for(0.1)
    if setter is not None:
        try:
            setter(world.engine, value)
        except ValueError as exc:
            world.note("rejected", str(exc))
    yield from _send(world, actor, "late", 1e6)


def _setter_world(context, setter=None, value=None):
    """Star with two leaves: 10 MB from leaf-0 to leaf-1 and a 1 Gflop
    exec on leaf-0 from t=0; at t=0.1, with both in flight, the centre
    calls ``setter(engine, value)``, then sends 1 MB to leaf-1.  Returns
    the world after run()."""
    world = _World(context, make_star(num_hosts=2))
    world.spawn("send", "leaf-0", _send, "early", 1e7)
    world.spawn("receive", "leaf-1", _receive, "early")
    world.spawn("compute", "leaf-0", _compute)
    world.spawn("admin", "center", _admin, setter, value)
    world.spawn("receive-late", "leaf-1", _receive, "late")
    world.note("run returned", world.engine.run())
    return world


class TestSettersRejectNonFinite:
    """NaN and infinities used to reach the solver: a NaN bandwidth or
    speed starved the running transfer or exec (``run()`` returned with
    it undelivered) and a NaN latency moved a later transfer's date."""

    #: What the world of ``_setter_world`` logs without a setter call.
    CLEAN_LOG = [("received", "late", 0.265), ("received", "early", 0.89),
                 ("computed", 1.0), ("run returned", 1.0, 1.0)]

    def test_clean_world(self):
        assert _setter_world("generator").log == self.CLEAN_LOG

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("argument", sorted(SETTERS))
    def test_rejected_in_the_caller_and_nothing_moves(self, argument, value,
                                                      context):
        world = _setter_world(context, SETTERS[argument], value)
        (_, message, date), *rest = [entry for entry in world.log
                                         if entry[0] == "rejected"]
        assert rest == [] and date == 0.1
        assert f": {argument} must be finite" in message
        assert [entry for entry in world.log if entry[0] != "rejected"] \
            == self.CLEAN_LOG

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_resource_peak_capacity(self, value):
        surf = SurfEngine()
        cpu = surf.cpu_model.add_cpu("h", speed=1e9)
        with pytest.raises(ValueError, match="capacity must be finite"):
            cpu.set_peak_capacity(value)
        assert cpu.peak_capacity == 1e9
