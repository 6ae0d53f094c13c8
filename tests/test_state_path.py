"""One way a resource goes down or up.

A state trace declared on the platform, ``turn_off()`` / ``turn_on()``
called from a timer, from an actor on another host or from an actor on
the failing host itself, and a ``FailureInjector`` pulse all reach
``SurfEngine.set_state`` and the engine's one state handler
(``Engine._set_state``).  Whichever drives the flip, every observer —
waiters on the dead host's activities, comm peers, joiners, ``on_exit``
hooks, auto-restart reboots and the state listeners — sees one outcome,
in one order, on both context factories and both kernels.
"""

import ast
import pathlib
import threading
from functools import partial

import pytest

import repro
from repro.exceptions import ProcessKilledError, SimGridError
from repro.platform.platform import Platform
from repro.s4u import Engine, FailureInjector
from repro.surf.trace import Trace

from pump import actor_body

CONTEXTS = ["generator", "thread"]
#: Host Y and link xz go down and come back at these dates.
HOST_DOWN, HOST_UP = 1.0, 2.0
LINK_DOWN, LINK_UP = 0.5, 0.75


def _triangle(host_trace=None, link_trace=None):
    platform = Platform("triangle")
    platform.add_host("X", 1e9)
    platform.add_host("Y", 1e9, state_trace=host_trace)
    platform.add_host("Z", 1e9)
    platform.add_link("xy", 1e6, 1e-3)
    platform.add_link("yz", 1e6, 1e-3)
    platform.add_link("xz", 1e6, 1e-3, state_trace=link_trace)
    platform.connect("X", "Y", "xy")
    platform.connect("Y", "Z", "yz")
    platform.connect("X", "Z", "xz")
    return platform


def _run_bounded(engine, seconds=10.0):
    """``engine.run()`` from a thread this test can give up on: a wedged
    thread-context handshake is a C-level wait no watchdog interrupts."""
    finals, errors = [], []

    def target():
        try:
            finals.append(engine.run())
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), "the simulation wedged"
    assert errors == []
    return finals[0]


class _World:
    """One engine and the chronological log of what its observers saw."""

    def __init__(self, context, platform, sharded=False):
        self.context = context
        self.engine = Engine(platform, context_factory=context,
                             sharded=sharded)
        self.log = []
        self.handles = {}
        self.engine.on_host_state_change(
            lambda host, is_on: self.note("host", host.name, is_on))
        self.engine.on_link_state_change(
            lambda link, is_on: self.note("link", link.name, is_on))

    def note(self, *what):
        self.log.append((*what, self.engine.now))

    def spawn(self, name, host, body, *args, **kwargs):
        """Bodies are generators over (world, actor, ...), pumped under a
        thread context (see :mod:`pump`)."""
        return self.engine.add_actor(
            name, host,
            actor_body(self.context,
                       lambda actor: body(self, actor, *args)),
            **kwargs)


# -- observers --------------------------------------------------------------------

def _worker(world, actor):
    """On Y: one exec and one transfer in flight, blocked on the exec."""
    if "exec" in world.handles:
        world.note("worker rebooted")
        return
    actor.on_exit(lambda failed: world.note("worker on_exit", failed))
    world.handles["exec"] = yield actor.exec_async(1e10)
    world.handles["comm"] = yield world.engine.mailbox("yx").put_async(
        "data", size=1e8)
    yield world.handles["exec"].wait()
    world.note("worker finished")   # never: the host dies first


def _expect_failure(world, actor, who, blocking_call):
    try:
        yield blocking_call()
    except SimGridError as exc:
        world.note(who, type(exc).__name__)
    else:
        world.note(who, "ok")


def _receiver(world, actor, box, who):
    yield from _expect_failure(world, actor, who,
                               world.engine.mailbox(box).get)


def _sender(world, actor, box, who):
    yield from _expect_failure(
        world, actor, who,
        lambda: world.engine.mailbox(box).put("link data", size=1e8))


def _watcher(world, actor):
    """On Z: waits on the worker's exec, then on its transfer."""
    yield actor.sleep_for(0.1)
    for kind in ("exec", "comm"):
        yield from _expect_failure(world, actor, f"watcher {kind}",
                                   world.handles[kind].wait)


def _joiner(world, actor, target):
    yield from _expect_failure(world, actor, "joiner", target.join)


def _clock(world, actor):
    yield actor.sleep_for(3.0)


# -- drivers --------------------------------------------------------------------

def _remote_controller(world, actor):
    """On X: flips the link, then host Y, from another host."""
    engine = world.engine
    link, host = engine.link_by_name("xz"), engine.host("Y")
    yield actor.sleep_for(LINK_DOWN - actor.now)
    link.turn_off()
    yield actor.sleep_for(LINK_UP - actor.now)
    link.turn_on()
    yield actor.sleep_for(HOST_DOWN - actor.now)
    host.turn_off()
    yield actor.sleep_for(HOST_UP - actor.now)
    host.turn_on()


def _own_host_controller(world, actor):
    """On Y: flips the link, then turns off the host it runs on (a timer
    brings it back — nobody is left on Y to do it)."""
    link = world.engine.link_by_name("xz")
    yield actor.sleep_for(LINK_DOWN - actor.now)
    link.turn_off()
    yield actor.sleep_for(LINK_UP - actor.now)
    link.turn_on()
    yield actor.sleep_for(HOST_DOWN - actor.now)
    actor.host.turn_off()
    world.note("turn_off returned")   # never: the caller died in it


def _schedule(engine, flips):
    for date, callback in flips:
        engine.timers.schedule(date, callback)


def _build(driver, context, sharded=False):
    """A world whose host Y and link xz flip at the pinned dates through
    ``driver``, with every observer in place."""
    traced = driver == "state trace"
    platform = _triangle(
        host_trace=Trace([(HOST_DOWN, 0.0), (HOST_UP, 1.0)], name="Y")
        if traced else None,
        link_trace=Trace([(LINK_DOWN, 0.0), (LINK_UP, 1.0)], name="xz")
        if traced else None)
    world = _World(context, platform, sharded=sharded)
    engine = world.engine
    host, link = engine.host("Y"), engine.link_by_name("xz")

    worker = world.spawn("worker", "Y", _worker, auto_restart=True)
    world.spawn("receiver", "X", _receiver, "yx", "receiver")
    world.spawn("link sender", "X", _sender, "xz", "link sender")
    world.spawn("link receiver", "Z", _receiver, "xz", "link receiver")
    world.spawn("watcher", "Z", _watcher)
    world.spawn("joiner", "Z", _joiner, worker)
    world.spawn("clock", "X", _clock)

    if driver == "timer":
        _schedule(engine, [(LINK_DOWN, link.turn_off), (LINK_UP, link.turn_on),
                           (HOST_DOWN, host.turn_off), (HOST_UP, host.turn_on)])
    elif driver == "actor on another host":
        world.spawn("controller", "X", _remote_controller)
    elif driver == "actor on the host itself":
        world.spawn("controller", "Y", _own_host_controller)
        _schedule(engine, [(HOST_UP, host.turn_on)])
    elif driver == "injector pulse":
        injector = world.injector = FailureInjector(engine, max_failures=0)
        _schedule(engine, [
            (LINK_DOWN, partial(injector._apply_off, link)),
            (LINK_UP, partial(injector._apply_on, link)),
            (HOST_DOWN, partial(injector._apply_off, host)),
            (HOST_UP, partial(injector._apply_on, host))])
    else:
        assert traced, driver
    return world


DRIVERS = ["state trace", "timer", "actor on another host",
           "actor on the host itself", "injector pulse"]

#: What every driver must produce: the failed activities' waiters first
#: (their activities fail before anything else), the kills and their
#: ``on_exit`` hooks next, the listeners last, then the woken actors in
#: wake order.
EXPECTED = [
    ("link", "xz", False, LINK_DOWN),
    ("link sender", "TransferFailureError", LINK_DOWN),
    ("link receiver", "TransferFailureError", LINK_DOWN),
    ("link", "xz", True, LINK_UP),
    ("worker on_exit", True, HOST_DOWN),
    ("host", "Y", False, HOST_DOWN),
    ("watcher exec", "HostFailureError", HOST_DOWN),
    ("receiver", "TransferFailureError", HOST_DOWN),
    ("joiner", "ok", HOST_DOWN),
    ("watcher comm", "TransferFailureError", HOST_DOWN),
    ("host", "Y", True, HOST_UP),
    ("worker rebooted", HOST_UP),
]


class TestTraceAndTurnOffAgree:
    """The regression: a state trace used to kill the dead host's actors
    before failing its activities, so a waiter on another host got
    ``CancelledError`` where an explicit ``turn_off()`` at the same date
    gave ``HostFailureError``, and the comm peer woke in another order."""

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_same_outcome_and_wake_order(self, context):
        logs = {}
        for driver in ("state trace", "timer"):
            world = _build(driver, context)
            assert _run_bounded(world.engine) == 3.0
            logs[driver] = [entry for entry in world.log
                            if entry[-1] == HOST_DOWN]
        assert logs["state trace"] == logs["timer"]
        assert ("watcher exec", "HostFailureError", HOST_DOWN) in logs["timer"]


class TestEveryDriverOneOutcome:
    """The behaviour table: five drivers × both context factories × both
    kernels, one outcome list."""

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["flat", "sharded"])
    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_outcome_list(self, driver, context, sharded):
        world = _build(driver, context, sharded=sharded)
        engine = world.engine
        assert _run_bounded(engine) == 3.0
        assert world.log == EXPECTED
        assert engine.restart_count == 1
        assert not engine.deadlocked and engine.actor_count() == 0
        assert not engine._active_comms and not engine._pending_restarts
        if driver == "injector pulse":
            assert world.injector.events == [
                (LINK_DOWN, "xz", False), (LINK_UP, "xz", True),
                (HOST_DOWN, "Y", False), (HOST_UP, "Y", True)]


class TestTurningOffOwnHost:
    """An actor calling ``actor.host.turn_off()`` dies like a killed
    actor.  Its ``on_exit`` fires where any actor of the host would see
    its own (before the listeners); its ``finally`` blocks run when the
    call unwinds, right after the flip is complete."""

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_the_caller_dies_and_reboots(self, context):
        world = _World(context, _triangle())
        engine = world.engine
        host = engine.host("Y")

        def suicidal(world, actor):
            if world.handles.get("booted"):
                world.note("rebooted")
                return
            world.handles["booted"] = True
            actor.on_exit(lambda failed: world.note("on_exit", failed))
            try:
                yield actor.sleep_for(HOST_DOWN)
                actor.host.turn_off()
                world.note("turn_off returned")
            except ProcessKilledError:
                world.note("killed")
                raise
            finally:
                world.note("finally")

        def neighbour(world, actor):
            try:
                yield actor.sleep_for(10.0)
            finally:
                world.note("neighbour finally")

        caller = world.spawn("suicidal", "Y", suicidal, auto_restart=True)
        world.spawn("neighbour", "Y", neighbour).on_exit(
            lambda failed: world.note("neighbour on_exit", failed))
        world.spawn("joiner", "X", _joiner, caller)
        world.spawn("clock", "X", _clock)
        engine.timers.schedule(HOST_UP, host.turn_on)

        assert _run_bounded(engine) == 3.0
        assert world.log == [
            ("on_exit", True, HOST_DOWN),
            ("neighbour finally", HOST_DOWN),
            ("neighbour on_exit", True, HOST_DOWN),
            ("host", "Y", False, HOST_DOWN),
            ("killed", HOST_DOWN),
            ("finally", HOST_DOWN),
            ("joiner", "ok", HOST_DOWN),
            ("host", "Y", True, HOST_UP),
            ("rebooted", HOST_UP),
        ]
        assert caller.exit_status is None
        assert engine.restart_count == 1 and engine.actor_count() == 0


# -- hooks a turn-off fires ------------------------------------------------------

def _sleeper(world, actor):
    yield actor.sleep_for(100.0)


def _idle(world, actor, seconds):
    yield actor.sleep_for(seconds)


def _turn_off_then_idle(world, actor, resource):
    yield actor.sleep_for(HOST_DOWN)
    resource.turn_off()
    yield actor.sleep_for(HOST_DOWN)


def _bystander_sleeps(world, actor):
    yield actor.sleep_for(50.0)
    world.note("bystander woke")


def _bystander_computes(world, actor):
    yield actor.execute(2e9)
    world.note("bystander computed")


def _bystander_waits_for_resume(world, actor):
    yield actor.suspend()
    world.note("bystander resumed")


#: Per operation: the bystander's body, and what the hook's call leaves
#: in the log when it takes effect at the turn-off date, with the date
#: run() returns (the suspended bystander is resumed by a timer at 3 s).
HOOKED_OPERATIONS = {
    "kill": (_bystander_sleeps,
             ("bystander on_exit", True, HOST_DOWN), 2 * HOST_DOWN),
    "suspend": (_bystander_computes, ("bystander computed", 4.0), 4.0),
    "resume": (_bystander_waits_for_resume,
               ("bystander resumed", HOST_DOWN), 2 * HOST_DOWN),
}


class TestHooksDuringATurnOff:
    """``kill()``, ``suspend()`` and ``resume()`` called from a hook that a
    turn-off fires — the ``on_exit`` of an actor the host took down, a
    host or a link state listener — act at once in kernel context, the
    same whether a timer or an actor's own ``turn_off()`` flipped the
    resource.  Hooks fired inside an actor's turn once took the call for
    a request of that actor: under generator contexts it was dropped."""

    @staticmethod
    def _run(operation, hook, context, driver):
        world = _World(context, _triangle())
        engine = world.engine
        resource = (engine.link_by_name("xz") if hook == "link listener"
                    else engine.host("Y"))
        body = HOOKED_OPERATIONS[operation][0]
        bystander = world.spawn("bystander", "Z", body)
        bystander.on_exit(
            lambda failed: world.note("bystander on_exit", failed))

        def act():
            getattr(bystander, operation)()

        if hook == "on_exit":
            world.spawn("victim", "Y", _sleeper).on_exit(
                lambda failed: act())
        elif hook == "host listener":
            engine.on_host_state_change(
                lambda host, is_on: None if is_on else act())
        else:
            engine.on_link_state_change(
                lambda link, is_on: None if is_on else act())
        if operation == "suspend":
            engine.timers.schedule(3.0, bystander.resume)
        if driver == "timer":
            engine.timers.schedule(HOST_DOWN, resource.turn_off)
            world.spawn("flipper", "X", _idle, 2 * HOST_DOWN)
        else:
            world.spawn("flipper", "X", _turn_off_then_idle, resource)
        return _run_bounded(engine), world.log

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize("hook",
                             ["on_exit", "host listener", "link listener"])
    @pytest.mark.parametrize("operation", sorted(HOOKED_OPERATIONS))
    def test_same_outcome_as_a_timer_turn_off(self, operation, hook,
                                              context):
        _, effect, final = HOOKED_OPERATIONS[operation]
        by_timer = self._run(operation, hook, context, "timer")
        assert by_timer[0] == final and effect in by_timer[1]
        assert self._run(operation, hook, context, "actor") == by_timer

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize("hook", ["host listener", "link listener"])
    def test_a_hook_killing_the_flipper_ends_its_call(self, hook, context):
        """The actor whose ``turn_off()`` fired the hook dies like one
        that turned off its own host: the call raises
        ``ProcessKilledError`` once the flip is complete."""
        world = _World(context, _triangle())
        engine = world.engine
        resource = (engine.link_by_name("xz") if hook == "link listener"
                    else engine.host("Y"))

        def flipper(world, actor):
            try:
                yield actor.sleep_for(HOST_DOWN)
                resource.turn_off()
                world.note("turn_off returned")
            except ProcessKilledError:
                world.note("killed")
                raise
            finally:
                world.note("finally")

        victim = world.spawn("flipper", "X", flipper)
        victim.on_exit(lambda failed: world.note("flipper on_exit", failed))
        register = (engine.on_link_state_change if hook == "link listener"
                    else engine.on_host_state_change)
        register(lambda flipped, is_on: victim.kill())
        assert _run_bounded(engine) == HOST_DOWN
        assert world.log[-3:] == [("flipper on_exit", True, HOST_DOWN),
                                  ("killed", HOST_DOWN),
                                  ("finally", HOST_DOWN)]
        assert victim.exit_status is None and engine.actor_count() == 0

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_a_hook_turning_off_the_flippers_host(self, context):
        """A link listener that turns off the host of the actor whose
        ``turn_off()`` fired it: the nested flip kills that actor like
        any other on the host, and the outer call raises."""
        world = _World(context, _triangle())
        engine = world.engine

        def flipper(world, actor):
            try:
                yield actor.sleep_for(HOST_DOWN)
                engine.link_by_name("xz").turn_off()
                world.note("turn_off returned")
            except ProcessKilledError:
                world.note("killed")
                raise

        victim = world.spawn("flipper", "Y", flipper)
        victim.on_exit(lambda failed: world.note("flipper on_exit", failed))
        engine.on_link_state_change(
            lambda link, is_on: engine.host("Y").turn_off())
        assert _run_bounded(engine) == HOST_DOWN
        assert world.log == [("link", "xz", False, HOST_DOWN),
                             ("flipper on_exit", True, HOST_DOWN),
                             ("host", "Y", False, HOST_DOWN),
                             ("killed", HOST_DOWN)]
        assert victim.exit_status is None and engine.actor_count() == 0


class TestOneStatePath:
    """Structural guards: one SURF entry point flips a resource, one s4u
    handler turns a flip into failures, kills, reboots and listener
    calls — a second path is how traces and ``turn_off()`` drifted
    apart."""

    SRC = pathlib.Path(repro.__file__).resolve().parent

    @classmethod
    def _functions(cls):
        """(qualified name, node) of every method and function."""
        for path in sorted(cls.SRC.rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            yield f"{node.name}.{item.name}", item
                elif isinstance(node, ast.FunctionDef):
                    yield node.name, node

    @classmethod
    def _users(cls, attribute, calls_only=True):
        """Functions calling (or, with ``calls_only=False``, naming)
        ``<something>.<attribute>``."""
        users = set()
        for name, function in cls._functions():
            for node in ast.walk(function):
                if calls_only:
                    node = node.func if isinstance(node, ast.Call) else None
                if isinstance(node, ast.Attribute) and node.attr == attribute:
                    users.add(name)
        return users

    def test_only_set_state_flips_a_resource(self):
        flippers = self._users("turn_off") | self._users("turn_on")
        # The injector's targets are s4u Hosts and Links, whose own
        # turn_off / turn_on go through the engine's handler.
        assert flippers == {"SurfEngine.set_state",
                            "FailureInjector._apply_off",
                            "FailureInjector._apply_on"}
        assert self._users("fail_actions_on") == {"SurfEngine.set_state"}
        assert self._users("set_state") == {"Engine._set_state",
                                            "SurfEngine._fire_trace_events"}

    def test_one_handler_applies_a_flip(self):
        assert self._users("_set_state") == {
            "Host.turn_off", "Host.turn_on", "Link.turn_off",
            "Link.turn_on", "Engine._run_loop"}
        # What a flip does happens in the handler and nowhere else;
        # ``close`` only empties the bookkeeping of a dead engine.
        for state in ("_pending_restarts", "_host_state_listeners",
                      "_link_state_listeners"):
            assert self._users(state, calls_only=False) <= {
                "Engine.__init__", "Engine._set_state",
                "Engine.on_host_state_change",
                "Engine.on_link_state_change", "Engine.close"}, state
        # Every other kill is asked for: by an actor, by host code, by
        # the end of the run, or by closing the engine.
        assert self._users("_kill_actor") == {
            "Actor.kill", "Engine._do_kill", "Engine._set_state",
            "Engine._kill_remaining_daemons", "Engine._handle_deadlock",
            "Engine.close"}

    def test_activities_fail_in_three_places(self):
        """FAILED is written by the handler (a flip), by a rendezvous
        matched over a host or route already down, and by a kill (the
        started comm of the victim)."""
        writers = set()
        for name, function in self._functions():
            for node in ast.walk(function):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("_finish_activity",
                                               "_abort_activity")
                        and any(isinstance(arg, ast.Attribute)
                                and arg.attr == "FAILED"
                                for arg in node.args)):
                    writers.add(name)
        assert writers == {"Engine._set_state", "Engine._start_comm",
                           "Engine._kill_actor"}
