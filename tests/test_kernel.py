"""Tests for the kernel layer: timers, process contexts and the simcall."""

import ast
import math
import pathlib
import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import repro

from repro.exceptions import ProcessKilledError
from repro.kernel.context import (
    FINISHED,
    GeneratorContextFactory,
    ThreadContextFactory,
    make_context_factory,
)
from repro.kernel.simcall import Simcall
from repro.kernel.timer import TimerQueue
from repro.platform import make_star
from repro.s4u import ActorState, Engine

from pump import actor_body, pump


class TestTimerQueue:
    def test_fire_in_order(self):
        queue = TimerQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        assert queue.next_date() == 1.0
        count = queue.fire_until(2.5)
        assert count == 2
        assert fired == ["a", "b"]
        assert queue.next_date() == 3.0

    def test_cancelled_timer_does_not_fire(self):
        queue = TimerQueue()
        fired = []
        timer = queue.schedule(1.0, lambda: fired.append("x"))
        timer.cancel()
        assert queue.fire_until(10.0) == 0
        assert fired == []
        assert queue.next_date() == math.inf

    def test_len_and_bool_count_pending_only(self):
        queue = TimerQueue()
        t1 = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        assert bool(queue)
        t1.cancel()
        assert len(queue) == 1
        queue.fire_until(5.0)
        assert not queue

    def test_negative_date_rejected(self):
        queue = TimerQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, lambda: None)

    def test_nan_date_rejected_inf_date_armed_forever(self):
        queue = TimerQueue()
        with pytest.raises(ValueError, match="nan"):
            queue.schedule(math.nan, lambda: None)
        fired = []
        queue.schedule(math.inf, lambda: fired.append("inf"))
        assert len(queue) == 1 and queue.next_date() == math.inf
        assert queue.fire_until(1e300) == 0 and fired == []

    def test_a_nan_date_cannot_break_the_heap(self):
        # A NaN date compares false with everything: once in the heap it
        # made the 0.5 and 2.0 timers below fire at 3.0, out of order.
        engine = Engine(make_star(2))
        fired = []

        def arm(date):
            engine.timers.schedule(
                date, lambda: fired.append((date, engine.now)))

        for date in (3.0, math.nan, 1.0, 2.0, 0.5):
            if math.isnan(date):
                with pytest.raises(ValueError, match="nan"):
                    arm(date)
            else:
                arm(date)

        def sleeper(actor):
            yield actor.sleep_for(5)

        engine.add_actor("sleeper", "leaf-0", sleeper)
        assert engine.run() == 5.0
        assert fired == [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_timer_scheduled_during_fire_is_honoured(self):
        queue = TimerQueue()
        fired = []

        def first():
            fired.append("first")
            queue.schedule(0.5, lambda: fired.append("nested"))

        queue.schedule(1.0, first)
        queue.fire_until(2.0)
        assert fired == ["first", "nested"]


# Few distinct dates, so same-date ties are common; ``inf`` is a legal date
# that never comes due at a finite clock.
_TIMER_DATES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]),
                         st.floats(min_value=0.0, max_value=10.0))
_TIMER_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _TIMER_DATES),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("fire_until"), st.floats(min_value=0.0, max_value=12.0)),
    st.tuples(st.just("compact"), st.none())), max_size=60)


class TestTimerQueueModel:
    """``TimerQueue`` against a sorted list of every timer ever armed."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_TIMER_OPS, st.booleans())
    def test_queue_matches_a_sorted_list_oracle(self, ops, bool_first):
        queue = TimerQueue()
        timers = []
        fired = []
        # [date, arm index, state] per timer, in arm order.
        model = []
        for op, arg in ops:
            if op == "schedule":
                index = len(timers)
                timers.append(
                    queue.schedule(arg, partial(fired.append, index)))
                model.append([arg, index, "armed"])
            elif op == "cancel" and timers:
                index = arg % len(timers)
                timers[index].cancel()
                if model[index][2] == "armed":
                    model[index][2] = "cancelled"
            elif op == "fire_until":
                # Due timers fire by date, same-date ties in arm order.
                due = sorted((date, index) for date, index, state in model
                             if state == "armed" and date <= arg + 1e-12)
                for _, index in due:
                    model[index][2] = "fired"
                start = len(fired)
                assert queue.fire_until(arg) == len(due)
                assert fired[start:] == [index for _, index in due]
            elif op == "compact":
                queue.compact()
                assert len(queue._heap) == len(queue)
            armed = sorted((date, index) for date, index, state in model
                           if state == "armed")
            # The queries drop dead heads as they go: vary their order.
            if bool_first:
                assert bool(queue) == bool(armed)
            assert queue.next_date() == (armed[0][0] if armed else math.inf)
            assert bool(queue) == bool(armed)
            assert len(queue) == len(armed)


def _handler(process, *args):
    """Stands for an engine method: contexts only carry it."""


def _context(kind, steps, *args):
    """A context of ``kind`` whose body is ``steps(submit, *args)``.

    ``steps`` is written once, generator style (``answer = yield
    submit(simcall)``), and pumped under a thread context (see
    :mod:`pump`).
    """
    def submit(simcall):
        return ctx.submit(simcall)

    if kind == "generator":
        ctx = make_context_factory(kind).create(steps, (submit, *args), {})
    else:
        ctx = make_context_factory(kind).create(
            pump, (steps(submit, *args),), {})
    return ctx


@pytest.mark.parametrize("kind", ["generator", "thread"])
class TestOneSimcallThroughEitherContext:
    """``submit`` + ``resume``: the same body, the same requests and the
    same answers under both factories."""

    def test_requests_reach_the_kernel_and_answers_come_back(self, kind):
        sleep, other = Simcall(_handler, (2.0,)), Simcall(_handler)
        answers = []

        def steps(submit, tag):
            answers.append((yield submit(sleep)))
            answers.append((yield submit(other)))
            answers.append(tag)

        ctx = _context(kind, steps, "x")
        first = ctx.resume()
        assert first is sleep
        assert (first.handler, first.args) == (_handler, (2.0,))
        assert ctx.resume("woke") is other and other.args == ()
        assert ctx.resume(None) is FINISHED
        assert ctx.resume() is FINISHED
        assert answers == ["woke", None, "x"]

    def test_exception_is_delivered_where_the_body_blocked(self, kind):
        caught = []

        def steps(submit):
            try:
                yield submit(Simcall(_handler, (1.0,)))
            except RuntimeError as exc:
                caught.append(str(exc))

        ctx = _context(kind, steps)
        ctx.resume()
        assert ctx.resume(exception=RuntimeError("boom")) is FINISHED
        assert caught == ["boom"]

    def test_kill_while_blocked_in_submit_runs_finally_blocks(self, kind):
        cleaned = []

        def steps(submit):
            try:
                yield submit(Simcall(_handler, (100.0,)))
                cleaned.append("resumed")
            finally:
                cleaned.append(True)

        ctx = _context(kind, steps)
        ctx.resume()
        ctx.kill()
        assert cleaned == [True]
        assert ctx.resume() is FINISHED

    def test_kill_before_the_first_resume(self, kind):
        ran = []

        def steps(submit):
            ran.append(True)
            yield submit(Simcall(_handler))

        ctx = _context(kind, steps)
        ctx.kill()
        assert ctx.resume() is FINISHED and ran == []

    def test_body_exception_propagates_to_the_kernel(self, kind):
        def steps(submit):
            yield submit(Simcall(_handler))
            raise ValueError("user bug")

        ctx = _context(kind, steps)
        ctx.resume()
        with pytest.raises(ValueError, match="user bug"):
            ctx.resume()


class TestGeneratorContext:
    def test_plain_function_finishes_immediately(self):
        calls = []

        def body(tag):
            calls.append(tag)

        ctx = GeneratorContextFactory().create(body, ("ran",), {})
        assert ctx.resume() is FINISHED
        assert calls == ["ran"]

    def test_submit_returns_the_simcall_to_yield(self):
        ctx = GeneratorContextFactory().create(lambda: None, (), {})
        simcall = Simcall(_handler, (1,))
        assert ctx.submit(simcall) is simcall

    def test_non_simcall_yield_rejected(self):
        def body():
            yield 42

        ctx = GeneratorContextFactory().create(body, (), {})
        with pytest.raises(TypeError, match="must yield Simcall objects, "
                                           "got 42; yield what the s4u"):
            ctx.resume()


class TestThreadContext:
    def test_body_exception_before_any_simcall(self):
        def body():
            raise ValueError("user bug")

        ctx = ThreadContextFactory().create(body, (), {})
        with pytest.raises(ValueError):
            ctx.resume()

    def test_submit_after_a_kill_request_raises_in_the_body(self):
        seen = []

        def body(holder):
            try:
                holder["ctx"].submit(Simcall(_handler))
            except ProcessKilledError:
                # a body that swallows the kill cannot submit again
                try:
                    holder["ctx"].submit(Simcall(_handler))
                except ProcessKilledError:
                    seen.append("refused")

        holder = {}
        ctx = holder["ctx"] = ThreadContextFactory().create(
            body, (holder,), {})
        ctx.resume()
        ctx.kill()
        assert ctx.resume() is FINISHED and seen == ["refused"]


class TestThreadHandoff:
    def test_a_round_trip_makes_no_python_call_into_threading(self):
        """Once the body's thread runs, a kernel -> body -> kernel round
        trip is two lock operations in C: no ``threading.py`` frame on
        either side (an ``Event`` handshake enters set, wait and clear)."""
        rounds = 200
        request = Simcall(_handler)
        answers = []
        counting = [False]
        threading_calls = []

        def hook(frame, event, arg):
            if (event == "call" and counting[0]
                    and frame.f_code.co_filename == threading.__file__):
                threading_calls.append(frame.f_code.co_name)

        def body(holder):
            for _ in range(rounds):
                answers.append(holder["ctx"].submit(request))

        holder = {}
        previous = sys.getprofile(), threading.getprofile()
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            ctx = holder["ctx"] = ThreadContextFactory().create(
                body, (holder,), {})
            assert ctx.resume() is request  # starts the thread
            counting[0] = True
            for answer in range(1, rounds):
                assert ctx.resume(answer) is request
            counting[0] = False
            assert ctx.resume(rounds) is FINISHED
        finally:
            sys.setprofile(previous[0])
            threading.setprofile(previous[1])
        assert answers == list(range(1, rounds + 1))
        assert threading_calls == []


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
@pytest.mark.parametrize("kind", ["generator", "thread"])
def test_a_kill_whose_cleanup_raises_still_buries_the_victim(kind, error):
    """The kill completes under both contexts whatever the error type: the
    victim is dead, its exit hooks ran, its joiner woke, the killer runs
    on, and the cleanup error is the victim's exit status."""
    engine = Engine(make_star(num_hosts=2), context_factory=kind)
    exits, woke = [], []

    def victim(actor):
        try:
            yield actor.sleep_for(10.0)
        finally:
            raise error("cleanup failed")

    def killer(actor):
        yield actor.sleep_for(1.0)
        yield target.kill()
        woke.append(("killer", actor.now))

    def joiner(actor):
        yield target.join()
        woke.append(("joiner", actor.now))

    target = engine.add_actor("victim", "leaf-0", actor_body(kind, victim))
    target.on_exit(exits.append)
    engine.add_actor("killer", "leaf-1", actor_body(kind, killer))
    engine.add_actor("joiner", "leaf-1", actor_body(kind, joiner))
    assert engine.run() == 1.0
    assert target.state == ActorState.DEAD and not engine.deadlocked
    assert exits == [True]
    assert sorted(woke) == [("joiner", 1.0), ("killer", 1.0)]
    assert type(target.exit_status) is error
    assert str(target.exit_status) == "cleanup failed"


class TestNonSimcallYieldBuriesTheActor:
    def test_engine_raises_the_named_type_error_and_moves_on(self):
        engine = Engine(make_star(num_hosts=2))
        done = []

        def confused(actor):
            yield 42

        def healthy(actor):
            yield actor.sleep_for(1.0)
            done.append(actor.now)

        bad = engine.add_actor("confused", "leaf-0", confused)
        engine.add_actor("healthy", "leaf-1", healthy)
        with pytest.raises(TypeError, match="must yield Simcall objects"):
            engine.run()
        assert bad.state == ActorState.DEAD
        assert isinstance(bad.exit_status, TypeError)
        assert engine.run() == 1.0 and done == [1.0]
        assert not engine.deadlocked


class TestOneRequestType:
    """Structural guards: a simcall is one class carrying its handler, and
    ``submit("_do_x", ...)`` the one way to make one — no subclass, no
    table from request type to handler, nothing to rebuild on restore."""

    SRC = pathlib.Path(repro.__file__).resolve().parent

    @classmethod
    def _trees(cls):
        for path in sorted(cls.SRC.rglob("*.py")):
            yield path, ast.parse(path.read_text())

    def test_nothing_subclasses_simcall(self):
        classes = {(path.name, node.name): [ast.unparse(b) for b in node.bases]
                   for path, tree in self._trees() for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
        assert [name for (module, name) in classes
                if module == "simcall.py"] == ["Simcall"]
        assert [key for key, bases in classes.items()
                if any("Simcall" in base for base in bases)] == []

    def test_every_submit_names_an_engine_method(self):
        from repro.s4u import Engine

        names = []
        for path, tree in self._trees():
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "submit"):
                    first = node.args[0]
                    assert (isinstance(first, ast.Constant)
                            and isinstance(first.value, str)), (
                        f"{path.name}:{node.lineno}: not a literal")
                    names.append(first.value)
        assert len(set(names)) >= 15  # the walk did find the call sites
        for name in names:
            assert callable(vars(Engine).get(name)), name
        # ... and only a context submits anything else.
        simcall_makers = {path.name for path, tree in self._trees()
                          for node in ast.walk(tree)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "Simcall"}
        assert simcall_makers == {"actor.py"}

    def test_engine_holds_no_dispatch_table(self):
        from repro.platform import make_star
        from repro.s4u import Engine

        engine = Engine(make_star(num_hosts=2))

        def bound_to_engine(value):
            return getattr(value, "__self__", None) is engine

        for name, value in vars(engine).items():
            members = [value]
            if isinstance(value, dict):
                members = [*value, *value.values()]
            elif isinstance(value, (list, tuple)):
                members = list(value)
            assert not any(map(bound_to_engine, members)), name
        # Restoring rebuilds nothing: what dispatches a request travels
        # with the request, and a resource reaches its facade by name.
        restored = Engine.restore(engine.snapshot())
        assert set(vars(restored)) - set(engine.__getstate__()) == set()
        done = []

        def body(actor):
            yield actor.sleep_for(1.0)
            done.append((yield actor.exec_async(1e9)).host.name)

        restored.add_actor("a", "leaf-0", body)
        assert restored.run() == 1.0 and done == ["leaf-0"]


class TestFactorySelection:
    def test_make_context_factory(self):
        assert make_context_factory("generator").name == "generator"
        assert make_context_factory("thread").name == "thread"
        with pytest.raises(ValueError):
            make_context_factory("fibers")
