"""Tests for the kernel layer: timers, process contexts and the simcall."""

import ast
import math
import pathlib

import pytest

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

    def test_timer_scheduled_during_fire_is_honoured(self):
        queue = TimerQueue()
        fired = []

        def first():
            fired.append("first")
            queue.schedule(0.5, lambda: fired.append("nested"))

        queue.schedule(1.0, first)
        queue.fire_until(2.0)
        assert fired == ["first", "nested"]


def _handler(process, *args):
    """Stands for an engine method: contexts only carry it."""


def _context(kind, steps, *args):
    """A started context of ``kind`` whose body is ``steps(submit, *args)``.

    ``steps`` is written once, generator style (``answer = yield
    submit(simcall)``).  A generator context runs it as is; a thread
    context pumps it, feeding each blocking ``submit``'s own result back
    where a generator context feeds the simcall's.
    """
    def submit(simcall):
        return ctx.submit(simcall)

    def pumped():
        body = steps(submit, *args)
        answer = None
        try:
            while True:
                answer = body.send(answer)
        except StopIteration:
            pass

    if kind == "generator":
        ctx = make_context_factory(kind).create(steps, (submit, *args), {})
    else:
        ctx = make_context_factory(kind).create(pumped, (), {})
    ctx.start()
    return ctx


@pytest.mark.parametrize("kind", ["generator", "thread"])
class TestOneSimcallThroughEitherContext:
    """``Context.submit`` + ``Context.resume``: the same body, the same
    requests and the same answers under both factories."""

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
        assert not ctx.finished
        assert ctx.resume(None) is FINISHED
        assert ctx.finished
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
        assert ctx.finished
        assert cleaned == [True]
        assert ctx.resume() is FINISHED

    def test_kill_before_the_first_resume(self, kind):
        ran = []

        def steps(submit):
            ran.append(True)
            yield submit(Simcall(_handler))

        ctx = _context(kind, steps)
        ctx.kill()
        assert ctx.finished and ran == []

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
        ctx.start()
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
        ctx.start()
        with pytest.raises(TypeError, match="must yield Simcall objects, "
                                           "got 42; yield what the s4u"):
            ctx.resume()


class TestThreadContext:
    def test_body_exception_before_any_simcall(self):
        def body():
            raise ValueError("user bug")

        ctx = ThreadContextFactory().create(body, (), {})
        ctx.start()
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
        ctx.start()
        ctx.resume()
        ctx.kill()
        assert ctx.finished and seen == ["refused"]


class TestNonSimcallYieldBuriesTheActor:
    def test_engine_raises_the_named_type_error_and_moves_on(self):
        from repro.platform import make_star
        from repro.s4u import ActorState, Engine

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
        assert len(set(names)) >= 17  # the walk did find the call sites
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
        # Restoring rebuilds the two id()-keyed resource maps, nothing
        # else: what dispatches a request travels with the request.
        restored = Engine.restore(engine.snapshot())
        assert set(vars(restored)) - set(engine.__getstate__()) == {
            "_host_by_cpu", "_link_by_resource"}
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
