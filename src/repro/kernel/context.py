"""Execution contexts for simulated processes.

The paper highlights that in MSG *"all simulated application processes run
within a single process"* and share one address space.  SimGrid implements
this with user-level context switching (ucontexts) or one pthread per
simulated process.  This module provides the two equivalent Python
factories:

* :class:`GeneratorContextFactory` (default) — each simulated process is a
  generator coroutine; blocking operations are expressed by ``yield``-ing a
  :class:`~repro.kernel.simcall.Simcall`.  Deterministic, lightweight,
  scales to tens of thousands of processes.

* :class:`ThreadContextFactory` — each simulated process is a real OS
  thread; blocking operations go through a handoff so that exactly one
  thread (either the kernel or one process) runs at a time.  Process code is
  then written without ``yield`` (plain blocking calls), which is closer to
  how GRAS code looks in real-life mode.

A factory's ``create(func, args, kwargs)`` returns a context ready to run.
Both contexts give the scheduler ``resume(value, exception) -> Simcall |
FINISHED``, which runs the body up to its next simcall (``value`` answers
the previous one, or ``exception`` is raised where the body blocked; what
escapes the body propagates), ``kill()``, which unwinds the body through
its ``finally`` blocks (what they raise propagates), and ``finished``.
The body hands each simcall over with ``submit(simcall)``: a generator
body gets it back to ``yield`` it, a thread body blocks there until the
kernel answers.
"""

from __future__ import annotations

import _thread
import threading
from typing import Any, Callable, Optional, Union

from repro.exceptions import ProcessKilledError
from repro.kernel.simcall import Simcall

__all__ = [
    "FINISHED",
    "GeneratorContext",
    "GeneratorContextFactory",
    "ThreadContext",
    "ThreadContextFactory",
    "make_context_factory",
]


class _Finished:
    """Sentinel returned by ``resume`` when the process function returned."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<FINISHED>"


FINISHED = _Finished()


# --------------------------------------------------------------------------------
# Generator contexts (default)
# --------------------------------------------------------------------------------

class GeneratorContext:
    """A simulated process implemented as a generator coroutine."""

    __slots__ = ("_gen", "_finished")

    def __init__(self, func: Callable, args: tuple, kwargs: dict) -> None:
        gen = func(*args, **kwargs)
        # A plain function has already run to completion: a degenerate but
        # legal process that performs no simcall.
        self._finished = not hasattr(gen, "send")
        self._gen = None if self._finished else gen

    def submit(self, simcall: Simcall) -> Simcall:
        return simcall

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None
               ) -> Union[Simcall, _Finished]:
        if self._finished:
            return FINISHED
        try:
            if exception is not None:
                request = self._gen.throw(exception)
            else:
                request = self._gen.send(value)
        except StopIteration:
            self._finished = True
            return FINISHED
        # A class compare, not isinstance: nothing subclasses Simcall.
        if request.__class__ is not Simcall:
            raise TypeError(
                f"simulated processes must yield Simcall objects, got "
                f"{request!r}; yield what the s4u blocking calls return "
                f"(actor.execute(...), mailbox.get(), activity.wait()...)")
        return request

    def kill(self) -> None:
        if self._finished:
            return
        self._finished = True
        try:
            # A generator that never ran closes without running its body.
            self._gen.throw(ProcessKilledError("process killed"))
        except (StopIteration, ProcessKilledError):
            pass

    @property
    def finished(self) -> bool:
        return self._finished


class GeneratorContextFactory:
    """Factory of :class:`GeneratorContext` (the default)."""

    name = "generator"

    def create(self, func: Callable, args: tuple,
               kwargs: dict) -> GeneratorContext:
        return GeneratorContext(func, args, kwargs)


# --------------------------------------------------------------------------------
# Thread contexts
# --------------------------------------------------------------------------------

class ThreadContext:
    """A simulated process running in its own OS thread.

    The kernel thread and the process thread hand the turn to each other
    through two locks used as binary semaphores, so that exactly one of
    them runs at a time; this reproduces SimGrid's pthread context
    factory.  ``_message`` carries what the releasing side hands over: a
    ``(value, exception)`` answer to the body, its next simcall (or
    :data:`FINISHED`) to the kernel.  ``_thread`` is the body's thread
    until the first ``resume`` starts it.
    """

    def __init__(self, func: Callable, args: tuple, kwargs: dict) -> None:
        self._kernel = _thread.allocate_lock()
        self._kernel.acquire()
        self._process = _thread.allocate_lock()
        self._process.acquire()
        self._message: Any = None
        self._body_exc: Optional[BaseException] = None
        self._finished = False
        self._kill_requested = False
        self._thread: Optional[threading.Thread] = threading.Thread(
            target=self._run_body, args=(func, args, kwargs), daemon=True,
            name="sim-process")

    # -- process side ----------------------------------------------------------------------
    def submit(self, simcall: Simcall) -> Any:
        if self._kill_requested:
            raise ProcessKilledError("process killed")
        self._message = simcall
        self._kernel.release()
        self._process.acquire()
        if self._kill_requested:
            raise ProcessKilledError("process killed")
        value, exception = self._message
        if exception is not None:
            raise exception
        return value

    def _run_body(self, func: Callable, args: tuple, kwargs: dict) -> None:
        try:
            func(*args, **kwargs)
        except ProcessKilledError:
            pass
        except BaseException as exc:  # noqa: BLE001 - forwarded to the kernel
            self._body_exc = exc
        finally:
            self._message = FINISHED
            self._finished = True
            self._kernel.release()

    # -- kernel side -----------------------------------------------------------------------
    def _wait_for_the_body(self) -> None:
        """Park the kernel until the body hands the turn back, and raise
        what escaped the body, if anything did."""
        self._kernel.acquire()
        exc = self._body_exc
        if exc is not None:
            self._body_exc = None
            raise exc

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None
               ) -> Union[Simcall, _Finished]:
        if self._finished:
            return FINISHED
        thread = self._thread
        if thread is None:
            self._message = (value, exception)
            self._process.release()
        else:
            self._thread = None
            thread.start()
        self._wait_for_the_body()
        message, self._message = self._message, None
        return message

    def kill(self) -> None:
        if self._finished:
            return
        if self._thread is not None:
            # Never started: the body never runs.
            self._thread = None
            self._finished = True
            return
        # Wake the body so that it observes the kill flag and unwinds.
        self._kill_requested = True
        self._process.release()
        self._wait_for_the_body()

    @property
    def finished(self) -> bool:
        return self._finished


class ThreadContextFactory:
    """Factory of :class:`ThreadContext`."""

    name = "thread"

    def create(self, func: Callable, args: tuple,
               kwargs: dict) -> ThreadContext:
        return ThreadContext(func, args, kwargs)


def make_context_factory(kind: str = "generator"):
    """Build a context factory by name (``"generator"`` or ``"thread"``)."""
    if kind == "generator":
        return GeneratorContextFactory()
    if kind == "thread":
        return ThreadContextFactory()
    raise ValueError(f"unknown context factory {kind!r}")
