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
  thread; blocking operations go through a handshake so that exactly one
  thread (either the kernel or one process) runs at a time.  Process code is
  then written without ``yield`` (plain blocking calls), which is closer to
  how GRAS code looks in real-life mode.

Both factories expose the same :class:`Context` interface to the scheduler:
``start()``, ``resume(value, exception) -> Simcall | FINISHED``, ``kill()``,
and ``submit(simcall)`` to the process body.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Union

from repro.exceptions import ProcessKilledError
from repro.kernel.simcall import Simcall

__all__ = [
    "FINISHED",
    "Context",
    "ContextFactory",
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


class Context:
    """Interface between the scheduler and one simulated process body."""

    __slots__ = ()

    def start(self) -> None:
        """Prepare the context (no user code runs yet)."""

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None
               ) -> Union[Simcall, _Finished]:
        """Run the process until its next simcall.

        ``value`` is the result of the previous simcall; ``exception`` is
        raised inside the process instead when not ``None``.  Returns the
        next :class:`Simcall`, or :data:`FINISHED` when the process body
        returned.  Exceptions escaping the process body propagate to the
        caller.
        """
        raise NotImplementedError

    def submit(self, simcall: Simcall) -> Any:
        """Hand ``simcall`` to the kernel, from inside the process body:
        a generator body gets it back to ``yield`` it, a thread body is
        blocked here and gets the kernel's answer."""
        raise NotImplementedError

    def kill(self) -> None:
        """Force the process body to terminate (its ``finally`` blocks run)."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        raise NotImplementedError


class ContextFactory:
    """Builds contexts for process bodies."""

    name = "abstract"

    def create(self, func: Callable, args: tuple, kwargs: dict) -> Context:
        raise NotImplementedError


# --------------------------------------------------------------------------------
# Generator contexts (default)
# --------------------------------------------------------------------------------

class GeneratorContext(Context):
    """A simulated process implemented as a generator coroutine."""

    __slots__ = ("_func", "_args", "_kwargs", "_gen", "_finished",
                 "_started")

    def __init__(self, func: Callable, args: tuple, kwargs: dict) -> None:
        self._func = func
        self._args = args
        self._kwargs = kwargs
        self._gen = None
        self._finished = False
        self._started = False

    def start(self) -> None:
        result = self._func(*self._args, **self._kwargs)
        if result is None or not hasattr(result, "send"):
            # The body was a plain function that already ran to completion
            # (a degenerate but legal process that performs no simcall).
            self._gen = None
            self._finished = True
        else:
            self._gen = result

    def submit(self, simcall: Simcall) -> Simcall:
        return simcall

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None
               ) -> Union[Simcall, _Finished]:
        if self._finished:
            return FINISHED
        gen = self._gen
        try:
            if exception is not None:
                self._started = True
                request = gen.throw(exception)
            elif self._started:
                request = gen.send(value)
            else:
                self._started = True
                request = gen.send(None)
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
        if self._finished or self._gen is None:
            self._finished = True
            return
        try:
            if not self._started:
                # Never ran: just close it.
                self._gen.close()
            else:
                self._gen.throw(ProcessKilledError("process killed"))
        except (StopIteration, ProcessKilledError):
            pass
        except RuntimeError:
            # generator already executing / closed
            pass
        finally:
            self._finished = True

    @property
    def finished(self) -> bool:
        return self._finished


class GeneratorContextFactory(ContextFactory):
    """Factory of :class:`GeneratorContext` (the default)."""

    name = "generator"

    def create(self, func: Callable, args: tuple, kwargs: dict) -> Context:
        return GeneratorContext(func, args, kwargs)


# --------------------------------------------------------------------------------
# Thread contexts
# --------------------------------------------------------------------------------

class ThreadContext(Context):
    """A simulated process running in its own OS thread.

    The kernel thread and the process thread alternate through two
    :class:`threading.Event` objects so that exactly one of them runs at a
    time; this reproduces SimGrid's pthread context factory.
    """

    def __init__(self, func: Callable, args: tuple, kwargs: dict) -> None:
        self._func = func
        self._args = args
        self._kwargs = kwargs
        self._thread: Optional[threading.Thread] = None
        self._kernel_turn = threading.Event()
        self._process_turn = threading.Event()
        self._request: Any = None
        self._response: Any = None
        self._response_exc: Optional[BaseException] = None
        self._body_exc: Optional[BaseException] = None
        self._finished = False
        self._kill_requested = False

    # -- API used by the process body ------------------------------------------------
    def submit(self, simcall: Simcall) -> Any:
        if self._kill_requested:
            raise ProcessKilledError("process killed")
        self._request = simcall
        self._kernel_turn.set()
        self._process_turn.wait()
        self._process_turn.clear()
        if self._kill_requested:
            raise ProcessKilledError("process killed")
        if self._response_exc is not None:
            exc = self._response_exc
            self._response_exc = None
            raise exc
        response = self._response
        self._response = None
        return response

    # -- thread body --------------------------------------------------------------------
    def _run_body(self) -> None:
        try:
            self._func(*self._args, **self._kwargs)
        except ProcessKilledError:
            pass
        except BaseException as exc:  # noqa: BLE001 - forwarded to the kernel
            self._body_exc = exc
        finally:
            self._request = FINISHED
            self._finished = True
            self._kernel_turn.set()

    # -- Context interface ----------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(target=self._run_body, daemon=True,
                                        name="sim-process")

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None
               ) -> Union[Simcall, _Finished]:
        if self._finished:
            return FINISHED
        assert self._thread is not None
        if not self._thread.is_alive() and self._thread.ident is None:
            # first resume: start the thread
            self._thread.start()
        else:
            self._response = value
            self._response_exc = exception
            self._process_turn.set()
        self._kernel_turn.wait()
        self._kernel_turn.clear()
        if self._body_exc is not None:
            exc = self._body_exc
            self._body_exc = None
            raise exc
        request = self._request
        self._request = None
        if request is FINISHED or self._finished:
            self._finished = True
            return FINISHED
        return request

    def kill(self) -> None:
        if self._finished:
            return
        self._kill_requested = True
        if self._thread is not None and self._thread.is_alive():
            # wake the thread so it observes the kill flag and unwinds
            self._process_turn.set()
            self._kernel_turn.wait()
            self._kernel_turn.clear()
        self._finished = True

    @property
    def finished(self) -> bool:
        return self._finished


class ThreadContextFactory(ContextFactory):
    """Factory of :class:`ThreadContext`."""

    name = "thread"

    def create(self, func: Callable, args: tuple, kwargs: dict) -> Context:
        return ThreadContext(func, args, kwargs)


def make_context_factory(kind: str = "generator") -> ContextFactory:
    """Build a context factory by name (``"generator"`` or ``"thread"``)."""
    if kind == "generator":
        return GeneratorContextFactory()
    if kind == "thread":
        return ThreadContextFactory()
    raise ValueError(f"unknown context factory {kind!r}")
