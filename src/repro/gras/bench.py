"""Automatic benchmarking of application code (``GRAS_BENCH_*`` and
``SMPI_BENCH_*`` macros).

The paper: *"Automatic benchmarking of application code for simulation
(CPU)"*.  Benchmarking has two phases, and they never overlap:

1. *benchmark*: run the block on a real machine, before any simulation,
   and record how long it took (:meth:`BenchRecorder.measure`, the one
   wall-clock read on this path), or write a known duration into the
   record;
2. *simulate*: each time a process reaches the block, charge the
   recorded duration as computation on the process's simulated host.
   ``once`` skips the block (``SMPI_BENCH_ONCE``), ``always`` runs it
   (``GRAS_BENCH_ALWAYS``); neither reads a clock, so the simulated dates
   depend on the record alone.

GRAS and SMPI share this record and its one charge: ``seconds`` of
recorded time become ``seconds * host.speed`` flops executed on the
actor's host.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, ContextManager, Dict, Iterator

from repro.s4u.actor import Actor

__all__ = ["BenchRecorder"]


class BenchRecorder(Dict[str, float]):
    """A ``{key: seconds}`` record of benchmarked blocks.

    A simulated world owns one, shared by all its processes; fill it
    before the world runs, with :meth:`measure` or by writing a known
    duration.  Reading a key that was never recorded raises a
    :class:`KeyError` naming it.
    """

    def __missing__(self, key: str) -> float:
        raise KeyError(f"no benchmark recorded for {key!r}: fill the "
                       "world's record before it runs")

    def measure(self, key: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Benchmark phase: run ``fn(*args)`` for real, record its
        wall-clock duration under ``key`` and return its result."""
        start = time.perf_counter()
        result = fn(*args)
        self[key] = time.perf_counter() - start
        return result

    def once(self, key: str, actor: Actor) -> ContextManager[bool]:
        """Yield ``False`` (skip the block) and charge ``actor`` the
        recorded duration (``SMPI_BENCH_ONCE_RUN_ONCE``)."""
        return self._charged(key, actor, False)

    def always(self, key: str, actor: Actor) -> ContextManager[None]:
        """Run the block and charge ``actor`` the recorded duration
        (``GRAS_BENCH_ALWAYS`` / ``SMPI_BENCH_ALWAYS``)."""
        return self._charged(key, actor, None)

    @contextlib.contextmanager
    def _charged(self, key: str, actor: Actor, value: Any) -> Iterator[Any]:
        seconds = self[key]
        yield value
        actor.execute(seconds * actor.host.speed, name=f"bench:{key}")
