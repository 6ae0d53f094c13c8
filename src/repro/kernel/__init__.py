"""The simulation micro-kernel: process contexts, simcalls and timers.

This layer plays the role of SimGrid's *simix*/context layer: it knows how
to run simulated-process code (as cooperative generator coroutines or as
real OS threads handed control one at a time) and how that code communicates
its blocking requests ("simcalls") to the simulation engine.

It is shared by all the user-facing APIs: :mod:`repro.s4u` builds its
actor/activity futures directly on these simcalls, and GRAS-in-simulation,
SMPI and AMOK ride on s4u — the layering of the paper's architecture
diagram (every API sits on top of SURF through one kernel).
"""

from repro.kernel.collector import paused_collector
from repro.kernel.context import (
    GeneratorContext,
    GeneratorContextFactory,
    ThreadContext,
    ThreadContextFactory,
    make_context_factory,
)
from repro.kernel.simcall import Simcall
from repro.kernel.timer import Timer, TimerQueue

__all__ = [
    "GeneratorContext",
    "GeneratorContextFactory",
    "Simcall",
    "ThreadContext",
    "ThreadContextFactory",
    "Timer",
    "TimerQueue",
    "make_context_factory",
    "paused_collector",
]
