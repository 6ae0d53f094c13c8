"""Spans around the calls into each layer, recorded from outside the program.

The traced repetition installs timing wrappers on the layers' public entry
points (:data:`TARGETS`) for its own process only and removes them
afterwards; nothing under ``src/`` knows it is being traced.  A parent
stack gives each span its cause; a span's *self time* is its duration
minus the part its child spans cover, so the self times of all spans under
one root add up to the root's duration.

Spans aggregate in memory to ``{count, total_s, self_s, tally}`` per name
(``tally`` sums integer return values — ``TimerQueue.fire_until`` returns
how many timers it fired); the first :data:`RAW_SPANS` spans are also kept
raw as ``[name, start, end, parent_index]``.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Dict, List, Optional

import repro.campaign
import repro.platform
from repro.kernel.context import GeneratorContext
from repro.kernel.timer import TimerQueue
from repro.platform import Platform
from repro.s4u import Engine
from repro.surf.engine import SurfEngine
from repro.surf.lmm import MaxMinSystem

__all__ = ["Tracer", "TARGETS", "RAW_SPANS"]

RAW_SPANS = 2000

#: (owner, attribute, span name).  ``SurfEngine.step`` is inherited by the
#: sharded engine; ``cpu_of`` counts as realization because all it does
#: beyond a dict lookup is materialize a lazily realized CPU.
TARGETS = (
    (GeneratorContext, "resume", "kernel.resume"),
    (TimerQueue, "fire_until", "kernel.timer"),
    (Engine, "__init__", "s4u.engine_init"),
    (Engine, "add_actor", "s4u.add_actor"),
    (Engine, "run", "s4u.run"),
    (Engine, "snapshot", "campaign.snapshot"),
    (Engine, "restore", "campaign.restore"),
    (SurfEngine, "step", "surf.step"),
    (MaxMinSystem, "solve", "lmm.solve"),
    (MaxMinSystem, "solve_grouped", "lmm.solve"),
    (Platform, "realize", "platform.realize"),
    (Platform, "cpu_of", "platform.realize"),
    (Platform, "route_resources", "platform.route"),
    (repro.campaign, "run_campaign", "campaign.runner"),
    (repro.platform, "make_star", "platform.build"),
    (repro.platform, "make_zoned_grid", "platform.build"),
    (repro.platform, "make_waxman_topology", "platform.build"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self._stack: List[list] = []       # [children_s, raw_index]
        self._totals: Dict[str, list] = {}
        self._patched: List[tuple] = []    # (owner, attribute, original)
        self.raw: List[list] = []

    # -- recording ---------------------------------------------------------------
    def _enter(self, name: str) -> list:
        raw_index: Optional[int] = None
        if len(self.raw) < RAW_SPANS:
            raw_index = len(self.raw)
            parent = self._stack[-1][1] if self._stack else None
            self.raw.append([name, 0.0, 0.0, parent])
        frame = [0.0, raw_index]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, tally) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        totals = self._totals.get(name)
        if totals is None:
            totals = self._totals[name] = [0, 0.0, 0.0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[0]
        if type(tally) is int:
            totals[3] += tally
        if self._stack:
            self._stack[-1][0] += duration
        if frame[1] is not None:
            raw = self.raw[frame[1]]
            raw[1], raw[2] = start, end

    @contextlib.contextmanager
    def span(self, name: str):
        """An explicit span (the set-up and timed-region roots)."""
        frame = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, None)

    def drain(self) -> Dict[str, dict]:
        """Aggregates recorded since the last drain, by span name."""
        totals, self._totals = self._totals, {}
        return {name: {"count": count, "total_s": total, "self_s": own,
                       "tally": tally}
                for name, (count, total, own, tally) in totals.items()}

    # -- patching ----------------------------------------------------------------
    def _wrap(self, func, name: str):
        enter, leave = self._enter, self._exit

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = enter(name)
            start = perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                leave(name, frame, start, result)
        return traced

    def install(self) -> None:
        for owner, attribute, name in TARGETS:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name))
            else:
                patched = self._wrap(original, name)
            setattr(owner, attribute, patched)
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
