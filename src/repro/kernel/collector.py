"""The cyclic-collector policy of a simulation run, in one place.

A run builds a large, long-lived object graph (platform, actors, generator
frames) and churns short-lived ones (activities, actions, simcalls) that
reference counting frees on its own: the kernel keeps its hot graph
cycle-free by construction (activity↔action and actor↔context backlinks
are broken on completion).  Generational passes during a run would only
re-trace that graph to find nothing, so a run executes with the collector
paused and ends in one young pass, which frees whatever cyclic garbage the
run did leave (an actor body's own cycles, a dropped restored engine)
while its objects are still generation 0.

:func:`paused_collector` is the only place that pauses the collector:
``Engine.run`` wraps its loop in it, the campaign runner wraps each run.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_collector"]


@contextmanager
def paused_collector() -> Iterator[None]:
    """Pause the cyclic collector for the block, then make one young pass.

    When the caller already paused the collector (an enclosing run, a
    campaign, or user code calling ``gc.disable()``) this does nothing:
    the owner of the pause makes the pass.  Otherwise the collector is
    re-enabled on exit even when the block raised, after one
    ``gc.collect(0)``.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.collect(0)
        gc.enable()
