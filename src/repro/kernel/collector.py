"""The cyclic-collector policy of a simulation's set-up and run, in one place.

A run builds a large, long-lived object graph (platform, actors, generator
frames) and churns short-lived ones (activities, actions, simcalls) that
reference counting frees on its own: the kernel keeps its hot graph
cycle-free by construction (activity↔action and actor↔context backlinks
are broken on completion).  Generational passes during a run would only
re-trace that graph to find nothing, so a run executes with the collector
paused and ends in one young pass, which frees whatever cyclic garbage the
run did leave (an actor body's own cycles) while its objects are still
generation 0.

The engine itself is a graph of back-reference cycles, and
``Engine.close()`` breaks them: the campaign runner closes every engine
it restores, so reference counting frees each one as the run drops it and
the young pass after the run has nothing to trace.

Set-up builds that graph, and a pass made while it grows frees nothing:
the middle and full passes its allocations trigger re-trace the whole
world built so far, so their cost grows faster than the world.  Each
set-up call (the platform builders, ``load_platform``,
``Engine.add_actor``) runs under :func:`young_passes_only` instead: the
collector is paused for the call and the call ends in at most one young
pass, so set-up makes young passes only.

Only these two helpers pause the collector: :func:`paused_collector`
(``Engine.run`` wraps its loop in it, the campaign runner wraps each run)
and :func:`young_passes_only` (one set-up call).  Neither leaves it
paused when control returns to the caller, so a world that is built and
never run, raises, or is dropped leaves the collector as it found it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator

__all__ = ["paused_collector", "young_passes_only"]


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


def young_passes_only(func: Callable) -> Callable:
    """Run each call of ``func`` with the collector paused, then make at
    most one young pass.

    The pass is one ``gc.collect(0)``, made only when the call took
    generation 0 past ``gc.get_threshold()[0]``, read per call: a caller's
    ``gc.set_threshold`` is respected, and a threshold of 0 means no pass.
    The collector is re-enabled after it, also when the call raised.  When
    the caller already paused the collector (an enclosing run, a campaign,
    ``gc.disable()``) the wrapper only calls ``func``.
    """
    @wraps(func)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            threshold = gc.get_threshold()[0]
            if threshold and gc.get_count()[0] > threshold:
                gc.collect(0)
            gc.enable()
    return wrapper
