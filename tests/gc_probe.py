"""Clock-free probes of the cyclic collector the collector tests share."""

import gc
from contextlib import contextmanager


@contextmanager
def recorded_passes(probe=lambda: None):
    """Record ``(generation, probe())`` at the start of every collector
    pass made inside the block."""
    passes = []

    def on_pass(phase, info):
        if phase == "start":
            passes.append((info["generation"], probe()))

    gc.collect()   # start from an empty generation 0: no pass is pending
    gc.callbacks.append(on_pass)
    try:
        yield passes
    finally:
        gc.callbacks.remove(on_pass)


@contextmanager
def collector_paused_by_caller():
    """Pause the collector the way user code does (``gc.disable()``) and
    restore its state on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
