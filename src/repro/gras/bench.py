"""Automatic benchmarking of application code (``GRAS_BENCH_*`` macros).

The paper: *"Automatic benchmarking of application code for simulation
(CPU)"*.  In the original GRAS the ``GRAS_BENCH_ALWAYS_BEGIN/END`` macros
measure how long a block of *real* code takes on the real machine, and in
simulation mode inject that duration as simulated computation.

Here the same idea is a context manager: the wall-clock time of the block
is measured with :func:`time.perf_counter`; the backend then either injects
an equivalent simulated execution (simulation mode) or does nothing more
(real-life mode).  A :class:`BenchRecorder` additionally supports the
``ONCE`` variants (run the block for real only the first time, replay the
recorded duration afterwards).  Both policies live here once: GRAS and
SMPI only supply the ``charge`` hook that turns seconds into simulated
computation.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator

__all__ = ["BenchRecorder"]


class BenchRecorder:
    """Remembers measured durations keyed by a bench site identifier.

    Supports the two sampling policies of the paper's macros:

    * ``ALWAYS`` — measure every execution (``GRAS_BENCH_ALWAYS_*``);
    * ``ONCE`` — measure the first execution, then reuse the recorded
      duration without re-running the real code
      (``SMPI_BENCH_ONCE_RUN_ONCE_*``).
    """

    def __init__(self) -> None:
        self._measurements: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def record(self, key: str, duration: float) -> None:
        """Store a measured duration for ``key`` (averaging over runs)."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        count = self._counts.get(key, 0)
        previous = self._measurements.get(key, 0.0)
        # running average, so repeated ALWAYS measurements stay stable
        self._measurements[key] = (previous * count + duration) / (count + 1)
        self._counts[key] = count + 1

    def has(self, key: str) -> bool:
        return key in self._measurements

    def duration_of(self, key: str) -> float:
        """Recorded (averaged) duration of a bench site."""
        try:
            return self._measurements[key]
        except KeyError:
            raise KeyError(f"no benchmark recorded for {key!r}") from None

    def count_of(self, key: str) -> int:
        return self._counts.get(key, 0)

    @contextlib.contextmanager
    def always(self, key: str, charge: Callable[[float], None]
               ) -> Iterator[None]:
        """Measure the block every time and ``charge`` its duration.

        An empty ``key`` charges the duration without recording it.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if key:
                self.record(key, elapsed)
            charge(elapsed)

    @contextlib.contextmanager
    def once(self, key: str, charge: Callable[[float], None]
             ) -> Iterator[bool]:
        """Yield ``True`` the first time only (the block must really run
        and is measured); every time, ``charge`` the recorded duration."""
        should_run = not self.has(key)
        start = time.perf_counter()
        try:
            yield should_run
        finally:
            if should_run:
                self.record(key, time.perf_counter() - start)
            charge(self.duration_of(key))
