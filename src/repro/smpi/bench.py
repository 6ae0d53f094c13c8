"""SMPI benchmarking macros (``SMPI_BENCH_ONCE_RUN_ONCE_BEGIN/END``).

The paper's SMPI panel inserts benchmarking commands around the expensive
local kernel (the CBLAS ``dgemm`` call) so that:

* when the application is *benchmarked* on a homogeneous platform, the
  block really runs and its duration is recorded;
* when the application is *simulated* (possibly on a heterogeneous
  platform), the block is skipped and the recorded duration — scaled by the
  relative speed of the simulated host — is injected as simulated
  computation.

:class:`SmpiSampler` implements that policy on top of
:class:`repro.gras.bench.BenchRecorder` (the same mechanism GRAS uses).
"""

from __future__ import annotations

from typing import ContextManager

from repro.gras.bench import BenchRecorder
from repro.s4u.actor import Actor

__all__ = ["SmpiSampler"]


class SmpiSampler:
    """Per-rank sampling helper injected in rank code as ``mpi.sampler``."""

    def __init__(self, actor: Actor) -> None:
        self._actor = actor
        self.recorder = BenchRecorder()
        #: Speed (flop/s) of the machine the real measurements were taken
        #: on: the simulated host's own, meaning "the benchmark ran on this
        #: very machine".
        self.reference_speed = actor.host.speed

    def bench_once(self, key: str) -> ContextManager[bool]:
        """Run the block for real only the first time; always charge it.

        Yields ``True`` when the block must actually execute.  The charged
        simulated duration is ``measured_time * reference_speed /
        host_speed``; ``reference_speed`` being the rank's own host speed,
        that is the measured time itself.
        """
        return self.recorder.once(key, self._charge)

    def bench_always(self, key: str) -> ContextManager[None]:
        """Run and measure the block every time (``SMPI_BENCH_ALWAYS``)."""
        return self.recorder.always(key, self._charge)

    def charge_flops(self, flops: float) -> None:
        """Directly charge a known amount of computation to this rank."""
        if flops > 0:
            self._actor.execute(flops, name="smpi-kernel")

    def _charge(self, duration: float) -> None:
        if duration <= 0:
            return
        flops = duration * self.reference_speed
        self._actor.execute(flops, name="smpi-bench")
