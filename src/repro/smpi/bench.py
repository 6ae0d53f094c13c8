"""SMPI benchmarking macros (``SMPI_BENCH_ONCE_RUN_ONCE_BEGIN/END``).

The paper's SMPI panel inserts benchmarking commands around the expensive
local kernel (the CBLAS ``dgemm`` call), in two phases:

* the application's kernel is *benchmarked* on a homogeneous platform:
  the block really runs and its duration is recorded
  (:meth:`repro.gras.bench.BenchRecorder.measure`, before the simulation);
* the application is *simulated*, possibly on a heterogeneous platform:
  the block is skipped and the recorded duration is charged as
  computation on the simulated host, so a slower host takes longer.

:class:`SmpiSampler` gives a rank the macros over its world's one record,
the same :class:`~repro.gras.bench.BenchRecorder` GRAS charges.  A
declared amount of computation is ``mpi.compute(flops)``.
"""

from __future__ import annotations

from typing import ContextManager

from repro.gras.bench import BenchRecorder
from repro.s4u.actor import Actor

__all__ = ["SmpiSampler"]


class SmpiSampler:
    """Per-rank benchmarking macros, injected in rank code as
    ``mpi.sampler``."""

    def __init__(self, record: BenchRecorder, actor: Actor) -> None:
        self._record = record
        self._actor = actor

    def bench_once(self, key: str) -> ContextManager[bool]:
        """``SMPI_BENCH_ONCE``: yield ``False`` (skip the block) and charge
        the recorded duration."""
        return self._record.once(key, self._actor)

    def bench_always(self, key: str) -> ContextManager[None]:
        """``SMPI_BENCH_ALWAYS``: run the block and charge the recorded
        duration."""
        return self._record.always(key, self._actor)
