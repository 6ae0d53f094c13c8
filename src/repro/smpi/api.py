"""The SMPI entry point: deploy an MPI-style program on a simulated platform.

:class:`SmpiWorld` creates one s4u actor per MPI rank (each on its own
host, cycling through the platform's hosts when there are more ranks than
hosts) and hands every rank an :class:`Smpi` facade exposing
``COMM_WORLD``, ``wtime`` and the benchmarking macros.  Rank functions are
plain blocking code (thread contexts), exactly like real MPI ranks.

The paper's SMPI panel inserts benchmarking commands
(``SMPI_BENCH_ONCE_RUN_ONCE_BEGIN/END``) around the expensive local
kernel (the CBLAS ``dgemm`` call), in two phases:

* the application's kernel is *benchmarked* on a homogeneous platform:
  the block really runs and its duration is recorded
  (:meth:`repro.gras.bench.BenchRecorder.measure`, before the simulation);
* the application is *simulated*, possibly on a heterogeneous platform:
  the block is skipped and the recorded duration is charged as
  computation on the simulated host, so a slower host takes longer.

``mpi.bench_once`` / ``mpi.bench_always`` charge the world's one
``bench_record``, the same :class:`~repro.gras.bench.BenchRecorder` GRAS
charges.  A declared amount of computation is ``mpi.compute(flops)``.
"""

from __future__ import annotations

import itertools
from typing import Callable, ContextManager, List

from repro.exceptions import MpiError
from repro.gras.bench import BenchRecorder
from repro.platform.platform import Platform
from repro.s4u.actor import Actor
from repro.s4u.engine import Engine
from repro.smpi.comm import Communicator

__all__ = ["Smpi", "SmpiWorld"]

_world_ids = itertools.count(0)


class Smpi:
    """Per-rank MPI facade handed to the user's rank function."""

    def __init__(self, world: "SmpiWorld", rank: int, actor: Actor) -> None:
        self.world = world
        self.rank = rank
        self.size = world.num_ranks
        self.actor = actor
        self.COMM_WORLD = Communicator(world.comm_id, rank, world.num_ranks,
                                       actor)

    def wtime(self) -> float:
        """Simulated time, like ``MPI_Wtime``."""
        return self.actor.now

    @property
    def host_name(self) -> str:
        """Name of the (simulated) host this rank runs on."""
        return self.actor.host.name

    def bench_once(self, key: str) -> ContextManager[bool]:
        """``SMPI_BENCH_ONCE``: yield ``False`` (skip the block) and charge
        the recorded duration."""
        return self.world.bench_record.once(key, self.actor)

    def bench_always(self, key: str) -> ContextManager[None]:
        """``SMPI_BENCH_ALWAYS``: run the block and charge the recorded
        duration."""
        return self.world.bench_record.always(key, self.actor)

    def compute(self, flops: float) -> None:
        """Charge ``flops`` of local computation to this rank: a declared
        amount, like SimGrid's later ``SMPI_SAMPLE_FLOPS``."""
        self.actor.execute(flops, name="smpi-kernel")


class SmpiWorld:
    """Deploys an MPI program over the hosts of a platform."""

    def __init__(self, platform: Platform, num_ranks: int) -> None:
        if num_ranks < 1:
            raise MpiError("need at least one rank")
        self.num_ranks = num_ranks
        self.comm_id = next(_world_ids)
        self.engine = Engine(platform, context_factory="thread")
        #: The durations the ranks' bench blocks charge; fill it before
        #: :meth:`run`.
        self.bench_record = BenchRecorder()
        host_names = platform.host_names()
        if not host_names:
            raise MpiError("the platform has no host")
        #: Host assigned to each rank (round-robin when ranks > hosts).
        self.rank_hosts: List[str] = [
            host_names[rank % len(host_names)] for rank in range(num_ranks)
        ]

    def run(self, func: Callable, *args, **kwargs) -> float:
        """Run ``func(mpi, *args)`` on every rank; returns the simulated time.

        ``func`` is the MPI program: it is called once per rank with that
        rank's :class:`Smpi` facade as first argument (plain blocking code,
        no ``yield``).
        """
        def body(actor: Actor, rank: int):
            func(Smpi(self, rank, actor), *args, **kwargs)

        for rank in range(self.num_ranks):
            self.engine.add_actor(f"rank-{rank}", self.rank_hosts[rank],
                                  body, rank)
        return self.engine.run()
