"""One benchmark record for GRAS and SMPI, charged through one hook.

A simulated world owns one ``{key: seconds}`` record
(:class:`repro.gras.bench.BenchRecorder`), filled before it runs.  Both
frontends' ``bench_once`` / ``bench_always`` macros charge that record as
``seconds * host.speed`` flops on the calling actor's host and read no
clock: ``bench_once`` skips the block, ``bench_always`` runs it.  Every
frontend × policy pair must run the block as often as the policy says
and advance the simulated clock by exactly ``REPEATS`` times the record.
"""

import functools

import pytest

from repro.gras import SimWorld
from repro.platform import make_cluster, make_star
from repro.smpi import SmpiWorld

REPEATS = 4
KEY = "kernel"
#: The recorded duration and the host speed are powers of two, so every
#: charge and every date is exact.
SECONDS = 2.0 ** -10
HOST_SPEED = 2.0 ** 30


def _sample(policy, bench_once, bench_always, clock, ran):
    """Enter the policy's macro ``REPEATS`` times; returns the clock
    advance."""
    start = clock()
    for _ in range(REPEATS):
        if policy == "once":
            with bench_once(KEY) as should_run:
                if should_run:
                    ran.append(KEY)
        else:
            with bench_always(KEY):
                ran.append(KEY)
    return clock() - start


def _gras(policy, record):
    """A one-process GRAS world given ``record``; returns ``(run, ran,
    out, engine)``."""
    world = SimWorld(make_star(num_hosts=1, host_speed=HOST_SPEED))
    world.bench_record.update(record)
    ran, out = [], {}

    def body(proc):
        out["advance"] = _sample(policy, proc.bench_once, proc.bench_always,
                                 proc.os_time, ran)

    world.add_process("bench", "leaf-0", body)
    return world.run, ran, out, world.engine


def _smpi(policy, record):
    """A one-rank SMPI world given ``record``; returns ``(run, ran, out,
    engine)``."""
    world = SmpiWorld(make_cluster(num_hosts=1, host_speed=HOST_SPEED),
                      num_ranks=1)
    world.bench_record.update(record)
    ran, out = [], {}

    def program(mpi):
        out["advance"] = _sample(policy, mpi.sampler.bench_once,
                                 mpi.sampler.bench_always, mpi.wtime, ran)

    return functools.partial(world.run, program), ran, out, world.engine


FRONTENDS = pytest.mark.parametrize("frontend", [_gras, _smpi],
                                    ids=["gras", "smpi"])
POLICIES = pytest.mark.parametrize("policy", ["once", "always"])


@POLICIES
@FRONTENDS
def test_sampler_charges_the_record(frontend, policy):
    run, ran, out, engine = frontend(policy, {KEY: SECONDS})
    run()
    # once skips the block; always runs it.  Both charge the record.
    assert len(ran) == (0 if policy == "once" else REPEATS)
    assert out["advance"].hex() == (REPEATS * SECONDS).hex()
    assert engine.now.hex() == (REPEATS * SECONDS).hex()


@POLICIES
@FRONTENDS
def test_a_site_with_no_record_fails_naming_its_key(frontend, policy):
    run, ran, _, engine = frontend(policy, {"another-kernel": SECONDS})
    with pytest.raises(KeyError, match=f"no benchmark recorded for '{KEY}'"):
        run()
    # raised on entry: the block did not run and nothing was charged
    assert ran == []
    assert engine.now == 0.0
