"""One benchmark sampler for GRAS and SMPI: ``BenchRecorder.once/always``.

Both frontends delegate their ``bench_once`` / ``bench_always`` macros to
the same recorder; each only supplies the hook that charges measured
seconds as simulated computation.  Every frontend × policy pair must run
the block as often as the policy says and advance the simulated clock by
exactly what the recorder holds.
"""

import pytest

from repro.gras import SimWorld
from repro.platform import make_cluster, make_star
from repro.smpi import SmpiWorld

REPEATS = 4
KEY = "kernel"


def _spin():
    total = 0
    for i in range(20000):
        total += i
    return total


def _sample(policy, bench_once, bench_always, clock, ran):
    """Enter the policy's macro ``REPEATS`` times; returns the clock
    advance."""
    start = clock()
    for _ in range(REPEATS):
        if policy == "once":
            with bench_once(KEY) as should_run:
                if should_run:
                    ran.append(_spin())
        else:
            with bench_always(KEY):
                ran.append(_spin())
    return clock() - start


def _run_gras(policy):
    world = SimWorld(make_star(num_hosts=1))
    ran, out = [], {}

    def body(proc):
        out["advance"] = _sample(policy, proc.bench_once, proc.bench_always,
                                 proc.os_time, ran)
        out["recorder"] = proc.bench_recorder

    world.add_process("bench", "leaf-0", body)
    world.run()
    return len(ran), out["advance"], out["recorder"]


def _run_smpi(policy):
    world = SmpiWorld(make_cluster(num_hosts=1), num_ranks=1)
    ran, out = [], {}

    def program(mpi):
        sampler = mpi.sampler
        out["advance"] = _sample(policy, sampler.bench_once,
                                 sampler.bench_always, mpi.wtime, ran)
        out["recorder"] = sampler.recorder

    world.run(program)
    return len(ran), out["advance"], out["recorder"]


@pytest.mark.parametrize("policy", ["once", "always"])
@pytest.mark.parametrize("frontend", [_run_gras, _run_smpi],
                         ids=["gras", "smpi"])
def test_sampler_runs_and_charges_the_recorded_duration(frontend, policy):
    runs, advance, recorder = frontend(policy)
    expected_runs = 1 if policy == "once" else REPEATS
    assert runs == expected_runs
    assert recorder.count_of(KEY) == expected_runs
    # once charges the one measurement every time; always charges each
    # measurement, whose running average the recorder keeps.
    recorded = recorder.duration_of(KEY)
    assert recorded > 0.0
    assert advance == pytest.approx(REPEATS * recorded, rel=1e-9)
