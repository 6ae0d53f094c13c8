"""Experiment E9 — scalability of the simulation with the process count.

The paper's architecture panel contrasts how the three interfaces map
simulated processes onto execution vehicles (MSG: all in one process; GRAS:
several per OS process; SMPI: one OS process per rank), which is ultimately
a statement about scalability.  This harness measures how the simulator
behaves as the number of simulated actors grows (a master/worker
application from 16 to 512 workers) and verifies that the wall-clock cost
grows roughly linearly — i.e. the generator-based context factory scales —
and that simulated results stay exact at every scale: the three makespans
are pinned to the bit.  A wall-clock-free twin counts the work instead:
per worker, the solver counters and the generator resumes are the same at
16, 64 and 256 workers, up to a constant.
"""

import hashlib
import sys
import time

import pytest

from benchmarks.bench_util import print_table
from repro.kernel.context import GeneratorContext
from repro.platform import make_star
from repro.s4u import Engine

TASK_FLOPS = 1e8
TASKS_PER_WORKER = 2


def master_worker(num_workers: int) -> float:
    """Simulate a master dispatching work to ``num_workers`` workers."""
    return master_worker_engine(num_workers).run()


def master_worker_engine(num_workers: int) -> Engine:
    """The master/worker application, set up and not yet run."""
    platform = make_star(num_hosts=num_workers, host_speed=1e9,
                         link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)

    def master(actor, workers):
        for round_idx in range(TASKS_PER_WORKER):
            for w in range(workers):
                yield actor.engine.mailbox(f"worker-{w}").put(
                    TASK_FLOPS, size=1e4, name=f"job-{round_idx}-{w}")
        for w in range(workers):
            yield actor.engine.mailbox(f"worker-{w}").put("stop", size=1.0)

    def worker(actor, index):
        while True:
            flops = yield actor.engine.mailbox(f"worker-{index}").get()
            if flops == "stop":
                return
            yield actor.execute(flops)

    engine.add_actor("master", "center", master, num_workers)
    for w in range(num_workers):
        engine.add_actor(f"worker-{w}", f"leaf-{w}", worker, w)
    return engine


def makespan_digest(simulated):
    """sha256 over each worker count and its makespan as ``float.hex``."""
    digest = hashlib.sha256()
    for count, makespan in sorted(simulated.items()):
        digest.update(repr((count, makespan.hex())).encode() + b"\n")
    return digest.hexdigest()


def test_e9_process_count_scalability():
    counts = (16, 64, 256)
    rows = []
    wall_clocks = {}
    simulated = {}
    for count in counts:
        start = time.perf_counter()
        simulated[count] = master_worker(count)
        wall_clocks[count] = time.perf_counter() - start
        rows.append((count, f"{simulated[count]:.3f}s",
                     f"{wall_clocks[count]:.3f}s",
                     f"{wall_clocks[count] / count * 1e3:.2f}ms"))
    print_table("E9: master/worker scalability (generator contexts)",
                ("workers", "simulated time", "wall-clock", "wall-clock per "
                 "process"), rows)

    # simulated results stay exact: each worker computes 2 x 0.1 s, and the
    # master's dispatch is cheap, so the makespan hardly grows with workers
    for count in counts:
        assert simulated[count] == pytest.approx(simulated[counts[0]],
                                                 rel=0.5)
    # the three makespans, to the bit
    assert makespan_digest(simulated) == (
        "8909252366ced8e89f60439c97a87ceee3a9ee16efddc74d906db0905fa1b385")
    # wall-clock grows sub-quadratically with the process count
    ratio = wall_clocks[counts[-1]] / max(wall_clocks[counts[0]], 1e-4)
    scale = counts[-1] / counts[0]
    assert ratio < scale ** 2, (
        f"wall clock grew {ratio:.1f}x for {scale}x more processes")


#: ``(per worker, constant)`` of each count of one master/worker run: the
#: generator resumes, then the LMM counters of ``engine.kernel_stats()``.
WORK_PER_WORKER = {
    "resumes": (9, 1),
    "solve_calls": (10, 2),
    "solve_skipped": (0, 0),
    "constraints_solved": (13, -1),
    "variables_solved": (8, 0),
    "elements_visited": (15, 0),
    "heap_pops": (5, 0),
}


def work_counts(num_workers):
    """The counts of ``WORK_PER_WORKER`` for one run, read without a clock:
    ``GeneratorContext.resume`` calls under ``sys.setprofile``, and the
    solver section of ``kernel_stats()`` after the run."""
    engine = master_worker_engine(num_workers)
    resume = GeneratorContext.resume.__code__
    resumes = 0

    def profile(frame, event, arg):
        nonlocal resumes
        if event == "call" and frame.f_code is resume:
            resumes += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
    solver = engine.kernel_stats()["solver"]
    return {"resumes": resumes,
            **{name: solver[name] for name in WORK_PER_WORKER
               if name != "resumes"}}


def test_e9_work_per_worker_is_flat():
    """E9's wall-clock-free twin: every count is exactly affine in the
    worker count, so the work per worker does not grow from 16 to 256."""
    for count in (16, 64, 256):
        assert work_counts(count) == {
            name: per_worker * count + constant
            for name, (per_worker, constant) in WORK_PER_WORKER.items()}, (
                f"{count} workers")
