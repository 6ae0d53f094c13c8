"""Experiment E5 — the MaxMin fairness illustration of the SURF panel.

The paper's SURF panel illustrates the unifying sharing model with a small
set of tasks crossing two resources (proc #1..#4 timeline) and lists the
scenarios it covers: multiple TCP flows sharing links, multiple CPU-bound
processes sharing a CPU, interference of communication and computation,
parallel tasks.

The harness reproduces those four sharing scenarios with the LMM solver and
prints the resulting allocations, then solves a larger random system (the
ablation on solver scalability) and checks it is feasible.
"""

import random

import pytest

from benchmarks.bench_util import print_table
from repro.surf.lmm import MaxMinSystem


def paper_figure_allocation():
    """The 4-task / 2-resource incidence of the paper's figure."""
    system = MaxMinSystem()
    r1 = system.new_constraint(1.0)
    r2 = system.new_constraint(1.0)
    p1, p2, p3, p4 = (system.new_variable() for _ in range(4))
    system.expand(r1, p1)
    system.expand(r1, p2)
    system.expand(r2, p2)
    system.expand(r2, p3)
    system.expand(r2, p4)
    system.solve()
    return [p1.value, p2.value, p3.value, p4.value]


def sharing_scenarios():
    """The four sharing scenarios listed in the SURF panel."""
    results = {}

    # multiple TCP flows sharing one link
    system = MaxMinSystem()
    link = system.new_constraint(1e7)
    flows = [system.new_variable() for _ in range(4)]
    for flow in flows:
        system.expand(link, flow)
    system.solve()
    results["4 TCP flows on a 10 MB/s link"] = [f.value for f in flows]

    # multiple CPU-bound processes sharing a CPU
    system = MaxMinSystem()
    cpu = system.new_constraint(2e9)
    procs = [system.new_variable() for _ in range(3)]
    for proc in procs:
        system.expand(cpu, proc)
    system.solve()
    results["3 processes on a 2 Gflop/s CPU"] = [p.value for p in procs]

    # interference of communication and computation (a NIC-limited host
    # where the transfer and the computation cross a shared IO constraint)
    system = MaxMinSystem()
    cpu = system.new_constraint(1e9)
    io_bus = system.new_constraint(1e8)
    compute = system.new_variable()
    transfer = system.new_variable()
    system.expand(cpu, compute)
    system.expand(io_bus, compute, usage=0.05)   # light bus usage
    system.expand(io_bus, transfer)
    system.solve()
    results["computation vs transfer on a shared bus"] = [compute.value,
                                                          transfer.value]

    # a parallel task spanning two CPUs and the link between them
    system = MaxMinSystem()
    cpu_a = system.new_constraint(1e9)
    cpu_b = system.new_constraint(1e9)
    net = system.new_constraint(1e8)
    parallel_task = system.new_variable()
    system.expand(cpu_a, parallel_task)
    system.expand(cpu_b, parallel_task)
    system.expand(net, parallel_task, usage=0.1)
    system.solve()
    results["parallel task on 2 CPUs + link"] = [parallel_task.value]
    return results


def large_random_solve(num_constraints=200, num_variables=800, seed=3):
    rng = random.Random(seed)
    system = MaxMinSystem()
    constraints = [system.new_constraint(rng.uniform(1e6, 1e9))
                   for _ in range(num_constraints)]
    for _ in range(num_variables):
        var = system.new_variable(weight=rng.uniform(0.5, 2.0))
        for constraint in rng.sample(constraints, rng.randint(1, 4)):
            system.expand(constraint, var)
    system.solve()
    return system


def test_e5_maxmin_sharing_figure():
    allocation = paper_figure_allocation()
    scenarios = sharing_scenarios()

    rows = [(f"proc #{i + 1}", f"{value:.3f}")
            for i, value in enumerate(allocation)]
    print_table("E5: MaxMin allocation of the paper's figure "
                "(2 resources of capacity 1.0)", ("task", "allocation"), rows)
    rows = [(name, ", ".join(f"{v:.3g}" for v in values))
            for name, values in scenarios.items()]
    print_table("E5: sharing scenarios of the SURF panel",
                ("scenario", "allocations"), rows)

    # the bottleneck resource is split three ways, the other task gets the rest
    assert allocation[1] == pytest.approx(1.0 / 3.0)
    assert allocation[2] == pytest.approx(1.0 / 3.0)
    assert allocation[3] == pytest.approx(1.0 / 3.0)
    assert allocation[0] == pytest.approx(2.0 / 3.0)
    # flows and processes get equal shares
    assert all(v == pytest.approx(2.5e6) for v in
               scenarios["4 TCP flows on a 10 MB/s link"])
    assert all(v == pytest.approx(2e9 / 3) for v in
               scenarios["3 processes on a 2 Gflop/s CPU"])

    # one solve of a large random system (solver scalability)
    system = large_random_solve()
    assert system.check_feasible()
