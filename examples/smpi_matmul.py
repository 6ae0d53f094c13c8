#!/usr/bin/env python
"""SMPI example: the paper's 1-D parallel matrix multiplication.

The paper's SMPI panel shows an MPI matrix multiplication where matrices are
distributed by vertical strips; at every step ``k`` the owner of column
``k`` broadcasts it and every rank updates its strip of ``C`` with a local
GEMM wrapped in ``SMPI_BENCH_ONCE_RUN_ONCE`` so the simulation can replay
the measured kernel time.

This script simulates that program twice — on a homogeneous cluster and on
a heterogeneous two-site grid — and reports the simulated execution times,
illustrating "study how an existing MPI application reacts to platform
heterogeneity".

The kernel is benchmarked once, on this machine, before anything is
simulated (:func:`benchmark`); both simulations then charge that record,
so they read no clock and a second run in the same process prints the
same times.

Run with::

    python examples/smpi_matmul.py
"""

import functools

import numpy as np

from repro.gras import BenchRecorder
from repro.platform import make_cluster, make_two_site_grid
from repro.smpi import SmpiWorld


def gemm_step(alpha, column, row, beta, C):
    """The local kernel of one step: ``alpha * column (x) row + beta * C``."""
    return alpha * np.outer(column, row) + beta * C


def parallel_mat_mult(mpi, M=128, N=128, K=128, alpha=1.0, beta=0.0):
    """The paper's ``parallel_mat_mult`` translated to the SMPI API."""
    comm = mpi.COMM_WORLD
    num_proc = comm.size
    my_id = comm.rank
    # The last rank also owns the K % num_proc leftover columns, and a rank
    # count above K leaves the extra ranks owning none.
    KK = max(1, K // num_proc)
    NN = N // num_proc

    rng = np.random.default_rng(my_id)
    # Each rank owns a vertical strip of A (M x KK) and of B/C (K x NN).
    A = rng.random((M, KK))
    B = rng.random((K, NN))
    C = np.zeros((M, NN))

    for k in range(K):
        owner = min(k // KK, num_proc - 1)
        if owner == my_id:
            buf_col = np.ascontiguousarray(A[:, k % KK])
        else:
            buf_col = None
        buf_col = comm.bcast(buf_col, root=owner)

        # Start benchmarking: in simulation the local GEMM is skipped and
        # its recorded duration is charged to the simulated host.
        with mpi.bench_once("dgemm-step") as run_for_real:
            if run_for_real:
                C = gemm_step(alpha, buf_col, B[k, :], 1.0 if k else beta, C)
    return C


@functools.lru_cache(maxsize=None)
def benchmark(num_ranks):
    """The benchmark phase, run once per process: time one rank's GEMM
    step at the default 128 x 128 size on this machine."""
    rng = np.random.default_rng(0)
    strip = 128 // num_ranks
    record = BenchRecorder()
    record.measure("dgemm-step", gemm_step, 1.0, rng.random(128),
                   rng.random(strip), 1.0, np.zeros((128, strip)))
    return record


def simulate(platform, num_ranks, label):
    world = SmpiWorld(platform, num_ranks=num_ranks)
    world.bench_record.update(benchmark(num_ranks))
    elapsed = world.run(parallel_mat_mult)
    print(f"  {label:35s} ranks={num_ranks}  simulated time = {elapsed:.4f} s")
    return elapsed


def main():
    print("1-D MPI matrix multiplication under SMPI")
    ranks = 4
    homogeneous = simulate(make_cluster(num_hosts=ranks, host_speed=1e9),
                           ranks, "homogeneous commodity cluster")
    heterogeneous = simulate(
        make_two_site_grid(hosts_per_site=ranks // 2, host_speed=1e9,
                           wan_bandwidth=1.25e6, wan_latency=50e-3),
        ranks, "heterogeneous two-site grid (WAN)")
    slowdown = heterogeneous / homogeneous if homogeneous > 0 else float("inf")
    print(f"  heterogeneity slowdown: {slowdown:.2f}x "
          f"(broadcasts cross the wide-area link)")


if __name__ == "__main__":
    main()
