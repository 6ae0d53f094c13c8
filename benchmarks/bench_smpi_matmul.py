"""Experiment E6 — the SMPI panel: 1-D MPI matrix multiplication.

The paper's SMPI example distributes matrices by vertical strips, broadcasts
one column block per step and calls a local GEMM wrapped in
``SMPI_BENCH_ONCE``.  Its purpose is to *"study how an existing MPI
application reacts to platform heterogeneity"* — so the harness runs
``parallel_mat_mult`` from ``examples/smpi_matmul.py`` (at M = N = K = 64)
on a homogeneous commodity cluster and on a heterogeneous two-site grid,
sweeping the rank count, and reports the simulated execution times and the
heterogeneity slowdown.

``SMPI_BENCH_ONCE`` runs the first local GEMM for real and charges its
measured duration to every step, so with a real clock the times differ
from run to run in their last digits.  The sweep therefore reads a bench
clock that steps by :data:`KERNEL_SECONDS` per reading: every GEMM step
is charged exactly that, and the six times are pinned to the bit.
"""

import hashlib
import itertools

from benchmarks.bench_util import print_table
from examples.smpi_matmul import parallel_mat_mult
from repro.gras import bench
from repro.platform import make_cluster, make_two_site_grid
from repro.smpi import SmpiWorld

MATRIX_SIZE = 64        # M = N = K
#: The stand-in for one measured GEMM step: 2**-17 s (about 7.6 us), exact
#: in binary, so every recorded duration is exactly this value.
KERNEL_SECONDS = 2.0 ** -17


def simulate(platform_factory, num_ranks):
    world = SmpiWorld(platform_factory(num_ranks), num_ranks=num_ranks)
    return world.run(parallel_mat_mult, M=MATRIX_SIZE, N=MATRIX_SIZE,
                     K=MATRIX_SIZE)


def homogeneous_platform(num_ranks):
    return make_cluster(num_hosts=num_ranks, host_speed=1e9)


def heterogeneous_platform(num_ranks):
    return make_two_site_grid(hosts_per_site=max(1, num_ranks // 2),
                              host_speed=1e9, wan_bandwidth=1.25e6,
                              wan_latency=50e-3)


class SteppingClock:
    """A stand-in for the ``time`` module whose ``perf_counter`` advances
    by ``step`` at every reading."""

    def __init__(self, step):
        self._readings = itertools.count()
        self._step = step

    def perf_counter(self):
        return next(self._readings) * self._step


def times_digest(times):
    """sha256 over each rank count and its two times as ``float.hex``."""
    digest = hashlib.sha256()
    for num_ranks, homogeneous, heterogeneous in times:
        digest.update(repr((num_ranks, homogeneous.hex(),
                            heterogeneous.hex())).encode() + b"\n")
    return digest.hexdigest()


def test_e6_smpi_matmul_homogeneous_vs_heterogeneous(monkeypatch):
    monkeypatch.setattr(bench, "time", SteppingClock(KERNEL_SECONDS))
    rank_counts = (2, 4, 8)
    rows = []
    homogeneous_times = []
    slowdowns = []
    times = []
    for num_ranks in rank_counts:
        homogeneous = simulate(homogeneous_platform, num_ranks)
        heterogeneous = simulate(heterogeneous_platform, num_ranks)
        slowdown = heterogeneous / homogeneous
        homogeneous_times.append(homogeneous)
        slowdowns.append(slowdown)
        times.append((num_ranks, homogeneous, heterogeneous))
        rows.append((num_ranks, f"{homogeneous:.3f}s", f"{heterogeneous:.3f}s",
                     f"{slowdown:.1f}x"))
    print_table("E6: 1-D MPI matrix multiply under SMPI "
                f"(K={MATRIX_SIZE} broadcast steps)",
                ("ranks", "homogeneous cluster", "two-site grid (WAN)",
                 "slowdown"), rows)

    # Heterogeneity hurts: the WAN-crossing broadcasts dominate.
    assert all(s > 2.0 for s in slowdowns)
    # More ranks do not help once the WAN is the bottleneck; on the cluster
    # the simulated time must stay bounded as ranks increase.
    assert homogeneous_times[-1] < homogeneous_times[0] * 4
    # the six simulated times, to the bit
    assert times_digest(times) == (
        "b1df5ecdf5c896d0a02bf4a0bd12e28a1aa39ad07324ef517133bef54f1b1be7")
