"""Experiments S1–S4 — s4u-native scale workloads.

The ROADMAP asks for large-scale scenarios driving thousands of actors
through the async s4u primitives.  Four workloads live here:

* **S1 fleet** (:func:`run_fleet`) — an async client/server fleet: every
  worker overlaps an execution with a message to a central sink and reaps
  both through ``ActivitySet.wait_any`` while the sink drains one mailbox
  for the whole fleet;
* **S2 pipeline** (:func:`run_pipeline`) — parallel multi-stage pipelines
  where each stage overlaps its computation with the forward transfer of
  the previous block (classic comm/compute overlap);
* **S3 activity race** (:func:`run_activity_race`) — actors racing an
  execution against a sleep and cancelling the loser, exercising the
  cancellation and selective re-solve paths at scale;
* **S4 actor churn** (:func:`run_actor_churn`) — a spawner creating waves
  of short-lived actors that compute, report to a sink and die, exercising
  dynamic actor creation/teardown and join;
* **S5 failure churn** (:func:`run_failure_churn`) — a master/worker fleet
  surviving seeded host churn: a :class:`~repro.s4u.failure.FailureInjector`
  keeps killing random worker hosts mid-work while ``auto_restart`` reboots
  the workers on restore, until the sink has collected every result.

:func:`run_smpi_scale` additionally drives the ported SMPI layer (eager
detached puts + per-rank mailbox drain, no task wrappers) at scale so the
port's hot-path win shows up in the perf trajectory.

All of them exercise exactly the hot path the lazy SURF kernel optimises —
many concurrent actions with tiny, disjoint LMM components — and report
kernel observability counters (how many solves were skipped, how much of
the system each solve visited) alongside wall-clock throughput.

Run standalone (``python bench_s4u_scale.py [num_workers]``) or through
``run_benchmarks.py``.
"""

import math
import sys
import time

from repro.platform import make_cluster, make_star, make_zoned_grid
from repro.s4u import ActivitySet, Engine


def solver_stats(engine):
    """LMM counters summed over every model of the kernel (all shards)."""
    return engine.kernel_stats()["solver"]


def run_fleet(num_workers: int = 1000, rounds: int = 2,
              flops: float = 5e7, msg_bytes: float = 1e4) -> dict:
    """Async fleet: ``num_workers`` actors, each overlapping exec + comm."""
    platform = make_star(num_hosts=num_workers, host_speed=1e9,
                         link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)
    received = [0]

    def sink(actor, total):
        box = engine.mailbox("sink")
        for _ in range(total):
            yield box.get()
            received[0] += 1

    def worker(actor, index):
        box = engine.mailbox("sink")
        for _ in range(rounds):
            comp = yield actor.exec_async(flops)
            comm = yield box.put_async(index, size=msg_bytes)
            pending = ActivitySet([comp, comm])
            while not pending.empty():
                yield pending.wait_any()

    engine.add_actor("sink", "center", sink, num_workers * rounds)
    for i in range(num_workers):
        engine.add_actor(f"worker-{i}", f"leaf-{i}", worker, i)

    peak_actors = num_workers + 1
    start = time.perf_counter()
    simulated = engine.run()
    wall = time.perf_counter() - start

    if received[0] != num_workers * rounds:
        raise AssertionError(
            f"sink received {received[0]} of {num_workers * rounds} messages")

    # One Exec and one Comm completed per worker per round.
    activities = 2 * rounds * num_workers
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": peak_actors,
        "activities": activities,
        "activities_per_s": activities / wall if wall > 0 else float("inf"),
        "lmm": solver_stats(engine),
        "kernel": engine.kernel_stats(),
    }


def run_sharded_zones(num_hosts: int = 1000, rounds: int = 2,
                      flops: float = 5e7, msg_bytes: float = 1e4,
                      sharded: bool = True) -> dict:
    """Zone-partitioned fleet: per-site sinks plus cross-zone reporting.

    The PR 7 acceptance scenario for the sharded kernel: a zoned grid
    whose sites map one-to-one onto kernel shards.  Host 0 of each site
    runs the site's sink; the other hosts run the same overlap worker as
    :func:`run_fleet` against their local sink, except every eighth
    worker reports to the *next* site's sink so the WAN links and the
    cross-shard migration path stay busy.  ``sharded=False`` runs the
    identical workload on the flat kernel (the bit-identity reference).
    """
    if num_hosts >= 50_000:
        num_sites = 64
    elif num_hosts >= 1024:
        num_sites = 16
    else:
        num_sites = 4
    hosts_per_site = max(2, num_hosts // num_sites)
    # Every worker host is a leaf of its site gateway, so a site seals one
    # shortest-path tree per direction, whatever the strategy name.
    platform = make_zoned_grid(num_sites=num_sites,
                               hosts_per_site=hosts_per_site,
                               host_speed=1e9, lan_bandwidth=125e6,
                               lan_latency=1e-4, wan_bandwidth=125e6,
                               wan_latency=1e-3,
                               site_routing="Dijkstra")
    engine = Engine(platform, sharded=sharded)
    received = [0]

    def sink(actor, site, total):
        box = engine.mailbox(f"sink-{site}")
        for _ in range(total):
            yield box.get()
            received[0] += 1

    def worker(actor, target_site):
        box = engine.mailbox(f"sink-{target_site}")
        for _ in range(rounds):
            comp = yield actor.exec_async(flops)
            comm = yield box.put_async(actor.name, size=msg_bytes)
            pending = ActivitySet([comp, comm])
            while not pending.empty():
                yield pending.wait_any()

    expected = [0] * num_sites
    index = 0
    for s in range(num_sites):
        for i in range(1, hosts_per_site):
            target = (s + 1) % num_sites if index % 8 == 0 else s
            expected[target] += rounds
            engine.add_actor(f"worker-{s}-{i}", f"site-{s}-host-{i}",
                             worker, target)
            index += 1
    for s in range(num_sites):
        engine.add_actor(f"sink-{s}", f"site-{s}-host-0", sink, s,
                         expected[s])

    total = sum(expected)
    peak_actors = index + num_sites
    start = time.perf_counter()
    simulated = engine.run()
    wall = time.perf_counter() - start

    if received[0] != total:
        raise AssertionError(
            f"sinks received {received[0]} of {total} messages")

    activities = 2 * total   # one Exec and one Comm per message
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": peak_actors,
        "activities": activities,
        "activities_per_s": activities / wall if wall > 0 else float("inf"),
        "lmm": solver_stats(engine),
        "kernel": engine.kernel_stats(),
    }


def run_pipeline(num_chains: int = 100, stages: int = 4, rounds: int = 3,
                 flops: float = 2e7, msg_bytes: float = 5e4) -> dict:
    """S2: ``num_chains`` parallel pipelines overlapping comm and compute.

    Stage ``s`` of a chain receives block ``r`` from stage ``s-1``, then
    computes on it *while* forwarding it to stage ``s+1`` (both reaped via
    ``ActivitySet``), so successive rounds stream through the pipeline.
    """
    platform = make_star(num_hosts=num_chains * stages, host_speed=1e9,
                         link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)
    delivered = [0]

    def stage_body(actor, chain, stage):
        inbox = (engine.mailbox(f"pipe:{chain}:{stage}")
                 if stage > 0 else None)
        outbox = (engine.mailbox(f"pipe:{chain}:{stage + 1}")
                  if stage < stages - 1 else None)
        for r in range(rounds):
            if inbox is not None:
                yield inbox.get()
                if stage == stages - 1:
                    delivered[0] += 1
            pending = ActivitySet()
            comp = yield actor.exec_async(flops)
            pending.push(comp)
            if outbox is not None:
                comm = yield outbox.put_async(r, size=msg_bytes)
                pending.push(comm)
            while not pending.empty():
                yield pending.wait_any()

    for chain in range(num_chains):
        for stage in range(stages):
            engine.add_actor(f"pipe-{chain}-{stage}",
                             f"leaf-{chain * stages + stage}",
                             stage_body, chain, stage)

    start = time.perf_counter()
    simulated = engine.run()
    wall = time.perf_counter() - start

    if delivered[0] != num_chains * rounds:
        raise AssertionError(
            f"sinks received {delivered[0]} of {num_chains * rounds} blocks")

    # Per chain per round: `stages` execs + `stages - 1` transfers.
    activities = num_chains * rounds * (2 * stages - 1)
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": num_chains * stages,
        "activities": activities,
        "activities_per_s": activities / wall if wall > 0 else float("inf"),
        "lmm": solver_stats(engine),
    }


def run_activity_race(num_actors: int = 500, rounds: int = 4,
                      fast_flops: float = 1e6, slow_flops: float = 1e9,
                      nap: float = 0.01) -> dict:
    """S3: every actor races an exec against a sleep, cancelling the loser.

    On even rounds the execution wins (tiny), on odd rounds the sleep wins
    and the (large) execution is cancelled mid-flight — exercising both
    completion orders plus the cancellation path of the lazy kernel at
    scale.
    """
    platform = make_star(num_hosts=num_actors, host_speed=1e9,
                         link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)
    outcomes = [0, 0]  # [exec wins, sleep wins]

    def racer(actor, index):
        for r in range(rounds):
            flops = fast_flops if r % 2 == 0 else slow_flops
            comp = yield actor.exec_async(flops)
            snooze = yield actor.sleep_async(nap)
            pending = ActivitySet([comp, snooze])
            winner = yield pending.wait_any()
            outcomes[0 if winner is comp else 1] += 1
            for loser in pending.activities:
                loser.cancel()
                pending.erase(loser)

    for i in range(num_actors):
        engine.add_actor(f"racer-{i}", f"leaf-{i}", racer, i)

    start = time.perf_counter()
    simulated = engine.run()
    wall = time.perf_counter() - start

    expected_exec_wins = num_actors * ((rounds + 1) // 2)
    if outcomes[0] != expected_exec_wins:
        raise AssertionError(
            f"exec won {outcomes[0]} races, expected {expected_exec_wins}")

    activities = num_actors * rounds * 2   # one winner + one cancelled each
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": num_actors,
        "activities": activities,
        "activities_per_s": activities / wall if wall > 0 else float("inf"),
        "lmm": solver_stats(engine),
    }


def run_actor_churn(waves: int = 10, actors_per_wave: int = 100,
                    num_hosts: int = 64, flops: float = 1e6,
                    msg_bytes: float = 1e3) -> dict:
    """S4: waves of short-lived actors spawned, joined and reaped.

    A spawner actor creates ``actors_per_wave`` workers per wave from
    *inside* the simulation; each worker computes briefly, reports to a
    sink and dies; the spawner joins the whole wave before launching the
    next.  Peak alive population stays one wave — the historical actor
    list grows ``waves`` times larger, which the engine's alive-actor
    set must shrug off.
    """
    platform = make_star(num_hosts=num_hosts, host_speed=1e9,
                         link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)
    reports = [0]
    total = waves * actors_per_wave

    def sink(actor):
        box = engine.mailbox("churn:sink")
        for _ in range(total):
            yield box.get()
            reports[0] += 1

    def worker(actor, index):
        yield actor.execute(flops)
        yield engine.mailbox("churn:sink").put(index, size=msg_bytes)

    def spawner(actor):
        for wave in range(waves):
            batch = []
            for i in range(actors_per_wave):
                batch.append(engine.add_actor(
                    f"churn-{wave}-{i}", f"leaf-{i % num_hosts}",
                    worker, wave * actors_per_wave + i))
            for spawned in batch:
                yield spawned.join()

    engine.add_actor("churn-sink", "center", sink)
    engine.add_actor("churn-spawner", "center", spawner)

    start = time.perf_counter()
    simulated = engine.run()
    wall = time.perf_counter() - start

    if reports[0] != total:
        raise AssertionError(
            f"sink saw {reports[0]} of {total} worker reports")

    activities = 2 * total   # one exec + one comm per short-lived actor
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": actors_per_wave + 2,
        "total_actors": total + 2,
        "activities": activities,
        "activities_per_s": activities / wall if wall > 0 else float("inf"),
        "lmm": solver_stats(engine),
    }


def run_failure_churn(num_workers: int = 64, results_target: int = 2000,
                      flops: float = 1e6, msg_bytes: float = 1e3,
                      seed: int = 42, mtbf: float = 0.002,
                      mean_downtime: float = 0.01,
                      max_failures: int = 200) -> dict:
    """S5: a master/worker fleet surviving seeded host churn.

    ``num_workers`` auto-restart workers (daemons, so only the sink keeps
    the simulation alive) loop compute-then-report forever; a seeded
    :class:`FailureInjector` keeps turning random worker hosts off and back
    on.  Dead workers lose their in-flight work, the sink shrugs off the
    failed transfers, restored hosts reboot their workers — the run ends
    when the sink banked ``results_target`` results, however much churn it
    took.  Reported: events/s (results + failures + restarts) and the churn
    counters.
    """
    from repro.exceptions import TransferFailureError
    from repro.s4u import FailureInjector

    platform = make_star(num_hosts=num_workers, host_speed=1e9,
                         link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)
    received = [0]

    def sink(actor):
        box = engine.mailbox("sink")
        while received[0] < results_target:
            try:
                yield box.get()
                received[0] += 1
            except TransferFailureError:
                # The matched worker's host died mid-transfer; re-post.
                continue

    def worker(actor, index):
        box = engine.mailbox("sink")
        while True:
            yield actor.execute(flops)
            yield box.put(index, size=msg_bytes)

    engine.add_actor("sink", "center", sink)
    for i in range(num_workers):
        engine.add_actor(f"worker-{i}", f"leaf-{i}", worker, i,
                         daemon=True, auto_restart=True)

    injector = FailureInjector(
        engine, seed=seed, hosts=[f"leaf-{i}" for i in range(num_workers)],
        mtbf=mtbf, mean_downtime=mean_downtime, max_failures=max_failures)
    injector.start()

    start = time.perf_counter()
    simulated = engine.run()
    wall = time.perf_counter() - start

    if received[0] != results_target:
        raise AssertionError(
            f"sink banked {received[0]} of {results_target} results")

    events = results_target + injector.failures + engine.restart_count
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": num_workers + 1,
        "events": events,
        "events_per_s": events / wall if wall > 0 else float("inf"),
        "failures": injector.failures,
        "restores": injector.restores,
        "restarts": engine.restart_count,
        "lmm": solver_stats(engine),
    }


def run_smpi_scale(num_ranks: int = 32, rounds: int = 4,
                   msg_bytes: int = 100_000) -> dict:
    """SMPI at scale: ring exchanges + allreduces over the ported layer.

    Every round each rank ships ``msg_bytes`` to its right neighbour (an
    eager detached put on the s4u engine — no per-message task allocation)
    and the communicator then allreduces a token.  Thread contexts, like
    real SMPI programs.
    """
    from repro.smpi import MPI_BYTE, SmpiWorld

    world = SmpiWorld(make_cluster(num_hosts=num_ranks),
                      num_ranks=num_ranks)
    totals = []

    def program(mpi):
        comm = mpi.COMM_WORLD
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for r in range(rounds):
            comm.send(0, dest=right, tag=r, count=msg_bytes,
                      datatype=MPI_BYTE)
            comm.recv(source=left, tag=r)
            totals.append(comm.allreduce(1))

    start = time.perf_counter()
    simulated = world.run(program)
    wall = time.perf_counter() - start

    if totals and any(t != num_ranks for t in totals):
        raise AssertionError("allreduce token mismatch")

    # Per round: one ring message per rank plus the allreduce tree
    # (reduce + bcast ~ 2 log2(P) hops per rank).
    log2p = max(1, int(math.ceil(math.log2(max(2, num_ranks)))))
    events = rounds * num_ranks * (1 + 2 * log2p)
    return {
        "simulated_time_s": simulated,
        "wall_clock_s": wall,
        "peak_actors": num_ranks,
        "events": events,
        "lmm": solver_stats(world.engine),
    }


def test_s1_thousand_actor_fleet():
    """Tier-2 sanity: a 1000-actor fleet completes and stays exact."""
    result = run_fleet(num_workers=1000, rounds=2)
    assert result["peak_actors"] == 1001
    # Every worker computes 2 x 0.05 s and ships 2 messages; the sink
    # drains sequentially but transfers are tiny, so the makespan stays
    # near the per-worker critical path regardless of the fleet size.
    assert 0.1 <= result["simulated_time_s"] < 2.0


def test_s5_failure_churn_fleet_survives():
    """Tier-2 acceptance: >= 50 host failures, zero lost results."""
    result = run_failure_churn(num_workers=64, results_target=1920)
    assert result["failures"] >= 50
    assert result["restarts"] > 0


if __name__ == "__main__":
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    outcome = run_fleet(num_workers=workers)
    for key, value in outcome.items():
        print(f"{key}: {value}")
