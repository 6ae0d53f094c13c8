"""PR 9 scenarios — availability modulation, cluster replay, recovery.

Three workloads drive the trace-modulated kernel end to end:

* **availability churn** (:func:`run_availability_churn`) — a star fleet
  whose every leaf carries a phase-shifted periodic availability trace
  while a seeded :class:`~repro.s4u.failure.FailureInjector` churns hosts
  on top: the trace heap, the capacity write path and the failure path
  all stay hot at once;
* **cluster replay** (:func:`run_replay_cluster`) — the
  :mod:`repro.replay` frontend replaying a synthetic cluster log (Poisson
  arrivals, per-node load dips, finite failure pulses) on an s4u fleet;
* **recovery policies** (:func:`run_recovery_policies`) — periodic vs
  event-driven checkpointing compared over a seed grid with the campaign
  runner, every run forked from one warmed snapshot.

Run standalone (``python bench_availability.py``) or through
``run_benchmarks.py``.
"""

from repro.platform import Platform
from repro.s4u import Engine, FailureInjector
from repro.surf.trace import Trace

from bench_s4u_scale import solver_stats


def _traced_star(num_workers, host_speed=1e9, link_bandwidth=125e6,
                 link_latency=1e-4, load_period=2.0, dip=0.5):
    """A star whose leaves all carry phase-shifted availability dips."""
    platform = Platform("availability-star")
    platform.add_host("center", host_speed)
    for i in range(num_workers):
        phase = 0.1 + (i % 16) * (load_period - 0.4) / 16.0
        trace = Trace([(0.0, 1.0), (phase, dip), (phase + 0.2, 1.0)],
                      period=load_period, name=f"leaf-load-{i}")
        host = platform.add_host(f"leaf-{i}", host_speed,
                                 availability_trace=trace)
        link = platform.add_link(f"leaf-link-{i}", link_bandwidth,
                                 link_latency)
        platform.connect(host.name, "center", link.name)
    return platform


def run_availability_churn(num_workers: int = 64,
                           results_target: int = 1000,
                           flops: float = 5e7, msg_bytes: float = 1e4,
                           seed: int = 42, mtbf: float = 0.01,
                           mean_downtime: float = 0.05,
                           max_failures: int = 50) -> dict:
    """Fleet under trace-driven external load *and* seeded churn.

    Every worker's host speed oscillates with its availability trace
    (dips de-synchronized across the fleet, so trace events fire all the
    time), the injector knocks hosts out on top, and the run ends when
    the sink banked ``results_target`` results.  Reported: the
    availability events actually applied (counted through the
    ``on_resource_speed_change`` observer — proving the trace heap fired)
    next to the failure/restart counters and the solver stats.
    """
    from repro.exceptions import TransferFailureError

    engine = Engine(_traced_star(num_workers))
    received = [0]
    speed_changes = [0]
    engine.on_resource_speed_change(
        lambda resource, speed: speed_changes.__setitem__(
            0, speed_changes[0] + 1))

    def sink(actor):
        box = engine.mailbox("sink")
        while received[0] < results_target:
            try:
                yield box.get()
                received[0] += 1
            except TransferFailureError:
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
        mtbf=mtbf, mean_downtime=mean_downtime,
        max_failures=max_failures).start()

    simulated = engine.run()
    if received[0] != results_target:
        raise AssertionError(
            f"sink banked {received[0]} of {results_target} results")
    if speed_changes[0] == 0:
        raise AssertionError("no availability event fired — trace heap dead")

    return {
        "simulated_time_s": simulated,
        "peak_actors": num_workers + 1,
        "speed_changes": speed_changes[0],
        "failures": injector.failures,
        "restores": injector.restores,
        "restarts": engine.restart_count,
        "lmm": solver_stats(engine),
    }


def run_replay_cluster(num_jobs: int = 128, num_hosts: int = 16,
                       seed: int = 7, churn_seed: int = 11) -> dict:
    """Replay a synthetic cluster log through :mod:`repro.replay`."""
    from repro.replay import ClusterReplay, synthetic_workload

    workload = synthetic_workload(seed=seed, num_hosts=num_hosts,
                                  num_jobs=num_jobs,
                                  mean_interarrival=0.1, mean_flops=5e8)
    replay = ClusterReplay(workload, churn_seed=churn_seed,
                           churn_mtbf=1.0, churn_downtime=0.3,
                           churn_max_failures=8)
    metrics = replay.run()
    if metrics["completed"] == 0:
        raise AssertionError("replay completed no job at all")
    return {
        "simulated_time_s": metrics["final_time"],
        "peak_actors": num_hosts + 2,
        "jobs": metrics["jobs"],
        "completed": metrics["completed"],
        "makespan": metrics["makespan"],
        "speed_changes": metrics["speed_changes"],
        "failures": metrics["injected_failures"],
    }


def run_recovery_policies(num_seeds: int = 8) -> dict:
    """Periodic vs event checkpointing over a seed grid (campaign-run)."""
    from repro.replay import compare_recovery_policies

    report = compare_recovery_policies(range(1, num_seeds + 1))
    summary = report["summary"]
    for policy in ("periodic", "event"):
        if summary[policy]["completed"]["min"] < 1:
            raise AssertionError(f"{policy}: a run completed no worker")
    return {
        "runs": 2 * num_seeds,
        "forked": report["forked"],
        "periodic_makespan_mean": summary["periodic"]["makespan"]["mean"],
        "event_makespan_mean": summary["event"]["makespan"]["mean"],
        "periodic_wasted_mean": summary["periodic"]["wasted_flops"]["mean"],
        "event_wasted_mean": summary["event"]["wasted_flops"]["mean"],
    }


if __name__ == "__main__":
    for name, result in (
            ("availability_churn", run_availability_churn(16, 200)),
            ("replay_cluster", run_replay_cluster(32, num_hosts=8)),
            ("recovery_policies", run_recovery_policies(3))):
        print(name, {k: v for k, v in result.items() if k != "lmm"})
