"""PR 10 scenario — a supervised at-least-once fleet under heavy churn.

The fault-tolerance toolkit end to end: a :class:`~repro.replay.ClusterReplay`
in ``at_least_once`` mode — seq-numbered jobs, a heartbeat failure
detector driving resubmission, dedup at the collector — with the worker
fleet held up by a :class:`~repro.ft.Supervisor` instead of bare
``auto_restart``, while a seeded injector hammers the nodes.  The fleet
absorbs every scheduled host failure and must still lose **zero** jobs;
the scenario asserts both, so a regression in any layer (detector,
resubmitter, supervisor respawn, dedup) fails it.

Run standalone (``python bench_ft.py``) or through ``run_benchmarks.py``.
"""

def run_ft_supervisor_churn(num_jobs: int = 256, num_hosts: int = 16,
                            seed: int = 7, churn_seed: int = 11,
                            churn_mtbf: float = 0.5,
                            churn_downtime: float = 0.5,
                            max_failures: int = 120) -> dict:
    """Supervised ALO replay absorbing ``max_failures`` host failures."""
    from repro.replay import ClusterReplay, synthetic_workload

    workload = synthetic_workload(seed=seed, num_hosts=num_hosts,
                                  num_jobs=num_jobs,
                                  mean_interarrival=0.1, mean_flops=5e8)
    replay = ClusterReplay(workload, churn_seed=churn_seed,
                           churn_mtbf=churn_mtbf,
                           churn_downtime=churn_downtime,
                           churn_max_failures=max_failures,
                           semantics="at_least_once", supervised=True)
    metrics = replay.run()
    if metrics["injected_failures"] != max_failures:
        raise AssertionError(
            f"churn injected {metrics['injected_failures']} failures, "
            f"wanted {max_failures} — horizon too short for the schedule")
    if metrics["lost"] != 0:
        raise AssertionError(
            f"at-least-once replay lost {metrics['lost']} job(s) "
            f"({metrics['completed']}/{metrics['jobs']} completed)")
    return {
        "simulated_time_s": metrics["final_time"],
        "peak_actors": num_hosts + 4,      # fleet + frontend machinery
        "jobs": metrics["jobs"],
        "completed": metrics["completed"],
        "lost": metrics["lost"],
        "duplicates": metrics["duplicates"],
        "resubmitted": metrics["resubmitted"],
        "suspects": metrics["suspects"],
        "failures": metrics["injected_failures"],
        "worker_restarts": metrics["worker_restarts"],
        "makespan": metrics["makespan"],
    }


if __name__ == "__main__":
    result = run_ft_supervisor_churn(64, num_hosts=8, max_failures=30)
    print("ft_supervisor_churn", result)
