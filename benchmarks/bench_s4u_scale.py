"""Failure churn — a master/worker fleet surviving seeded host churn.

:func:`run_failure_churn` keeps a :class:`~repro.s4u.failure.FailureInjector`
killing random worker hosts mid-work while ``auto_restart`` reboots the
workers on restore, until the sink has collected every result.  A liveness
regression under churn (a lost wake-up, a rendezvous matched against a dead
peer) hangs or trips the result count here.

Run standalone (``python bench_s4u_scale.py``) or through
``run_benchmarks.py``.
"""

from repro.platform import make_star
from repro.s4u import Engine


def solver_stats(engine):
    """LMM counters summed over every model of the kernel (all shards)."""
    return engine.kernel_stats()["solver"]


def run_failure_churn(num_workers: int = 64, results_target: int = 2000,
                      flops: float = 1e6, msg_bytes: float = 1e3,
                      seed: int = 42, mtbf: float = 0.002,
                      mean_downtime: float = 0.01,
                      max_failures: int = 200) -> dict:
    """A master/worker fleet surviving seeded host churn.

    ``num_workers`` auto-restart workers (daemons, so only the sink keeps
    the simulation alive) loop compute-then-report forever; a seeded
    :class:`FailureInjector` keeps turning random worker hosts off and back
    on.  Dead workers lose their in-flight work, the sink shrugs off the
    failed transfers, restored hosts reboot their workers — the run ends
    when the sink banked ``results_target`` results, however much churn it
    took.  Reported: the churn counters next to the solver stats.
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

    simulated = engine.run()

    if received[0] != results_target:
        raise AssertionError(
            f"sink banked {received[0]} of {results_target} results")

    return {
        "simulated_time_s": simulated,
        "peak_actors": num_workers + 1,
        "failures": injector.failures,
        "restores": injector.restores,
        "restarts": engine.restart_count,
        "lmm": solver_stats(engine),
    }


if __name__ == "__main__":
    for key, value in run_failure_churn().items():
        print(f"{key}: {value}")
