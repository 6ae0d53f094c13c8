"""Campaign fan-out: one warmed snapshot vs N cold replays.

The campaign subsystem's contract (PR 8) is checked here: a seed × config
grid of experiments that share an expensive common prefix (platform
realization + a long warm-up exchange).  The *cold* campaign replays
that prefix inside every run; the *forked* campaign pays it once, calls
``engine.snapshot()``, and every run resumes from the blob via
``Engine.restore``.  Both campaigns must produce bit-identical per-run
metrics — the fork never changes results — and the scenario raises if
they diverge.  (What the fork saves in wall-clock is ``perfbench``'s
``campaign_fork`` workload.)

Worker count comes from ``REPRO_CAMPAIGN_WORKERS``, so the CI smoke
exercises the serial and the 2-worker pool modes.
"""

import random

from repro import s4u
from repro.campaign import default_campaign_workers, grid, run_campaign
from repro.platform import make_star

NUM_HOSTS = 24
WARM_ROUNDS = 12
MEASURED_ROUNDS = 3
WARM_FLOPS = 5e6
CONFIGS = ({"label": "light", "flops": 4e6},
           {"label": "heavy", "flops": 1.2e7})


def build_engine():
    return s4u.Engine(make_star(num_hosts=NUM_HOSTS, host_speed=1e9,
                                link_bandwidth=125e6, link_latency=1e-4))


def run_phase(engine, rounds, flops, tag, rng=None):
    """One master/worker exchange: ``rounds`` jobs per leaf, gathered on
    the center host.  Returns the activity count (1 exec + 1 comm per
    job).  ``rng`` perturbs the job sizes, making dates a pure function
    of the seed."""
    def worker(actor, index):
        sink = engine.mailbox(tag)
        scale = 1.0 if rng is None else rng.uniform(0.5, 1.5)
        for round_no in range(rounds):
            yield actor.execute(flops * scale * (1 + (index + round_no) % 3))
            comm = yield sink.put_async(index, size=1e4)
            yield comm.wait()

    def master(actor):
        sink = engine.mailbox(tag)
        for _ in range(rounds * NUM_HOSTS):
            yield sink.get()

    engine.add_actor(f"{tag}-master", "center", master)
    for index in range(NUM_HOSTS):
        engine.add_actor(f"{tag}-w{index}", f"leaf-{index}", worker, index)
    engine.run()
    return 2 * rounds * NUM_HOSTS


def _measured(engine, seed, config):
    events = run_phase(engine, MEASURED_ROUNDS, config["flops"],
                       f"measured-{seed}", rng=random.Random(seed))
    return {"simulated_time_s": engine.now, "events": events}


def forked_experiment(engine, seed, config):
    """Fork mode: the engine arrives restored from the warmed blob."""
    return _measured(engine, seed, config)


def cold_experiment(seed, config):
    """Cold mode: rebuild the world and replay the warm prefix per run."""
    engine = build_engine()
    run_phase(engine, WARM_ROUNDS, WARM_FLOPS, "warm")
    return _measured(engine, seed, config)


def run_campaign_fanout(num_seeds=16, workers=None):
    """Run the same grid forked and cold; raise unless they are identical."""
    if workers is None:
        workers = default_campaign_workers()
    specs = grid(range(num_seeds), list(CONFIGS))

    engine = build_engine()
    warm_events = run_phase(engine, WARM_ROUNDS, WARM_FLOPS, "warm")
    blob = engine.snapshot()

    forked = run_campaign(forked_experiment, specs, workers=workers,
                          snapshot=blob)
    cold = run_campaign(cold_experiment, specs, workers=workers)

    if forked.metrics() != cold.metrics():
        raise AssertionError(
            "forked campaign diverged from the cold per-seed replays")

    summary = forked.summary()
    measured_events = int(sum(
        run["metrics"]["events"] for run in forked.runs))
    return {
        "runs": len(specs),
        "workers": workers,
        "fallbacks": forked.fallbacks + cold.fallbacks,
        "snapshot_bytes": len(blob),
        "simulated_time_s": summary["simulated_time_s"]["median"],
        "events": warm_events + measured_events,
        "peak_actors": NUM_HOSTS + 1,
    }


if __name__ == "__main__":
    import json
    print(json.dumps(run_campaign_fanout(), indent=2))
