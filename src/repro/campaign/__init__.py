"""repro.campaign — multi-process seeded experiment campaigns.

The paper's point is that a fast fluid simulator makes *large experiment
campaigns* practical: thousands of seeded runs (seeds × configurations),
not one simulation per process.  This package is the driver for that
workflow, built on two pieces:

* **snapshot/fork** — the kernel state is pure Python, so a quiescent
  :class:`~repro.s4u.engine.Engine` serializes into an opaque blob
  (:meth:`Engine.snapshot`) and any number of runs can fork from it
  (:meth:`Engine.restore`) with bit-identical future dates, instead of
  replaying the warmed common prefix per run;
* **the runner** (:func:`run_campaign`) — fans a grid of ``(seed,
  config)`` experiments, each in its own forked process (at most
  ``workers`` at once, a dead or hung run retried once, nothing leaked),
  and returns the per-run metric dicts in grid order.

Quickstart::

    from repro import s4u
    from repro.campaign import grid, run_campaign
    from repro.platform import make_star

    # Warm the common prefix once: realize the platform, run a warm-up
    # phase to completion, snapshot the quiescent engine.
    engine = s4u.Engine(make_star(num_hosts=64))
    # ... add warm-up actors, engine.run() ...
    blob = engine.snapshot()

    def experiment(engine, seed, config):      # runs in a worker process
        # ... add the per-experiment actors (module-level bodies), e.g.
        # seeded FailureInjector churn, then run the measured phase ...
        final = engine.run()
        return {"simulated_time_s": final, "kernel": engine.kernel_stats()}

    result = run_campaign(experiment, grid(range(32), [{"mtbf": 0.01}]),
                          snapshot=blob, workers=4)
    times = [m["simulated_time_s"] for m in result.metrics()]

Without ``snapshot=`` the runner calls ``run_fn(seed, config)`` and each
run builds its own world: the cold replay that the fork mode saves.
"""

from repro.campaign.runner import (
    CampaignError,
    CampaignResult,
    ExperimentSpec,
    default_campaign_workers,
    grid,
    run_campaign,
)

__all__ = [
    "CampaignError",
    "CampaignResult",
    "ExperimentSpec",
    "default_campaign_workers",
    "grid",
    "run_campaign",
]
