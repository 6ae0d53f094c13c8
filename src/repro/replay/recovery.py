"""Checkpoint/recovery policies compared under seeded churn.

The scenario the paper's availability traces exist for: long-running work
on machines that fail and come back.  Each worker computes a fixed amount
of flops in chunks, banking progress into its host's ``data`` dictionary
(which survives actor restarts) whenever it *checkpoints* — paying a
checkpoint cost in flops.  Two policies are compared:

* ``periodic`` — checkpoint after every chunk: maximum checkpoint
  overhead, minimum work lost per failure;
* ``event`` — checkpoint only when a failure has been observed anywhere
  in the fleet since the last checkpoint (via the engine's host state
  observers): near-zero overhead in calm runs, more work lost when a
  failure hits a worker that had not banked for a while.

Workers are ``transient`` children of a
:class:`~repro.ft.supervisor.Supervisor` tree (PR 10 — previously a
hand-rolled keep-alive poller next to ``auto_restart`` flags): a worker
killed by churn is respawned by the supervisor (parked while its host is
down), a worker that finished its flops is done for good, and the tree's
``deadline`` bounds the run.  ``on_exit`` accounting measures the wasted
(unbanked) flops per kill.  :func:`compare_recovery_policies` runs the
two policies over a seed grid with :func:`~repro.campaign.run_campaign`,
forking every run from one warmed engine snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.campaign import grid, run_campaign, summarize
from repro.ft import ChildSpec, Supervisor
from repro.platform import make_star
from repro.s4u import Engine, FailureInjector

__all__ = ["RECOVERY_POLICIES", "DEFAULT_RECOVERY_CONFIG",
           "run_recovery_experiment", "compare_recovery_policies"]

RECOVERY_POLICIES = ("periodic", "event")

DEFAULT_RECOVERY_CONFIG: Dict[str, Any] = {
    "num_workers": 4,
    "host_speed": 1e9,
    "work_flops": 4e9,          # 4 s of work per worker, failure-free
    "chunk_flops": 5e8,         # 8 chunks
    "checkpoint_cost": 5e7,     # a checkpoint costs 10% of a chunk
    "mtbf": 1.5,
    "mean_downtime": 0.3,
    "max_failures": 4,
    "deadline": 120.0,
}


# -- actor bodies (module-level: snapshot-forked engines must name them) -------

def _recovery_worker(actor, state: Dict[str, Any]) -> Any:
    """Chunked computation with policy-driven checkpointing.

    A reboot after a host failure re-enters this body fresh and resumes
    from the bank; everything not banked since the last checkpoint is
    recomputed — and accounted as wasted by the ``on_exit`` hook.
    """
    cfg = state["config"]
    policy = cfg["policy"]
    bank = actor.host.data.setdefault("ckpt", {})
    live = {"progress": bank.get(actor.name, 0.0),
            "seen_failures": state["failures_observed"]}
    metrics = state["metrics"]

    def account(failed: bool) -> None:
        if failed:
            metrics["wasted_flops"] += (live["progress"]
                                        - bank.get(actor.name, 0.0))
            metrics["kills"] += 1

    actor.on_exit(account)

    while live["progress"] < cfg["work_flops"]:
        chunk = min(cfg["chunk_flops"], cfg["work_flops"] - live["progress"])
        yield actor.execute(chunk)
        live["progress"] += chunk
        if live["progress"] >= cfg["work_flops"]:
            break
        if policy == "periodic":
            checkpoint = True
        elif policy == "event":
            checkpoint = state["failures_observed"] > live["seen_failures"]
        else:
            raise ValueError(f"unknown recovery policy {policy!r}")
        if checkpoint:
            yield actor.execute(cfg["checkpoint_cost"])
            bank[actor.name] = live["progress"]
            live["seen_failures"] = state["failures_observed"]
            metrics["checkpoints"] += 1
    bank[actor.name] = live["progress"]
    metrics["completed"] += 1
    state["finish_dates"].append(actor.now)


def run_recovery_experiment(seed: int,
                            config: Optional[Mapping[str, Any]] = None,
                            engine: Optional[Engine] = None
                            ) -> Dict[str, float]:
    """One seeded recovery run; returns the metrics dictionary.

    ``engine`` (e.g. restored from a warmed snapshot) must be a quiescent
    engine on a :func:`make_star` platform matching ``num_workers``; when
    omitted one is built from the config.
    """
    cfg = dict(DEFAULT_RECOVERY_CONFIG)
    if config:
        cfg.update(config)
    cfg.setdefault("policy", "periodic")
    if engine is None:
        engine = Engine(make_star(num_hosts=cfg["num_workers"],
                                  host_speed=cfg["host_speed"]))
    return _run_recovery(engine, seed, cfg)


def _run_recovery(engine: Engine, seed: int,
                  cfg: Dict[str, Any]) -> Dict[str, float]:
    state: Dict[str, Any] = {
        "config": cfg,
        "failures_observed": 0,
        "finish_dates": [],
        "metrics": {"completed": 0, "checkpoints": 0, "kills": 0,
                    "wasted_flops": 0.0},
    }

    def observe(host, is_on):
        if not is_on:
            state["failures_observed"] += 1

    engine.on_host_state_change(observe)

    leaves = [f"leaf-{i}" for i in range(cfg["num_workers"])]
    # Transient children: respawned after a churn kill (parked while the
    # host is down), finished for good once the flops are banked.  The
    # supervisor actor is the run's one non-daemon — the simulation ends
    # exactly when the work (or the tree's deadline) does.  Host-driven
    # deaths don't spend intensity tokens, so the bound only guards
    # against a systematically crashing body.
    supervisor = Supervisor(
        engine,
        [ChildSpec(f"rw-{index}", host, _recovery_worker, state,
                   restart="transient", daemon=True)
         for index, host in enumerate(leaves)],
        strategy="one_for_one", max_restarts=8 * cfg["num_workers"],
        window=cfg["deadline"], name="supervisor", host="center",
        deadline=cfg["deadline"]).start()
    injector = FailureInjector(engine, seed=seed, hosts=leaves,
                               mtbf=cfg["mtbf"],
                               mean_downtime=cfg["mean_downtime"],
                               max_failures=cfg["max_failures"]).start()
    final = engine.run()
    metrics = dict(state["metrics"])
    metrics.update(
        makespan=(max(state["finish_dates"])
                  if state["finish_dates"] else cfg["deadline"]),
        failures=injector.failures,
        restarts=supervisor.restarts,
        final_time=final,
        policy=cfg["policy"],
    )
    return metrics


def _campaign_run(engine: Engine, seed: int,
                  config: Mapping[str, Any]) -> Dict[str, float]:
    """``run_fn`` for :func:`run_campaign`'s snapshot-fork mode."""
    return run_recovery_experiment(seed, config, engine=engine)


def compare_recovery_policies(seeds: Iterable[int],
                              workers: Optional[int] = None
                              ) -> Dict[str, Any]:
    """Periodic vs event-driven checkpoints over a seed grid.

    Every run is forked from one warmed engine snapshot (PR 8), so the
    platform is realized once; the result maps each policy label to its
    :func:`~repro.campaign.summarize` distribution summary, plus the raw
    per-run metrics under ``"runs"``.
    """
    cfg = DEFAULT_RECOVERY_CONFIG
    blob = Engine(make_star(num_hosts=cfg["num_workers"],
                            host_speed=cfg["host_speed"])).snapshot()
    configs: List[Dict[str, Any]] = [
        {**cfg, "policy": policy, "label": policy}
        for policy in RECOVERY_POLICIES]
    result = run_campaign(_campaign_run, grid(list(seeds), configs),
                          workers=workers, snapshot=blob)
    by_policy: Dict[str, List[Mapping[str, Any]]] = {
        policy: [] for policy in RECOVERY_POLICIES}
    for spec, metrics in zip(result.specs, result.metrics()):
        by_policy[spec.label].append(metrics)
    return {
        "seeds": [spec.seed for spec in result.specs],
        "forked": result.forked,
        "summary": {policy: summarize(runs)
                    for policy, runs in by_policy.items()},
        "runs": result.runs,
    }
