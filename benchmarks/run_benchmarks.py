#!/usr/bin/env python3
"""Smoke runner: drive the liveness scenarios, pass or fail.

Each scenario runs one subsystem end to end at one fixed size and raises
``AssertionError`` when the property it exists for does not hold; the
runner stops there, so the exit status is non-zero exactly when a
scenario's own assertion (or the simulator under it) fails.  Nothing is
timed and nothing is judged against a clock: wall-clock, throughput and
scale questions belong to ``perfbench/run.py``.

The JSON report (``BENCH.json`` by default) keeps what every scenario
returned: simulated dates and counters, no wall-clock.

Usage::

    python benchmarks/run_benchmarks.py
    python benchmarks/run_benchmarks.py --only failure_churn
    python benchmarks/run_benchmarks.py --output /tmp/smoke.json

See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _require(condition, message):
    if not condition:
        raise AssertionError(message)


# ----------------------------------------------------------------------------------
# scenarios: callable() -> metrics dict.  The sizes are the ones at which
# the documented property is actually exercised.
# ----------------------------------------------------------------------------------

def _failure_churn():
    """Auto-restart fleet: 100+ host failures, every result collected."""
    from bench_s4u_scale import run_failure_churn
    # The body raises unless the sink banked every one of the results.
    result = run_failure_churn(num_workers=64, results_target=64 * 30)
    _require(result["failures"] >= 100,
             f"churn injected {result['failures']} host failures, the "
             "scenario promises 100+")
    _require(result["restarts"] > 0, "no worker was ever restarted")
    return result


def _availability_churn():
    """Trace-modulated fleet under churn: trace heap fires, nothing lost."""
    from bench_availability import run_availability_churn
    return run_availability_churn(num_workers=16, results_target=16 * 15)


def _replay_cluster():
    """Cluster-log replay through ``repro.replay`` completes jobs."""
    from bench_availability import run_replay_cluster
    return run_replay_cluster(num_jobs=32, num_hosts=8)


def _recovery_policies():
    """Both checkpoint policies complete over a snapshot-forked grid."""
    from bench_availability import run_recovery_policies
    return run_recovery_policies(num_seeds=3)


def _ft_supervisor_churn():
    """Supervised at-least-once replay: 100+ host failures, zero lost."""
    from bench_ft import run_ft_supervisor_churn
    # The body raises on a lost job or an incomplete failure schedule.
    result = run_ft_supervisor_churn(num_jobs=128, num_hosts=16,
                                     max_failures=100)
    _require(result["failures"] >= 100 and result["lost"] == 0,
             f"{result['failures']} failures, {result['lost']} lost jobs; "
             "the scenario promises 100+ and 0")
    return result


def _campaign_fanout():
    """Snapshot-forked campaign ≡ cold replays (workers from the env)."""
    from bench_campaign import run_campaign_fanout
    return run_campaign_fanout(num_seeds=16)


def _smpi_matmul():
    """E6: the WAN-crossing broadcasts dominate on the two-site grid."""
    from bench_smpi_matmul import (heterogeneous_platform,
                                   homogeneous_platform, simulate)
    homogeneous = simulate(homogeneous_platform, 4)
    heterogeneous = simulate(heterogeneous_platform, 4)
    _require(heterogeneous > 2.0 * homogeneous,
             f"two-site grid {heterogeneous:.3f}s vs cluster "
             f"{homogeneous:.3f}s: heterogeneity no longer hurts")
    return {"homogeneous_s": homogeneous, "heterogeneous_s": heterogeneous}


def _gantt_clientserver():
    """E4: every host is on the chart and concurrent comms interfere."""
    from bench_gantt_clientserver import (NUM_CLIENTS, NUM_SERVERS, simulate)
    from repro.tracing import GanttChart
    makespan, recorder = simulate()
    chart = GanttChart(recorder)
    _require(len(chart.summary()) == NUM_CLIENTS + NUM_SERVERS,
             "a client or server is missing from the Gantt chart")
    _require(chart.overlapping_comms() > 0,
             "no two communications overlap: link sharing is not exercised")
    return {"simulated_time_s": makespan,
            "overlapping_comms": chart.overlapping_comms()}


def _traces_failures():
    """E8: the bandwidth trace and the transient failure land on time."""
    from bench_traces_failures import simulate
    outcome = simulate(with_traces=True)
    # 10 MB at full speed, 2.5 MB throttled to 25 %, 7.5 MB restored.
    _require(abs(outcome["transfer_end"] - 27.5) < 0.01,
             f"throttled transfer ended at {outcome['transfer_end']}")
    status, date = outcome["victim_transfer"]
    _require(status == "failed" and abs(date - 4.0) < 0.01,
             f"victim transfer: {outcome['victim_transfer']}")
    return {"compute_end": outcome["compute_end"],
            "transfer_end": outcome["transfer_end"],
            "victim_failed_at": date}


def _fluid_flows():
    """E1's fluid side: no flow is served faster than its bottleneck."""
    from bench_validation_flows import (NUM_NODES, TOPOLOGY_SEED,
                                        fluid_rates)
    from repro.platform.brite import make_waxman_topology
    rates, flows = fluid_rates()
    topology = make_waxman_topology(num_nodes=NUM_NODES, seed=TOPOLOGY_SEED)
    for rate, (src, dst) in zip(rates, flows):
        bottleneck = min(topology.links[name].bandwidth
                         for name in topology.route_links(src, dst))
        _require(0.0 < rate <= bottleneck,
                 f"flow {src}->{dst} at {rate:.4g} B/s over a "
                 f"{bottleneck:.4g} B/s bottleneck")
    return {"flows": len(rates), "aggregate_rate": sum(rates)}


SCENARIOS = {
    "availability_churn": _availability_churn,
    "campaign_fanout": _campaign_fanout,
    "failure_churn": _failure_churn,
    "fluid_flows": _fluid_flows,
    "ft_supervisor_churn": _ft_supervisor_churn,
    "gantt_clientserver": _gantt_clientserver,
    "recovery_policies": _recovery_policies,
    "replay_cluster": _replay_cluster,
    "smpi_matmul": _smpi_matmul,
    "traces_failures": _traces_failures,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the liveness scenarios and write a JSON report.")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", choices=sorted(SCENARIOS),
                        help="run only the given scenario (repeatable)")
    parser.add_argument("--output", default=os.path.join(ROOT, "BENCH.json"),
                        help="path of the JSON report (default: %(default)s)")
    args = parser.parse_args(argv)

    results = []
    for name in args.only or SCENARIOS:
        print(f"running {name} ...", flush=True)
        results.append({"scenario": name, **SCENARIOS[name]()})
        print("  ok", flush=True)

    report = {
        "schema": "repro-smoke/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
