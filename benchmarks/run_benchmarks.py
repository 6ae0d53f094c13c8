#!/usr/bin/env python3
"""Benchmark runner: execute the bench_* scenarios, write machine-readable JSON.

Unlike the pytest harnesses in this directory (which print paper-artefact
tables and assert on simulated results), this runner is about the *perf
trajectory* of the simulator itself across PRs.  It imports the scenario
functions directly — no pytest, no plugins — times them, and writes a JSON
report (``BENCH.json`` by default) with, per scenario and size:

* ``wall_clock_s`` — how long the simulation took for real;
* ``events_per_s`` — simulated activity completions per wall-clock second,
  when the scenario can count them;
* ``peak_actors`` — how many simulated actors were alive at peak;
* scenario-specific metrics (simulated time, LMM solver counters...).

Usage::

    PYTHONPATH=../src python run_benchmarks.py              # full sweep
    PYTHONPATH=../src python run_benchmarks.py --smoke      # CI smoke sizes
    PYTHONPATH=../src python run_benchmarks.py --smoke --enforce-budgets
    PYTHONPATH=../src python run_benchmarks.py --only s4u_scale
    PYTHONPATH=../src python run_benchmarks.py --only s4u_scale --profile
    PYTHONPATH=../src python run_benchmarks.py --output /tmp/bench.json

See README.md in this directory for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)


# ----------------------------------------------------------------------------------
# scenario wrappers: callable(size) -> metrics dict (wall clock is measured
# by the runner; wrappers report simulated results and event counts)
# ----------------------------------------------------------------------------------

def _scalability_processes(size):
    from bench_scalability_processes import (TASKS_PER_WORKER, master_worker)
    simulated = master_worker(size)
    # Per worker: TASKS_PER_WORKER execs + (TASKS_PER_WORKER + 1) messages.
    return {
        "simulated_time_s": simulated,
        "peak_actors": size + 1,
        "events": size * (2 * TASKS_PER_WORKER + 1),
    }


def _s4u_scale(size):
    from bench_s4u_scale import run_fleet
    result = run_fleet(num_workers=size)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["activities"],
        "lmm": result["lmm"],
        "kernel": result["kernel"],
    }


def _sharded_zones(size):
    from bench_s4u_scale import run_sharded_zones
    result = run_sharded_zones(num_hosts=size)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["activities"],
        "lmm": result["lmm"],
        "kernel": result["kernel"],
    }


def _s4u_pipeline(size):
    from bench_s4u_scale import run_pipeline
    result = run_pipeline(num_chains=size)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["activities"],
        "lmm": result["lmm"],
    }


def _s4u_race(size):
    from bench_s4u_scale import run_activity_race
    result = run_activity_race(num_actors=size)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["activities"],
        "lmm": result["lmm"],
    }


def _s4u_churn(size):
    from bench_s4u_scale import run_actor_churn
    result = run_actor_churn(waves=10, actors_per_wave=size)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "total_actors": result["total_actors"],
        "events": result["activities"],
        "lmm": result["lmm"],
    }


def _failure_churn(size):
    from bench_s4u_scale import run_failure_churn
    result = run_failure_churn(num_workers=size, results_target=size * 30)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["events"],
        "failures": result["failures"],
        "restores": result["restores"],
        "restarts": result["restarts"],
        "lmm": result["lmm"],
    }


def _availability_churn(size):
    from bench_availability import run_availability_churn
    result = run_availability_churn(num_workers=size,
                                    results_target=size * 15)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["events"],
        "speed_changes": result["speed_changes"],
        "failures": result["failures"],
        "restarts": result["restarts"],
        "lmm": result["lmm"],
    }


def _replay_cluster(size):
    from bench_availability import run_replay_cluster
    result = run_replay_cluster(num_jobs=size, num_hosts=max(8, size // 8))
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["events"],
        "completed": result["completed"],
        "makespan": result["makespan"],
        "speed_changes": result["speed_changes"],
    }


def _recovery_policies(size):
    from bench_availability import run_recovery_policies
    return run_recovery_policies(num_seeds=size)


def _ft_supervisor_churn(size):
    from bench_ft import run_ft_supervisor_churn
    failures = 120 if size > 128 else (100 if size >= 128 else 20)
    result = run_ft_supervisor_churn(num_jobs=size,
                                     num_hosts=8 if size <= 32 else 16,
                                     max_failures=failures)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["events"],
        "completed": result["completed"],
        "lost": result["lost"],
        "duplicates": result["duplicates"],
        "resubmitted": result["resubmitted"],
        "failures": result["failures"],
        "worker_restarts": result["worker_restarts"],
        "makespan": result["makespan"],
    }


def _smpi_scale(size):
    from bench_s4u_scale import run_smpi_scale
    result = run_smpi_scale(num_ranks=size)
    return {
        "simulated_time_s": result["simulated_time_s"],
        "peak_actors": result["peak_actors"],
        "events": result["events"],
        "lmm": result["lmm"],
    }


def _lmm_counters(system):
    return {
        "constraints_solved": system.constraints_solved,
        "variables_solved": system.variables_solved,
        "elements_visited": system.elements_visited,
        "heap_pops": system.heap_pops,
    }


def _maxmin_random_solve(size):
    from bench_maxmin_sharing import large_random_solve
    system = large_random_solve(num_constraints=max(4, size // 4),
                                num_variables=size)
    return {"events": size, "lmm": _lmm_counters(system)}


def _maxmin_dense_bottleneck(size):
    from bench_maxmin_sharing import dense_bottleneck_solve
    system = dense_bottleneck_solve(num_variables=size)
    return {"events": size, "lmm": _lmm_counters(system)}


def _smpi_matmul(size):
    from bench_smpi_matmul import homogeneous_platform, simulate
    simulated = simulate(homogeneous_platform, size)
    return {"simulated_time_s": simulated, "peak_actors": size}


def _gantt_clientserver(size):
    from bench_gantt_clientserver import (NUM_CLIENTS, NUM_SERVERS,
                                          REQUESTS_PER_CLIENT, simulate)
    makespan, _recorder = simulate()
    return {
        "simulated_time_s": makespan,
        "peak_actors": NUM_CLIENTS + NUM_SERVERS,
        "events": NUM_CLIENTS * REQUESTS_PER_CLIENT * 3,  # req + exec + ack
    }


def _traces_failures(size):
    from bench_traces_failures import simulate
    outcome = simulate(with_traces=True)
    return {"simulated_time_s": max(
        v for v in outcome.values() if isinstance(v, (int, float)))}


def _fluid_flows(size):
    from bench_speed_fluid_vs_packet import NUM_FLOWS, run_fluid
    simulated = run_fluid()
    return {"simulated_time_s": simulated, "events": NUM_FLOWS}


def _campaign_fanout(size):
    from bench_campaign import run_campaign_fanout
    return run_campaign_fanout(num_seeds=size)


def _routing_scale(size):
    from bench_routing_scale import run_routing_scale
    return run_routing_scale(num_hosts=size)


def _platform_realize(size):
    from bench_routing_scale import run_platform_realize
    return run_platform_realize(num_hosts=size)


#: name -> (wrapper, full sizes, smoke sizes).  ``None`` sizes mean the
#: scenario has one fixed configuration.
SCENARIOS = {
    "scalability_processes": (_scalability_processes, (16, 64, 256, 512),
                              (16,)),
    # The PR 7 acceptance ladder: the full sweep climbs to the 10⁵-actor
    # rung the sharded-kernel PR is judged on.
    "s4u_scale": (_s4u_scale, (1000, 10_000, 100_000), (200,)),
    # Zone-partitioned fleet on the sharded kernel (PR 7): sites map to
    # shards, every eighth worker crosses zones.
    "sharded_zones": (_sharded_zones, (1000, 10_000, 100_000), (200,)),
    "s4u_pipeline": (_s4u_pipeline, (100, 250), (25,)),
    "s4u_race": (_s4u_race, (500, 1000), (100,)),
    "s4u_churn": (_s4u_churn, (100, 250), (25,)),
    "failure_churn": (_failure_churn, (64, 256), (16,)),
    # Availability modulation (PR 9): phase-shifted periodic load dips on
    # every leaf + seeded churn — the trace heap, capacity write path and
    # restart path all hot at once.
    "availability_churn": (_availability_churn, (64, 256), (16,)),
    # Cluster-log replay through the repro.replay frontend (PR 9).
    "replay_cluster": (_replay_cluster, (128, 512), (32,)),
    # Periodic vs event checkpointing over a campaign seed grid, forked
    # from one warmed snapshot (PR 9 on top of the PR 8 runner).
    "recovery_policies": (_recovery_policies, (8, 16), (3,)),
    # Fault-tolerance toolkit (PR 10): supervised at-least-once replay
    # absorbing 100+ host failures at the full sizes with zero lost jobs
    # — detector, resubmitter, supervisor and collector dedup all hot.
    "ft_supervisor_churn": (_ft_supervisor_churn, (128, 256), (32,)),
    "smpi_scale": (_smpi_scale, (16, 32, 64), (8,)),
    "maxmin_random_solve": (_maxmin_random_solve, (800, 3200, 12800), (200,)),
    "maxmin_dense_bottleneck": (_maxmin_dense_bottleneck,
                                (800, 3200, 12800), (200,)),
    "smpi_matmul": (_smpi_matmul, (2, 4, 8), (2,)),
    # Campaign fan-out (PR 8): a seed × config grid (16 seeds × 2 configs
    # at the smoke size) forked from one warmed ``engine.snapshot()`` blob
    # vs cold per-run replays of the warm prefix — bit-identity enforced,
    # fork must win wall-clock.  Workers from REPRO_CAMPAIGN_WORKERS, so
    # CI smokes the serial and 2-worker pool modes.
    "campaign_fanout": (_campaign_fanout, (16, 64), (16,)),
    "gantt_clientserver": (_gantt_clientserver, (None,), (None,)),
    "traces_failures": (_traces_failures, (None,), (None,)),
    "fluid_flows": (_fluid_flows, (None,), (None,)),
    # Hierarchical routing (PR 6): the smoke size IS the acceptance size —
    # a 10⁵-host zoned platform must resolve routes and realize lazily
    # inside the budget, or the O(touched) guarantee regressed.
    "routing_scale": (_routing_scale, (1000, 10_000, 100_000), (100_000,)),
    "platform_realize": (_platform_realize, (1000, 10_000, 100_000),
                         (100_000,)),
}


#: Per-scenario wall-clock budgets for the ``--smoke`` sizes, in seconds.
#: Generous multiples of the recorded smoke times (all a few seconds at
#: most on the lazy kernel, see BENCH_PR7.json) so CI noise never trips them,
#: but a solver regression that reintroduces per-round rescans still fails
#: loudly *attributed to the scenario that caused it* instead of only
#: blowing the job's global timeout.
SMOKE_BUDGETS_S = {
    "scalability_processes": 10.0,
    "s4u_scale": 15.0,
    # Sealed-tree routing (PR 12): 0.07 s recorded.  The O(site)-per-route
    # search this replaced is pinned wall-clock-free in
    # tests/test_routing_zones.py::TestRoutingWorkScaling.
    "sharded_zones": 3.0,
    "s4u_pipeline": 15.0,
    "s4u_race": 10.0,
    "s4u_churn": 10.0,
    "failure_churn": 20.0,
    "availability_churn": 20.0,
    "replay_cluster": 20.0,
    "recovery_policies": 30.0,
    "ft_supervisor_churn": 20.0,
    "smpi_scale": 10.0,
    "maxmin_random_solve": 10.0,
    "maxmin_dense_bottleneck": 10.0,
    "smpi_matmul": 15.0,
    "campaign_fanout": 30.0,
    "gantt_clientserver": 10.0,
    "traces_failures": 10.0,
    "fluid_flows": 15.0,
    # 1.1 s recorded at 10⁵ hosts, 0.9 s of it declaring the platform; the
    # per-query search took 3.0 s on the same box.
    "routing_scale": 4.0,
    "platform_realize": 20.0,
}


def run_scenario(name, wrapper, size, profile=False):
    if profile:
        import cProfile
        profiler = cProfile.Profile()
        start = time.perf_counter()
        metrics = profiler.runcall(wrapper, size)
        wall = time.perf_counter() - start
    else:
        start = time.perf_counter()
        metrics = wrapper(size)
        wall = time.perf_counter() - start
    entry = {"scenario": name, "size": size, "wall_clock_s": round(wall, 4)}
    events = metrics.pop("events", None)
    if events is not None:
        entry["events"] = events
        entry["events_per_s"] = round(events / wall, 1) if wall > 0 else None
    entry.update(metrics)
    if profile:
        import pstats
        print(f"--- profile: {name}"
              + (f" size={size}" if size is not None else "")
              + " (top 20 by cumulative time; wall_clock_s includes "
                "profiler overhead) ---")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the simulator benchmarks and write a JSON report.")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes only (CI regression smoke)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", choices=sorted(SCENARIOS),
                        help="run only the given scenario (repeatable)")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each scenario in cProfile and print the "
                             "top-20 cumulative functions (hot-path hunting "
                             "for perf PRs; timings include the profiler)")
    parser.add_argument("--enforce-budgets", action="store_true",
                        help="with --smoke: fail when a scenario exceeds its "
                             "per-scenario wall-clock budget, naming the "
                             "offender (CI regression attribution)")
    parser.add_argument("--output", default=os.path.join(ROOT, "BENCH.json"),
                        help="path of the JSON report (default: %(default)s)")
    args = parser.parse_args(argv)

    names = args.only or sorted(SCENARIOS)
    results = []
    blown = []
    for name in names:
        wrapper, full_sizes, smoke_sizes = SCENARIOS[name]
        for size in (smoke_sizes if args.smoke else full_sizes):
            label = f"{name}" + (f" size={size}" if size is not None else "")
            print(f"running {label} ...", flush=True)
            entry = run_scenario(name, wrapper, size, profile=args.profile)
            print(f"  -> wall={entry['wall_clock_s']:.3f}s "
                  + (f"events/s={entry.get('events_per_s')}"
                     if "events_per_s" in entry else ""), flush=True)
            budget = SMOKE_BUDGETS_S.get(name)
            if (args.smoke and args.enforce_budgets and budget is not None
                    and entry["wall_clock_s"] > budget):
                blown.append((label, entry["wall_clock_s"], budget))
                print(f"  !! budget blown: {entry['wall_clock_s']:.3f}s "
                      f"> {budget:.1f}s", flush=True)
            results.append(entry)

    report = {
        "schema": "repro-bench/1",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }
    # A checked-in report carries the before/after record of the PR that
    # produced it (see README.md); refreshing the numbers must not drop it.
    if os.path.exists(args.output):
        try:
            with open(args.output, "r", encoding="utf-8") as fh:
                previous = json.load(fh)
            for key in ("baseline", "headline"):
                if key in previous:
                    report[key] = previous[key]
        except (OSError, ValueError):
            pass
    if args.profile and args.output == parser.get_default("output"):
        # Profiled wall-clocks include the cProfile overhead; never let
        # them silently clobber the checked-in snapshot.
        print(f"not writing {args.output}: --profile numbers include the "
              "profiler overhead (pass --output explicitly to keep them)")
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    if blown:
        print("per-scenario wall-clock budgets exceeded:")
        for label, wall, budget in blown:
            print(f"  {label}: {wall:.3f}s > budget {budget:.1f}s")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
