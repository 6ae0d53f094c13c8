#!/usr/bin/env python3
"""perfbench: five workloads, end-to-end and per-layer metrics, one command.

    python3 perfbench/run.py                      # the whole suite
    python3 perfbench/run.py --only fleet_star --reps 5 --output F.json
    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --regold             # rewrite golden.json

Every repetition is one fresh ``python3 perfbench/rep.py`` subprocess, run
one at a time.  Without ``--seconds`` the suite makes ``--reps`` timed
rounds over the selected workloads (round-robin, order reversed every
other round, so a slow phase of the machine spreads over all workloads),
then one traced and two counted repetitions each.  With ``--seconds``
(the form ``BENCHMARK.json`` describes) one workload is repeated until
the time is used up and the last line printed is the contract's JSON
object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:       # started as a script, not with -m
    sys.path.insert(0, str(ROOT))

from perfbench.calibrate import KERNEL_REF_S, kernel  # noqa: E402
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

#: Seeds with pinned goldens; 2 is held out for later claims.
GOLDEN_SEEDS = (1, 2)
#: Scale of the self-tests' tiny goldens.
TEST_SCALE = 0.02
#: The counted repetitions run at a tenth of the size (cProfile is slow).
COUNTED_SCALE = 0.1
#: A time-bounded run makes at least this many rounds.
MIN_ROUNDS = 3
#: Per-repetition cap, below the contract's 180 s per run.
REP_TIMEOUT_S = 150
#: Calibration passes between two repetitions (each repetition gets both
#: sides: 16 passes, 0.4 s of kernel time around about a second of work).
KERNEL_PASSES = 8

#: Environment every repetition runs under: pools off, hashing fixed.
PINNED_ENV = {"REPRO_PARALLEL": "0", "REPRO_CAMPAIGN_WORKERS": "0",
              "PYTHONHASHSEED": "0"}


def declaration() -> dict:
    """``BENCHMARK.json``: the one place metric names and units live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- one repetition ---------------------------------------------------------------------

def spawn_rep(workload: str, seed: int, scale: float, kind: str,
              flat: bool = False) -> dict:
    """Run one repetition in a fresh interpreter; a crash is a failed op."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale), "--kind", kind]
    if flat:
        command.append("--flat")
    rep = {"workload": workload, "seed": seed, "scale": scale, "kind": kind}
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        rep["crash"] = f"no result within {REP_TIMEOUT_S} s"
        return rep
    if done.returncode != 0:
        rep["crash"] = done.stderr.strip()[-2000:] or f"exit {done.returncode}"
        return rep
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_counts(rep: dict) -> dict:
    """Everything a repetition counted: public stats plus span counts."""
    counts = dict(rep["counts"])
    run = rep.get("spans", {}).get("run")
    if run is not None:
        def span(name, field):
            return run.get(name, {}).get(field, 0)
        counts["kernel.resumes"] = span("kernel.resume", "count")
        counts["kernel.timers_fired"] = span("kernel.timer", "tally")
        counts["surf.steps"] = span("surf.step", "count")
        counts["platform.route_calls"] = span("platform.route", "count")
        counts["campaign.restores"] = span("campaign.restore", "count")
    return counts


def golden_key(workload: str, seed: int, scale: float) -> str:
    return f"{workload}|seed={seed}|scale={scale:g}"


def load_goldens() -> dict:
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def problems_of(rep: dict, expected: dict) -> list:
    """Why a repetition counts as failed (empty list: it passed).

    ``expected`` is the pinned golden when there is one, else the first
    repetition of the same inputs in this command: simulated results are
    a pure function of the inputs, so two runs must agree to the bit.
    """
    if "crash" in rep:
        return [f"crashed: {rep['crash']}"]
    problems = list(rep["broken"])
    for key in ("final_date", "events"):
        if rep[key] != expected[key]:
            problems.append(f"{key} {rep[key]} != expected {expected[key]}")
    for name, value in exact_counts(rep).items():
        pinned = expected["counts"].get(name, value)
        if value != pinned:
            problems.append(f"{name} {value} != expected {pinned}")
    return problems


# -- measuring ---------------------------------------------------------------------------

def measure(names, seed, scale, kinds, rounds=None, seconds=None) -> dict:
    """Rounds of repetitions: every round, each workload runs each kind.

    Kernel passes run between repetitions; each repetition's ``slowdown``
    is the mean of the passes on both sides of it over ``KERNEL_REF_S``.
    """
    reps = {name: [] for name in names}
    started = time.monotonic()
    done = 0
    before = [kernel() for _ in range(KERNEL_PASSES)]
    while (done < rounds if seconds is None else
           done < MIN_ROUNDS or time.monotonic() - started < seconds):
        for name in (names if done % 2 == 0 else names[::-1]):
            for kind in kinds:
                rep = spawn_rep(name, seed, scale, kind)
                after = [kernel() for _ in range(KERNEL_PASSES)]
                rep["slowdown"] = (statistics.mean(before + after)
                                   / KERNEL_REF_S)
                before = after
                reps[name].append(rep)
        done += 1
    return reps


def spread(values) -> dict:
    """Median, quartiles, extremes and a 95 % interval for the median.

    The interval is distribution-free: dropping ``d`` order statistics on
    each side covers the median with probability ``1 - 2 P(Bin(n, 1/2) <=
    d)``.  Unlike the quartiles it narrows as repetitions are added.
    """
    ordered = sorted(values)
    n = len(ordered)
    q1, median, q3 = (statistics.quantiles(ordered, n=4)
                      if n > 1 else ordered * 3)
    drop, tail = 0, 0.5 ** n
    while tail + math.comb(n, drop + 1) * 0.5 ** n <= 0.025:
        drop += 1
        tail += math.comb(n, drop) * 0.5 ** n
    return {"n": n, "min": ordered[0], "q1": q1, "median": median,
            "q3": q3, "max": ordered[-1],
            "ci_low": ordered[drop], "ci_high": ordered[n - 1 - drop]}


def end_to_end(rep: dict) -> dict:
    """One repetition's end-to-end sample, host times at reference speed."""
    setup_s = rep["setup_s"] / rep["slowdown"]
    run_s = rep["run_s"] / rep["slowdown"]
    return {"events_per_s": rep["events"] / run_s, "setup_s": setup_s,
            "peak_rss_mb": rep["peak_rss_mb"], "total_s": setup_s + run_s}


def per_layer(timed, traced, counted) -> dict:
    """Per-layer metrics of one workload: ``{name: (value, exact)}``.

    Times come from one traced repetition — the median one by ``total_s``
    — so that its self times (everything but the two ``run_s`` roots) add
    up to its root, and are at reference speed like the end-to-end times;
    counts are exact; the call counts are exact only if both counted
    repetitions agree.
    """
    def total_s(rep):
        return end_to_end(rep)["total_s"]

    typical = sorted(traced, key=total_s)[len(traced) // 2]

    def timing(name, field, phases=("run",)):
        return sum(typical["spans"][phase].get(name, {}).get(field, 0.0)
                   for phase in phases) / typical["slowdown"]

    whole = ("setup", "run")
    events = typical["events"]
    counts = exact_counts(typical)
    crossing = counts.pop("shard.crosszone_flows", 0)
    counts.pop("campaign.dates_digest", None)
    values = {name: (value, True) for name, value in counts.items()}
    for name, value in {
        "timed.run_s": timing("run", "total_s"),
        "timed.self_s": timing("run", "self_s"),
        "kernel.resume_self_s": timing("kernel.resume", "self_s"),
        "kernel.timer_self_s": timing("kernel.timer", "self_s"),
        "s4u.run_s": timing("s4u.run", "total_s"),
        "s4u.self_s": timing("s4u.run", "self_s"),
        "s4u.engine_init_s": timing("s4u.engine_init", "self_s", whole),
        "s4u.add_actor_s": timing("s4u.add_actor", "self_s", whole),
        "surf.step_self_s": timing("surf.step", "self_s"),
        "lmm.solve_self_s": timing("lmm.solve", "self_s"),
        "platform.build_s": timing("platform.build", "self_s", whole),
        "platform.realize_s": timing("platform.realize", "self_s", whole),
        "platform.route_self_s": timing("platform.route", "self_s"),
        "campaign.snapshot_s": timing("campaign.snapshot", "self_s", whole),
        "campaign.restore_self_s": timing("campaign.restore", "self_s"),
        "campaign.runner_self_s": timing("campaign.runner", "self_s"),
        "py.import_s": statistics.median(
            rep["import_s"] / rep["slowdown"] for rep in timed),
        "trace.overhead_ratio": (
            statistics.median(total_s(rep) for rep in traced)
            / statistics.median(total_s(rep) for rep in timed)),
    }.items():
        values[name] = (value, False)
    steps = counts["surf.steps"]
    values["surf.events_per_step"] = (events / steps if steps else 0.0, True)
    lookups = (counts["platform.route_cache_hits"]
               + counts["platform.route_cache_misses"])
    values["platform.route_hit_ratio"] = (
        counts["platform.route_cache_hits"] / lookups if lookups else 0.0,
        True)
    values["shard.migrations_per_crosszone_flow"] = (
        counts["shard.migrations"] / crossing if crossing else 0.0, True)

    calls = [rep["calls"] for rep in counted]
    repeatable = all(c == calls[0] for c in calls)
    counted_events = counted[0]["events"]
    values["py.calls_per_event"] = (calls[0]["total"] / counted_events,
                                    repeatable)
    for layer in ("kernel", "s4u", "surf", "lmm", "shard", "platform",
                  "campaign", "replay", "ft"):
        values[f"py.calls_per_event.{layer}"] = (
            calls[0]["by_layer"].get(layer, 0) / counted_events, repeatable)
    return values


def summarize(name, reps, goldens, declared) -> dict:
    """One workload's section of the result file."""
    failures = []
    reference = {}
    for rep in reps:
        key = golden_key(name, rep["seed"], rep["scale"])
        if "crash" not in rep:
            reference.setdefault(key, dict(rep, counts=exact_counts(rep)))
        expected = goldens.get(key) or reference.get(key)
        rep["problems"] = problems_of(rep, expected)
        failures.extend(rep["problems"])
    ok = [rep for rep in reps if not rep["problems"]]
    by_kind = {kind: [r for r in ok if r["kind"] == kind]
               for kind in ("timed", "traced", "counted")}
    section = {"ops_attempted": len(reps),
               "ops_failed": sum(1 for rep in reps if rep["problems"]),
               "failures": failures, "end_to_end": {}, "per_layer": {}}
    timed = by_kind["timed"]
    if timed:
        samples = [end_to_end(rep) for rep in timed]
        for metric in declared["end_to_end"]:
            section["end_to_end"][metric["name"]] = dict(
                spread([s[metric["name"]] for s in samples]),
                unit=metric["unit"], better=metric["better"],
                bound=metric["bound"])
    if timed and by_kind["traced"] and by_kind["counted"]:
        values = per_layer(timed, by_kind["traced"], by_kind["counted"])
        for metric in declared["per_layer"]:
            value, exact = values.get(metric["name"], (0, True))
            section["per_layer"][metric["name"]] = {
                "value": value, "unit": metric["unit"], "exact": exact}
    section["reps"] = [
        {key: rep.get(key) for key in ("kind", "seed", "scale", "slowdown",
                                       "import_s", "setup_s", "run_s",
                                       "peak_rss_mb",
                                       "events", "final_date", "problems")}
        for rep in reps]
    return section


# -- reporting ----------------------------------------------------------------------------

def fingerprint(args, started, load_start, pools) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None       # the driver's checkout is not a repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
        "resolved_pools": pools,
        "kernel_ref_s": KERNEL_REF_S,
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "reps": args.reps if args.seconds is None else None,
        "seconds": args.seconds,
        "seed": args.seed,
        "scale": args.scale,
        "git_commit": commit,
        "wall_s": time.monotonic() - started,
    }


def print_tables(result: dict) -> None:
    for name, section in result["workloads"].items():
        print(f"\n== {name}: {section['ops_failed']} failed of "
              f"{section['ops_attempted']} repetitions ==")
        for problem in section["failures"]:
            print(f"  FAILED: {problem}")
        for metric, row in section["end_to_end"].items():
            print(f"  {metric:<40} {row['median']:>14.4f} {row['unit']:<9}"
                  f" median of {row['n']} (95 % interval "
                  f"{row['ci_low']:.4f}..{row['ci_high']:.4f}; min "
                  f"{row['min']:.4f}, quartiles {row['q1']:.4f}.."
                  f"{row['q3']:.4f}, max {row['max']:.4f})")
        for metric, row in section["per_layer"].items():
            kind = "" if row["exact"] else "  (measured, not a count)"
            print(f"  {metric:<40} {row['value']:>14.6g} {row['unit']:<9}"
                  f"{kind}")
    if any(section["end_to_end"] for section in result["workloads"].values()):
        print("\nMedians over the timed repetitions, host times at "
              "reference speed (see the README); with this few samples no "
              "tail percentile is reported.")


def write_traces(reps: dict) -> None:
    for name, workload_reps in reps.items():
        traced = [r for r in workload_reps if r.get("spans")]
        if traced:
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"trace-{name}.json", "w",
                      encoding="utf-8") as handle:
                json.dump({"workload": name, "seed": traced[-1]["seed"],
                           "spans": traced[-1]["spans"],
                           "raw_spans": traced[-1]["raw_spans"]}, handle)


def contract_line(section: dict, trace) -> str:
    """The contract's one-line result for a single-workload run."""
    rows = section["per_layer" if trace else "end_to_end"]
    metrics = {name: {"value": row["value" if trace else "median"],
                      "unit": row["unit"]} for name, row in rows.items()}
    return json.dumps({"correct": section["ops_failed"] == 0,
                       "attempted": section["ops_attempted"],
                       "failed": section["ops_failed"], "metrics": metrics})


# -- goldens ------------------------------------------------------------------------------

def regold(names) -> int:
    """Rewrite ``golden.json`` — the only writer of that file."""
    goldens = {}
    for name in names:
        for seed, scale in ([(seed, 1.0) for seed in GOLDEN_SEEDS]
                            + [(1, TEST_SCALE)]):
            rep = spawn_rep(name, seed, scale, "traced")
            if "crash" in rep or rep["broken"]:
                print(f"{name} seed {seed} scale {scale:g}: "
                      f"{rep.get('crash') or rep['broken']}", file=sys.stderr)
                return 1
            if name == "fleet_zoned":
                # Bit-identity spine: the flat kernel gives the same dates.
                flat = spawn_rep(name, seed, scale, "timed", flat=True)
                if (flat.get("final_date"), flat.get("events")) != (
                        rep["final_date"], rep["events"]):
                    print(f"fleet_zoned seed {seed}: flat kernel disagrees "
                          f"with the sharded one", file=sys.stderr)
                    return 1
            goldens[golden_key(name, seed, scale)] = {
                "final_date": rep["final_date"], "events": rep["events"],
                "counts": exact_counts(rep)}
            print(f"pinned {golden_key(name, seed, scale)}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# -- entry point --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", "--only", dest="workload",
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=25,
                        help="timed repetitions per workload (default 25)")
    parser.add_argument("--seconds", type=float,
                        help="repeat for this long instead of --reps times")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --seconds: 0 measures and prints the "
                             "end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor (goldens exist for 1 "
                             f"and {TEST_SCALE})")
    parser.add_argument("--output", help="result file (default: "
                                         "perfbench/out/result-*.json)")
    parser.add_argument("--regold", action="store_true",
                        help="rewrite perfbench/golden.json and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/ — there is no "
              "program here to measure", file=sys.stderr)
        return 2
    declared = declaration()
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"pick one of {', '.join(names)}")
        names = [args.workload]
    if args.regold:
        return regold(names)
    if (args.seconds is None) != (args.trace is None) or (
            args.seconds is not None and args.workload is None):
        parser.error("--seconds, --trace and --workload go together")

    started = time.monotonic()
    load_start = os.getloadavg()[0]
    contract = args.seconds is not None
    layers = not contract or args.trace == 1
    if contract:
        kinds = ["timed", "traced"] if layers else ["timed"]
        reps = measure(names, args.seed, args.scale, kinds,
                       seconds=args.seconds)
    else:
        reps = measure(names, args.seed, args.scale, ["timed"],
                       rounds=args.reps)
        for name, more in measure(names, args.seed, args.scale, ["traced"],
                                  rounds=1).items():
            reps[name].extend(more)
    if layers:
        for name, more in measure(names, args.seed,
                                  args.scale * COUNTED_SCALE, ["counted"],
                                  rounds=2).items():
            reps[name].extend(more)

    goldens = load_goldens()
    pools = next((rep["pools"] for all_reps in reps.values()
                  for rep in all_reps if "pools" in rep), None)
    result = {
        "schema": "perfbench/1",
        "fingerprint": fingerprint(args, started, load_start, pools),
        "workloads": {
            w["name"]: dict(summarize(w["name"], reps[w["name"]], goldens,
                                      declared), why=w["why"])
            for w in declared["workloads"] if w["name"] in reps},
        "claim": None,
    }
    write_traces(reps)
    output = Path(args.output) if args.output else OUT / (
        f"result-{'-'.join(names) if contract else 'suite'}"
        f"-seed{args.seed}{'-trace%d' % args.trace if contract else ''}.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print_tables(result)
    print(f"\nresult file: {output}")

    if not contract:
        return 1 if any(section["ops_failed"]
                        for section in result["workloads"].values()) else 0
    section = result["workloads"][names[0]]
    if not section["per_layer" if layers else "end_to_end"]:
        print("perfbench: no repetition passed, nothing to report",
              file=sys.stderr)
        return 1
    print(contract_line(section, layers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
