"""The five benchmark workloads.

Each builder takes ``(seed, scale)`` and does the workload's *set-up*
(platform generation, ``Engine(...)``, ``add_actor`` x N, warm prefix +
snapshot for the campaign) before returning a :class:`Prepared` whose
``run()`` is the *timed region*.  All randomness comes from ``seed``; the
simulator only ever sees the generated inputs.

The bodies are copies of the scenario code under ``benchmarks/`` — never
imports of it — so later PRs can edit ``benchmarks/bench_*.py`` freely
without moving these numbers.  Only ``repro.*`` and the stdlib are used.
"""

from __future__ import annotations

import hashlib
import inspect
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import campaign, platform as platforms, replay
from repro.s4u import ActivitySet, Engine

__all__ = ["Prepared", "WORKLOADS", "engine_counts"]


@dataclass
class Prepared:
    """A workload after set-up, ready for its timed region."""

    #: The timed region; returns the final simulated date.
    run: Callable[[], float]
    #: Fixed work-unit count — invariant under any dates-preserving change.
    events: int
    #: Workload invariants broken by the run (empty list = none).
    broken: Callable[[], List[str]]
    #: Exact counts read from public surfaces after the run.
    counts: Callable[[], Dict[str, float]]


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512: stable across processes and versions.
    return random.Random(f"perfbench:{workload}:{seed}")


def _scaled(reference: int, scale: float, floor: int) -> int:
    return max(floor, round(reference * scale))


def _make_engine(platform, sharded: bool) -> Engine:
    """``Engine(platform, sharded=...)`` for as long as the variant exists.

    ROADMAP open item 2 may delete the sharded kernel; the benchmark must
    keep running (on whatever kernel is left) when it does.
    """
    if sharded and "sharded" in inspect.signature(Engine.__init__).parameters:
        return Engine(platform, sharded=True)
    return Engine(platform)


def engine_counts(engine: Engine) -> Dict[str, float]:
    """Exact per-layer counts of one engine, from its public stats."""
    stats = engine.kernel_stats()
    counts = {f"lmm.{key}": value for key, value in stats["solver"].items()}
    shards = stats.get("shards", {})
    counts["shard.count"] = shards.get("count", 0)
    counts["shard.migrations"] = shards.get("migrations", 0)
    counts["shard.models"] = stats["models"]
    caches = stats["route_caches"].values()
    for key in ("hits", "misses", "evictions"):
        counts[f"platform.route_cache_{key}"] = sum(c[key] for c in caches)
    counts["platform.cpus_realized"] = len(engine.platform.cpu_by_host)
    counts["platform.links_realized"] = len(engine.platform.link_by_name)
    counts["s4u.restarts"] = engine.restart_count
    return counts


def _overlap_worker(actor, box, flops, msg_bytes):
    """The fleet actor: overlap an exec with a put, reap both by wait_any."""
    comp = yield actor.exec_async(flops)
    comm = yield box.put_async(actor.name, size=msg_bytes)
    pending = ActivitySet([comp, comm])
    while not pending.empty():
        yield pending.wait_any()


def _sink(actor, box, total, received):
    for _ in range(total):
        yield box.get()
        received[0] += 1


# -- fleet_star ---------------------------------------------------------------------

def fleet_star(seed: int, scale: float) -> Prepared:
    num_workers = _scaled(5000, scale, 8)
    rng = _rng("fleet_star", seed)
    # Per-worker sizes spread over U(0.5, 1.5): completion dates are all
    # distinct, so every completion is its own SURF step.
    factors = [rng.uniform(0.5, 1.5) for _ in range(num_workers)]

    platform = platforms.make_star(num_hosts=num_workers, host_speed=1e9,
                                   link_bandwidth=125e6, link_latency=1e-4)
    engine = Engine(platform)
    received = [0]
    box = engine.mailbox("sink")
    engine.add_actor("sink", "center", _sink, box, num_workers, received)
    for i, factor in enumerate(factors):
        engine.add_actor(f"worker-{i}", f"leaf-{i}", _overlap_worker, box,
                         5e7 * factor, 1e4 * factor)

    def broken():
        if received[0] != num_workers:
            return [f"sink received {received[0]} of {num_workers} messages"]
        return []

    # One exec and one comm complete per worker.
    return Prepared(run=engine.run, events=2 * num_workers, broken=broken,
                    counts=lambda: engine_counts(engine))


# -- fleet_zoned --------------------------------------------------------------------

def fleet_zoned(seed: int, scale: float, sharded: bool = True) -> Prepared:
    num_sites = 16
    hosts_per_site = _scaled(320, scale, 9)
    workers_per_site = hosts_per_site - 1       # host 0 runs the site's sink
    crossing_per_site = max(1, workers_per_site // 8)
    rng = _rng("fleet_zoned", seed)

    # Dijkstra intra-site routing: Floyd would seal one predecessor tree
    # per source host, O(hosts_per_site) memory each.
    platform = platforms.make_zoned_grid(
        num_sites=num_sites, hosts_per_site=hosts_per_site, host_speed=1e9,
        lan_bandwidth=125e6, lan_latency=1e-4, wan_bandwidth=125e6,
        wan_latency=1e-3, site_routing="Dijkstra")
    engine = _make_engine(platform, sharded=sharded)
    received = [0]
    expected = [0] * num_sites
    boxes = [engine.mailbox(f"sink-{s}") for s in range(num_sites)]
    for s in range(num_sites):
        # One worker in eight (which ones is seeded) reports to the next
        # site; sizes are homogeneous, so completions land in same-date
        # bursts — the opposite regime from fleet_star.
        crossing = set(rng.sample(range(1, hosts_per_site),
                                  crossing_per_site))
        for i in range(1, hosts_per_site):
            target = (s + 1) % num_sites if i in crossing else s
            expected[target] += 1
            engine.add_actor(f"worker-{s}-{i}", f"site-{s}-host-{i}",
                             _overlap_worker, boxes[target], 5e7, 1e4)
    for s in range(num_sites):
        engine.add_actor(f"sink-{s}", f"site-{s}-host-0", _sink, boxes[s],
                         expected[s], received)
    total = sum(expected)
    crossing_flows = num_sites * crossing_per_site

    def broken():
        if received[0] != total:
            return [f"sinks received {received[0]} of {total} messages"]
        return []

    def counts():
        result = engine_counts(engine)
        result["shard.crosszone_flows"] = crossing_flows
        return result

    return Prepared(run=engine.run, events=2 * total, broken=broken,
                    counts=counts)


# -- wan_contended ------------------------------------------------------------------

def wan_contended(seed: int, scale: float) -> Prepared:
    num_nodes = 40
    num_flows = _scaled(240, scale, 4)
    waves = 2
    rng = _rng("wan_contended", seed)

    platform = platforms.make_waxman_topology(
        num_nodes=num_nodes, seed=42)
    engine = Engine(platform)
    hosts = platform.host_names()
    delivered = [0]

    def sender(actor, box, sizes):
        for size in sizes:
            yield box.put(actor.name, size=size)

    def receiver(actor, box):
        for _ in range(waves):
            yield box.get()
            delivered[0] += 1

    # Blocking multi-hop transfers sharing links: one giant LMM component
    # that is re-solved at every completion.
    pair_rng = random.Random("perfbench:wan_contended:pairs")
    for f in range(num_flows):
        src, dst = pair_rng.sample(hosts, 2)
        sizes = [rng.uniform(5e6, 15e6) for _ in range(waves)]
        box = engine.mailbox(f"flow-{f}")
        engine.add_actor(f"send-{f}", src, sender, box, sizes)
        engine.add_actor(f"recv-{f}", dst, receiver, box)
    total = num_flows * waves

    def broken():
        if delivered[0] != total:
            return [f"{delivered[0]} of {total} transfers delivered"]
        return []

    return Prepared(run=engine.run, events=total, broken=broken,
                    counts=lambda: engine_counts(engine))


# -- replay_ft ----------------------------------------------------------------------

def replay_ft(seed: int, scale: float) -> Prepared:
    num_jobs = _scaled(256, scale, 8)
    num_hosts = _scaled(32, scale, 4)
    max_failures = _scaled(30, scale, 2)
    rng = _rng("replay_ft", seed)

    workload = replay.synthetic_workload(
        seed=rng.randrange(2 ** 31), num_hosts=num_hosts, num_jobs=num_jobs,
        mean_interarrival=0.1, mean_flops=5e8)
    # synthetic_workload derives the horizon from the drawn arrivals; pin
    # it (twice the expected last arrival) so the heartbeat and timeout
    # count — most of this workload's steps — is the same for every seed.
    workload.horizon = 20.0 + 0.2 * num_jobs
    # 1 us links and 1-byte acks: at the default 0.9 ms per ack, 2 seeds in
    # 60 kill a node while its ack is in flight, and the replay's collector
    # does not survive that (see "Known gaps" in the README).
    fleet = replay.ClusterReplay(
        workload, link_latency=1e-6, ack_size=1.0,
        churn_seed=rng.randrange(2 ** 31), churn_mtbf=0.5,
        churn_downtime=0.5, churn_max_failures=max_failures,
        semantics="at_least_once", supervised=True)
    metrics: Dict[str, float] = {}

    def run():
        # Platform declaration, Engine(...) and the frontend actors are
        # inside ClusterReplay.run(): this workload times the frontend as
        # its users call it.
        metrics.update(fleet.run())
        return metrics["final_time"]

    def broken():
        problems = []
        if metrics["lost"] != 0:
            problems.append(f"at-least-once replay lost {metrics['lost']} "
                            f"of {num_jobs} jobs")
        if metrics["completed"] != num_jobs:
            problems.append(f"{metrics['completed']} of {num_jobs} jobs "
                            "completed")
        return problems

    def counts():
        # The heartbeat monitor keeps the engine the replay ran on.
        result = engine_counts(fleet.detector.engine)
        result.update({
            "replay.jobs_completed": metrics["completed"],
            "replay.lost": metrics["lost"],
            "replay.duplicates": metrics["duplicates"],
            "replay.resubmitted": metrics["resubmitted"],
            "ft.suspects": metrics["suspects"],
            "ft.worker_restarts": metrics["worker_restarts"],
            "s4u.failures": metrics["injected_failures"],
            "surf.speed_changes": metrics["speed_changes"],
        })
        return result

    return Prepared(run=run, events=num_jobs, broken=broken, counts=counts)


# -- campaign_fork ------------------------------------------------------------------

#: The warm prefix touches (and so realizes) every leaf of the star; each
#: forked run then works on the first few only, so that unpickling the
#: platform is a fifth of a run, not a thirtieth.
_CAMPAIGN_LEAVES = 1024
_CAMPAIGN_ACTIVE = 128
_CAMPAIGN_ROUNDS = 3
_CAMPAIGN_CONFIGS = ({"label": "light", "flops": 4e6},
                     {"label": "heavy", "flops": 1.2e7})


def _campaign_phase(engine, leaves, rounds, flops, tag, rng=None):
    """One master/worker exchange: ``rounds`` jobs on each of ``leaves``."""
    def worker(actor, index):
        sink = engine.mailbox(tag)
        factor = 1.0 if rng is None else rng.uniform(0.5, 1.5)
        for round_no in range(rounds):
            yield actor.execute(flops * factor * (1 + (index + round_no) % 3))
            comm = yield sink.put_async(index, size=1e4)
            yield comm.wait()

    def master(actor):
        sink = engine.mailbox(tag)
        for _ in range(rounds * leaves):
            yield sink.get()

    engine.add_actor(f"{tag}-master", "center", master)
    for index in range(leaves):
        engine.add_actor(f"{tag}-w{index}", f"leaf-{index}", worker, index)
    return engine.run()


def _campaign_experiment(engine, seed, config):
    """``run_fn`` of the forked campaign: the engine arrives restored."""
    final = _campaign_phase(engine, _CAMPAIGN_ACTIVE, _CAMPAIGN_ROUNDS,
                            config["flops"], f"measured-{seed}",
                            rng=random.Random(seed))
    metrics = engine_counts(engine)
    metrics["final_time_hex"] = final.hex()
    return metrics


def campaign_fork(seed: int, scale: float) -> Prepared:
    num_seeds = _scaled(4, scale, 1)
    rng = _rng("campaign_fork", seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(num_seeds)]
    specs = campaign.grid(seeds, list(_CAMPAIGN_CONFIGS))

    # Set-up pays the shared prefix once: warm the star, snapshot it.
    engine = Engine(platforms.make_star(
        num_hosts=_CAMPAIGN_LEAVES, host_speed=1e9, link_bandwidth=125e6,
        link_latency=1e-4))
    _campaign_phase(engine, _CAMPAIGN_LEAVES, 1, 5e6, "warm")
    blob = engine.snapshot()
    # The engine that was never restored plays the first experiment: the
    # date its forked twin must reproduce bit for bit.
    unforked = _campaign_experiment(engine, specs[0].seed, specs[0].config)
    engine.close()
    runs: List[dict] = []

    def run():
        result = campaign.run_campaign(_campaign_experiment, specs,
                                       workers=0, snapshot=blob)
        runs.extend(result.metrics())
        # The campaign's "final date" is the latest end over its runs.
        return max(float.fromhex(m["final_time_hex"]) for m in runs)

    def broken():
        if len(runs) != len(specs):
            return [f"{len(runs)} of {len(specs)} forked runs reported"]
        if runs[0]["final_time_hex"] != unforked["final_time_hex"]:
            return [f"forked run ended at {runs[0]['final_time_hex']}, the "
                    f"unforked engine at {unforked['final_time_hex']}"]
        return []

    def counts():
        # Solver and cache work summed over the forks; what describes the
        # (shared) platform taken from the first.
        result = {key: value for key, value in runs[0].items()
                  if key != "final_time_hex"}
        for key in result:
            if key.startswith(("lmm.", "platform.route_cache_")):
                result[key] = sum(m[key] for m in runs)
        result["campaign.snapshot_bytes"] = len(blob)
        result["campaign.dates_digest"] = _dates_digest(
            m["final_time_hex"] for m in runs)
        return result

    events = len(specs) * 2 * _CAMPAIGN_ROUNDS * _CAMPAIGN_ACTIVE
    return Prepared(run=run, events=events, broken=broken, counts=counts)


def _dates_digest(hex_dates) -> int:
    """Order-sensitive digest of per-run dates (pins *every* fork's date)."""
    digest = hashlib.sha256("|".join(hex_dates).encode()).digest()
    return int.from_bytes(digest[:6], "big")


#: name -> builder; later issues refer to these names.  Why each was chosen
#: is recorded next to its name in ``BENCHMARK.json`` and in the README.
WORKLOADS = {
    "fleet_star": fleet_star,
    "fleet_zoned": fleet_zoned,
    "wan_contended": wan_contended,
    "replay_ft": replay_ft,
    "campaign_fork": campaign_fork,
}
