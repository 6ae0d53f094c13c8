"""E1 at the paper's size: five seed pairs of 100 MB flows, as one table.

E1 (``benchmarks/bench_validation_flows.py``) runs at 20 MB in tier-1 and
stays a strict xfail.  This script reports it at the paper's 100 MB on
the five (topology, flow) seed pairs fixed before measuring: the
harness's own (42, 7) and (1, 1) to (4, 4).  For each pair it prints

* one cell per model configuration, neutral (bandwidth and latency
  factors 1.0) and CM02 (0.92, 10.4): median |gap| / max |gap| /
  sum(fluid) / sum(packet), and which of E1's thresholds (< 0.25, < 0.60,
  within 25 %) fail;
* for each flow: its hop count, route latency, bottleneck sharing count
  (how many of the ten flows cross the route link with the smallest
  bandwidth per crossing flow) and its gap under both configurations;
* the wall-clock line: the packet-level and fluid (neutral) times and
  their ratio, E7's "the gap only widens" measured at 100 MB.

The packet side takes about 20 s per pair, so pytest does not collect
this file.  Run it from the repository root::

    PYTHONPATH=src python -m benchmarks.e1_paper_size
    PYTHONPATH=src python -m benchmarks.e1_paper_size \\
        --expected benchmarks/e1_paper_size_expected.txt

With ``--expected`` it exits 1 when any printed line but the wall-clock
lines differs from the file, naming the lines; ``--record FILE`` writes
that file from the run.
"""

import argparse
import statistics
import sys
import time

from benchmarks.bench_validation_flows import fluid_rates, packet_rates
from repro.platform.brite import make_waxman_topology, random_flows
from repro.surf.engine import SurfEngine
from repro.surf.network import NetworkModel, NetworkModelConfig

SEED_PAIRS = ((42, 7), (1, 1), (2, 2), (3, 3), (4, 4))
NUM_NODES = 10
NUM_FLOWS = 10
FLOW_BYTES = 100e6
CONFIGS = (("neutral", NetworkModelConfig()),
           ("CM02", NetworkModelConfig(bandwidth_factor=0.92,
                                       latency_factor=10.4)))
#: Lines starting with this are wall-clock readings, never compared.
WALL_CLOCK = "wall-clock"


def flows_of(pair):
    """The pair's platform (not yet realized) and its ten flows."""
    topology_seed, flow_seed = pair
    platform = make_waxman_topology(num_nodes=NUM_NODES, seed=topology_seed)
    return platform, random_flows(platform, num_flows=NUM_FLOWS,
                                  seed=flow_seed)


def attribution(platform, flows):
    """Per flow: hop count, route latency (s) and bottleneck sharing
    count, the bottleneck being the route link with the smallest
    bandwidth per crossing flow (the first such link on a tie)."""
    routes = [platform.route_links(src, dst) for src, dst in flows]
    crossing = {}
    for route in routes:
        for name in route:
            crossing[name] = crossing.get(name, 0) + 1
    rows = []
    for route in routes:
        links = [platform.links[name] for name in route]
        bottleneck = min(route, key=lambda name: (
            platform.links[name].bandwidth / crossing[name]))
        rows.append((len(route), sum(link.latency for link in links),
                     crossing[bottleneck]))
    return rows


def cell(fluid, packet):
    """``(median |gap|, max |gap|, sum ratio, failed thresholds)``."""
    gaps = [abs(f - p) / p for f, p in zip(fluid, packet)]
    median, worst = statistics.median(gaps), max(gaps)
    # E1's aggregate check is pytest.approx(sum(packet), rel=0.25).
    within = abs(sum(fluid) - sum(packet)) <= 0.25 * sum(packet)
    failed = [name for name, ok in (("median", median < 0.25),
                                    ("max", worst < 0.60),
                                    ("aggregate", within))
              if not ok]
    return median, worst, sum(fluid) / sum(packet), failed


def report(pair):
    """The printed lines of one seed pair, wall-clock line last, and the
    thresholds each configuration fails."""
    platform, flows = flows_of(pair)
    start = time.perf_counter()
    packet = packet_rates(platform, flows, FLOW_BYTES)
    packet_s = time.perf_counter() - start
    fluid, fluid_s = {}, {}
    for name, config in CONFIGS:
        realized = flows_of(pair)[0]
        realized.realize(SurfEngine(network_model=NetworkModel(config)))
        start = time.perf_counter()
        fluid[name] = fluid_rates(realized, flows, FLOW_BYTES)
        fluid_s[name] = time.perf_counter() - start

    lines = [f"== seeds {pair}: {NUM_FLOWS} flows of {FLOW_BYTES / 1e6:g} MB"
             f" on a {NUM_NODES}-node Waxman graph ==",
             f"{'config':<8} {'median':>7} {'max':>7} {'sum f/p':>8}  verdict"]
    failed_by = {}
    for name, _ in CONFIGS:
        median, worst, aggregate, failed = cell(fluid[name], packet)
        failed_by[name] = failed
        verdict = "fails: " + ", ".join(failed) if failed else "passes"
        lines.append(f"{name:<8} {median:7.3f} {worst:7.3f} {aggregate:8.3f}"
                     f"  {verdict}")
    lines.append(f"{'flow':>4} {'pair':<15} {'hops':>4} {'lat ms':>7} "
                 f"{'shared':>6} {'packet MB/s':>11} "
                 + " ".join(f"{'gap ' + name:>11}" for name, _ in CONFIGS))
    for idx, ((src, dst), (hops, latency, shared)) in enumerate(
            zip(flows, attribution(platform, flows))):
        gaps = " ".join(
            f"{(fluid[name][idx] - packet[idx]) / packet[idx]:+11.3f}"
            for name, _ in CONFIGS)
        lines.append(f"{idx + 1:>4} {src + '->' + dst:<15} {hops:>4} "
                     f"{latency * 1e3:7.1f} {shared:>6} "
                     f"{packet[idx] / 1e6:11.3f} {gaps}")
    neutral_s = fluid_s[CONFIGS[0][0]]
    lines.append(f"{WALL_CLOCK}: packet {packet_s:.1f} s, fluid (neutral) "
                 f"{neutral_s:.3f} s, packet/fluid {packet_s / neutral_s:.0f}x")
    return lines, failed_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expected", help="fail unless the table equals "
                        "this file (wall-clock lines aside)")
    parser.add_argument("--record", help="write the table (wall-clock "
                        "lines aside) to this file")
    args = parser.parse_args(argv)

    table, passes = [], 0
    for pair in SEED_PAIRS:
        lines, failed_by = report(pair)
        passes += not failed_by["CM02"]
        for line in lines:
            print(line, flush=True)
        table += lines + [""]
    summary = (f"CM02 passes all three thresholds on {passes} of "
               f"{len(SEED_PAIRS)} pairs")
    print(summary)
    table.append(summary)
    kept = [line for line in table if not line.startswith(WALL_CLOCK)]
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            handle.write("\n".join(kept) + "\n")
    if args.expected:
        with open(args.expected, encoding="utf-8") as handle:
            expected = handle.read().splitlines()
        if kept != expected:
            print(f"\nthe table differs from {args.expected}:")
            for index in range(max(len(kept), len(expected))):
                got = kept[index] if index < len(kept) else "<missing>"
                want = (expected[index] if index < len(expected)
                        else "<missing>")
                if got != want:
                    print(f"  line {index + 1}\n    expected {want!r}\n"
                          f"    got      {got!r}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
