"""Experiments E1 and E7 — fluid flow rates against a packet-level simulator.

E1, the paper's validation figure: *"Random topology generated with BRITE
(random bandwidths and latencies); 10 random flows for 10 random
source-destination pairs; each flow transfers 100 MBytes (operation in
steady-state); comparison between NS2, GTNets, and SimGrid.  Flow transfer
rates simulated by SimGrid are within +/-15% of those obtained with
packet-level simulators, with most within only a few percents."*

E7, from the same validation text: the fluid simulation runs *orders of
magnitude faster* than packet-level simulators on the same scenario.

One pair of helpers, :func:`fluid_rates` and :func:`packet_rates`, runs a
list of flows through either simulator.  E1 regenerates the per-flow bar
chart, E7 times both sides and counts their work (packet events against
LMM solves), and three smaller checks (a dumbbell, a small
BRITE topology, the TCP window-bound ablation) test the same property at
sizes quick enough for every run.  E1's flows are scaled down from the
paper's 100 MB to 20 MB to keep the packet-level side tractable in pure
Python.  Both simulators see the same sizes, but 20 MB is not steady
state: at 20 MB the packet-level rate of flow 6 is 1.71 MB/s, flow 8's
2.96 and flow 1's 4.03 (:func:`test_e1_packet_side_is_pinned_to_the_bit`),
while at 100 MB the rows of pair (42, 7) in
``benchmarks/e1_paper_size_expected.txt`` read 2.995, 4.841 and 4.527
(checked by the CI job ``e1-paper-size``).

E1 is an expected failure, and the paper's size does not change that.
``benchmarks/e1_paper_size.py`` prints E1 at 100 MB with neutral factors
and with CM02's (bandwidth 0.92, latency 10.4) on five (topology, flow)
seed pairs fixed before measuring, with a per-flow attribution; the CI
job ``e1-paper-size`` checks it against
``benchmarks/e1_paper_size_expected.txt``.  There CM02 holds the three
thresholds on 2 of 5 pairs: (42, 7) and (4, 4) pass, (1, 1) fails the
median, (2, 2) the max and the aggregate (sum ratio 1.250), (3, 3) the
max and the aggregate.
"""

import functools
import hashlib
import statistics
import time

import pytest

from benchmarks.bench_util import print_table
from repro.packet import PacketSimulator
from repro.platform import make_dumbbell
from repro.platform.brite import make_waxman_topology, random_flows
from repro.s4u import Engine
from repro.surf.engine import SurfEngine
from repro.surf.network import NetworkModel, NetworkModelConfig

NUM_NODES = 10
NUM_FLOWS = 10
FLOW_BYTES = 20e6        # scaled-down stand-in for the paper's 100 MB
SPEED_FLOW_BYTES = 10e6  # E7 keeps the packet side test-friendly
TOPOLOGY_SEED = 42
FLOW_SEED = 7
#: The paper claims +/-15%; 35% is allowed on the dumbbell, where 20 MB
#: flows still feel TCP slow-start in the packet-level average.
TOLERANCE = 0.35


def fluid_rates(platform, flows, size):
    """Simulate one s4u sender/receiver pair per flow with the fluid
    model; return the bytes/s of every flow, in order."""
    return fluid_run(platform, flows, size)[0]


def fluid_run(platform, flows, size):
    """:func:`fluid_rates` and the engine that simulated them."""
    engine = Engine(platform)
    durations = {}

    def sender(actor, mailbox, nbytes):
        yield actor.engine.mailbox(mailbox).put(mailbox, size=nbytes)

    def receiver(actor, mailbox, key):
        start = actor.now
        yield actor.engine.mailbox(mailbox).get()
        durations[key] = actor.now - start

    for idx, (src, dst) in enumerate(flows):
        engine.add_actor(f"send-{idx}", src, sender, f"flow-{idx}", size)
        engine.add_actor(f"recv-{idx}", dst, receiver, f"flow-{idx}", idx)
    engine.run()
    return [size / durations[idx] for idx in range(len(flows))], engine


def packet_rates(platform, flows, size):
    """The same flows through the packet-level comparator."""
    return packet_run(platform, flows, size)[0]


def packet_run(platform, flows, size):
    """:func:`packet_rates` and the simulator that produced them."""
    simulator = PacketSimulator(platform)
    done = simulator.run([(src, dst, size) for src, dst in flows])
    return [flow.throughput for flow in done], simulator


def waxman(num_nodes=NUM_NODES, num_flows=NUM_FLOWS):
    """A fresh BRITE-like topology and its random flows (E1 and E7)."""
    platform = make_waxman_topology(num_nodes=num_nodes, seed=TOPOLOGY_SEED)
    return platform, random_flows(platform, num_flows=num_flows,
                                  seed=FLOW_SEED)


def rates_digest(rates):
    """sha256 over each flow's index and its rate as ``float.hex``."""
    digest = hashlib.sha256()
    for idx, rate in enumerate(rates):
        digest.update(repr((idx, rate.hex())).encode() + b"\n")
    return digest.hexdigest()


@functools.cache
def e1_packet_side():
    """E1's 20 MB packet side, simulated once per session: its ten rates
    and the number of events its queue scheduled."""
    rates, simulator = packet_run(*waxman(), FLOW_BYTES)
    return tuple(rates), next(simulator.events._seq)


def test_e1_no_fluid_flow_beats_its_bottleneck():
    """The fluid side of E1 on its own: every flow gets a positive rate
    no higher than the narrowest link of its route, the ten rates are
    pinned to the bit, and the run takes 18 LMM solves, as at 10 MB."""
    platform, flows = waxman()
    rates, engine = fluid_run(platform, flows, FLOW_BYTES)
    assert rates_digest(rates) == (
        "607684f321e58bbe1188139fcccc28a9f9301020e497e34335cfe8bb380d41ac")
    assert engine.kernel_stats()["solver"]["solve_calls"] == 18
    for rate, (src, dst) in zip(rates, flows):
        bottleneck = min(platform.links[name].bandwidth
                         for name in platform.route_links(src, dst))
        assert 0.0 < rate <= bottleneck, (
            f"flow {src}->{dst} at {rate:.4g} B/s over a "
            f"{bottleneck:.4g} B/s bottleneck")


def test_e1_packet_side_is_pinned_to_the_bit():
    """The packet side of E1 on its own: the ten 20 MB rates as
    ``float.hex``, the 1 477 109 events (E7 pins 735 086 at 10 MB, for the
    same 18 solves), and the three rates the module docstring quotes."""
    rates, events = e1_packet_side()
    assert rates_digest(rates) == (
        "a07e6c1d5039ab98ed3a2cbd354b8751af158e78df9b532ed05c84f142efa5f2")
    assert events == 1_477_109
    assert [f"{rates[flow - 1] / 1e6:.2f}" for flow in (6, 8, 1)] == [
        "1.71", "2.96", "4.03"]


@pytest.mark.xfail(strict=True, reason=(
    "measured, not noise: at 20 MB with neutral model factors median "
    "|gap| is 0.552 and max 1.005 against < 0.25 and < 0.60, because the "
    "20 MB packet-level flows are still ramping up.  The paper's 100 MB "
    "with CM02's factors (bandwidth 0.92, latency 10.4) does not rescue "
    "it: on five seed pairs fixed before measuring, all three thresholds "
    "hold on 2 of 5 ((42, 7), (4, 4)); (1, 1) fails the median, (2, 2) "
    "and (3, 3) the max and the aggregate.  RTT-aware sharing is not the "
    "lever (median 0.55 -> 0.41 but max 1.01 -> 1.26 at 20 MB).  "
    "benchmarks/e1_paper_size.py prints the five-pair table."))
def test_e1_flow_rates_fluid_vs_packet():
    """Regenerates the per-flow transfer-rate comparison (bar chart)."""
    platform, flows = waxman()
    fluid = fluid_rates(platform, flows, FLOW_BYTES)
    packet = e1_packet_side()[0]

    rows = []
    gaps = []
    for idx in range(NUM_FLOWS):
        gap = (fluid[idx] - packet[idx]) / packet[idx]
        gaps.append(abs(gap))
        rows.append((idx + 1, f"{flows[idx][0]}->{flows[idx][1]}",
                     f"{packet[idx] / 1e6:.3f}",
                     f"{fluid[idx] / 1e6:.3f}",
                     f"{gap * +100:+.1f}%"))
    print_table("E1: per-flow transfer rates (MB/s)",
                ["flow", "pair", "packet-level", "SimGrid fluid", "gap"],
                rows)
    print(f"median |gap| = {statistics.median(gaps) * 100:.1f}%, "
          f"max |gap| = {max(gaps) * 100:.1f}% "
          "(paper: within +/-15%, most within a few percent)")

    # Shape assertions: the fluid model is a faithful stand-in for the
    # packet-level baseline.  (Thresholds are looser than the paper's
    # because our flows are 5x shorter, so slow-start weighs more.)
    assert statistics.median(gaps) < 0.25
    assert max(gaps) < 0.60
    # and the two simulators agree on the aggregate bandwidth delivered
    assert sum(fluid) == pytest.approx(sum(packet), rel=0.25)


def test_e7_fluid_simulation_speed_advantage():
    start = time.perf_counter()
    packet, simulator = packet_run(*waxman(), SPEED_FLOW_BYTES)
    packet_wall = time.perf_counter() - start

    start = time.perf_counter()
    _, engine = fluid_run(*waxman(), SPEED_FLOW_BYTES)
    fluid_wall = max(time.perf_counter() - start, 1e-6)

    # The clock-free twin: the packet side processes one event per packet
    # hop and timer (its queue numbers every event it schedules, and the
    # run drains the queue), the fluid side one LMM solve per completion.
    packet_events = next(simulator.events._seq)
    fluid_solves = engine.kernel_stats()["solver"]["solve_calls"]
    work_ratio = packet_events / fluid_solves

    speedup = packet_wall / fluid_wall
    print_table("E7: cost of simulating the E1 scenario",
                ("simulator", "wall-clock (s)", "work"),
                [("packet-level (NS2/GTNetS stand-in)", f"{packet_wall:.3f}",
                  f"{packet_events} events"),
                 ("SimGrid fluid (SURF)", f"{fluid_wall:.4f}",
                  f"{fluid_solves} solves"),
                 ("ratio", f"{speedup:.0f}x", f"{work_ratio:.0f}x")])

    # The paper says "orders of magnitude"; require at least 20x here
    # (the packet side is scaled down to 10 MB flows to stay test-friendly;
    # benchmarks/e1_paper_size.py prints the ratio at the paper's 100 MB).
    assert speedup > 20.0
    # Four orders of magnitude in work, whatever the machine.  The events
    # grow with the flow size while the solves do not: 1 477 109 events
    # against the same 18 solves at 20 MB (E1's two pins).  Not strictly
    # stronger than the wall-clock bound — a per-event cost gap moves no
    # count — so both stay.
    assert work_ratio > 1e4
    assert packet_events == 735_086
    assert fluid_solves == 18
    assert rates_digest(packet) == (
        "3efdc13261d73c6ae3adc19bbcb678fdfb4a47850e02ffb5380670dd3d8a37fe")


def test_dumbbell_rates_agree_within_tolerance():
    flows = [("left-0", "right-0"), ("left-1", "right-1")]
    fluid = fluid_rates(make_dumbbell(num_left=2, num_right=2), flows, 20e6)
    packet = packet_rates(make_dumbbell(num_left=2, num_right=2), flows, 20e6)
    for idx, (f_rate, p_rate) in enumerate(zip(fluid, packet)):
        relative_gap = abs(f_rate - p_rate) / p_rate
        assert relative_gap < TOLERANCE, (
            f"flow {idx}: fluid {f_rate:.0f} vs packet {p_rate:.0f}")


def test_both_models_rank_flows_identically_on_brite():
    """On a random BRITE topology the two simulators agree on who wins."""
    platform, flows = waxman(num_nodes=8, num_flows=4)
    fluid = fluid_rates(platform, flows, 10e6)
    packet = packet_rates(waxman(num_nodes=8, num_flows=4)[0], flows, 10e6)
    # compare the relative ordering of the slowest and fastest flows
    fluid_order = sorted(range(len(flows)), key=lambda i: fluid[i])
    packet_order = sorted(range(len(flows)), key=lambda i: packet[i])
    assert fluid_order[-1] == packet_order[-1] or \
        fluid[fluid_order[-1]] == pytest.approx(fluid[packet_order[-1]],
                                                rel=0.2)


def test_tcp_gamma_bound_brings_fluid_closer_on_long_fat_pipes():
    """Ablation: the window bound matters on high-latency bottlenecks."""
    flows = [("left-0", "right-0")]
    size = 20e6

    def long_fat_pipe(tcp_gamma=None):
        platform = make_dumbbell(num_left=1, num_right=1,
                                 bottleneck_latency=50e-3,
                                 bottleneck_bandwidth=125e6)
        if tcp_gamma is not None:
            platform.realize(SurfEngine(network_model=NetworkModel(
                NetworkModelConfig(tcp_gamma=tcp_gamma))))
        return platform

    packet = packet_rates(long_fat_pipe(), flows, size)[0]
    # without the window bound the fluid model grants the full 125 MB/s
    # regardless of the 100 ms RTT; with it, the rate is capped near
    # window / RTT, which is what real TCP (and the packet model) sees.
    unbounded = fluid_rates(long_fat_pipe(0.0), flows, size)[0]
    bounded = fluid_rates(long_fat_pipe(4194304.0), flows, size)[0]
    assert abs(bounded - packet) <= abs(unbounded - packet)
