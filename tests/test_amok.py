"""Tests for the AMOK toolbox: bandwidth measurement, topology, saturation."""

import pytest

from repro.amok import (
    BandwidthMeter,
    SaturationExperiment,
    TopologyInference,
)
from repro.gras import SimWorld
from repro.platform import make_dumbbell, make_star, make_two_site_grid


def measure_pair(platform, src, dst, payload_bytes=2_000_000, port=6100):
    """Run one AMOK measurement between two hosts of a fresh platform."""
    world = SimWorld(platform)
    meter = BandwidthMeter(payload_bytes=payload_bytes)
    out = {}

    def source(proc):
        out["result"] = meter.measure(proc, dst, port, reply_port=port + 1)
        meter.stop_sink(proc, dst, port)

    def sink(proc):
        meter.sink(proc, port)

    world.add_process("sink", dst, sink)
    world.add_process("source", src, source)
    world.run()
    return out["result"]


class TestBandwidthMeter:
    def test_measured_bandwidth_matches_platform(self):
        platform = make_star(num_hosts=2, link_bandwidth=1.25e6,
                             link_latency=1e-3)
        result = measure_pair(platform, "leaf-0", "leaf-1")
        # route crosses two 1.25 MB/s links -> 1.25 MB/s end to end
        assert result.bandwidth == pytest.approx(1.25e6, rel=0.2)

    def test_measured_latency_matches_platform(self):
        platform = make_star(num_hosts=2, link_bandwidth=12.5e6,
                             link_latency=5e-3)
        result = measure_pair(platform, "leaf-0", "leaf-1")
        # one-way latency is two hops of 5 ms = 10 ms (plus header cost)
        assert 0.009 < result.latency < 0.03

    def test_wan_is_slower_than_lan(self):
        grid = make_two_site_grid(hosts_per_site=2)
        lan = measure_pair(grid, "siteA-0", "siteA-1")
        wan = measure_pair(make_two_site_grid(hosts_per_site=2),
                           "siteA-0", "siteB-0")
        assert wan.bandwidth < lan.bandwidth
        assert wan.latency > lan.latency

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            BandwidthMeter(payload_bytes=0)


class TestTopologyInference:
    def test_two_sites_recovered_from_bandwidths(self):
        hosts = ["a0", "a1", "b0", "b1"]
        bandwidth = {}
        for i, src in enumerate(hosts):
            for dst in hosts[i + 1:]:
                same_site = src[0] == dst[0]
                bandwidth[(src, dst)] = 100e6 if same_site else 5e6
        topology = TopologyInference().infer(hosts, bandwidth)
        assert topology.num_clusters == 2
        assert topology.cluster_of("a0") == topology.cluster_of("a1")
        assert topology.cluster_of("b0") == topology.cluster_of("b1")
        assert topology.cluster_of("a0") != topology.cluster_of("b0")
        (pair, inter_bw), = topology.inter_bandwidth.items()
        assert inter_bw == pytest.approx(5e6)

    def test_uniform_bandwidths_give_single_cluster(self):
        hosts = ["x", "y", "z"]
        bandwidth = {(a, b): 1e7 for i, a in enumerate(hosts)
                     for b in hosts[i + 1:]}
        topology = TopologyInference().infer(hosts, bandwidth)
        assert topology.num_clusters == len(hosts) or topology.num_clusters == 1
        # with a flat matrix nothing exceeds 2x the median, so no merge at all
        assert topology.num_clusters == len(hosts)

    def test_empty_and_single_host(self):
        inference = TopologyInference()
        assert inference.infer([], {}).num_clusters == 0
        single = inference.infer(["only"], {})
        assert single.clusters == [["only"]]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            TopologyInference(ratio_threshold=1.0)

    def test_end_to_end_with_simulated_measurements(self):
        """AMOK measurements on a two-site grid recover the two sites."""
        hosts = ["siteA-0", "siteA-1", "siteB-0", "siteB-1"]
        bandwidth = {}
        for i, src in enumerate(hosts):
            for dst in hosts[i + 1:]:
                result = measure_pair(make_two_site_grid(hosts_per_site=2),
                                      src, dst, payload_bytes=500_000)
                bandwidth[(src, dst)] = result.bandwidth
        topology = TopologyInference().infer(hosts, bandwidth)
        assert topology.num_clusters == 2
        assert topology.cluster_of("siteA-0") == topology.cluster_of("siteA-1")
        assert topology.cluster_of("siteB-0") == topology.cluster_of("siteB-1")


class TestSaturation:
    def test_sharing_flows_interfere(self):
        experiment = SaturationExperiment(probe_bytes=5e6)
        result = experiment.run(
            lambda: make_dumbbell(num_left=2, num_right=2),
            measured_pair=("left-0", "right-0"),
            saturating_pair=("left-1", "right-1"))
        assert result.shares_bottleneck
        assert result.interference_ratio == pytest.approx(0.5, abs=0.15)

    def test_disjoint_flows_do_not_interfere(self):
        experiment = SaturationExperiment(probe_bytes=5e6)
        result = experiment.run(
            lambda: make_dumbbell(num_left=3, num_right=3),
            measured_pair=("left-0", "left-1"),
            saturating_pair=("left-2", "right-0"))
        # the measured pair stays on its side of the dumbbell: its links are
        # not crossed by the saturating flow except... left links are private
        assert result.interference_ratio > 0.8
        assert not result.shares_bottleneck
