"""Tests for the packet-level simulator (the NS2/GTNetS stand-in)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.packet import EventQueue, PacketLink, PacketSimulator
from repro.packet import nic
from repro.packet.tcp import INITIAL_CWND, Packet, TcpFlow
from repro.platform import Platform, make_dumbbell


def single_link_platform(bandwidth=1e6, latency=1e-3):
    platform = Platform("single")
    platform.add_host("src", 1e9)
    platform.add_host("dst", 1e9)
    platform.add_link("wire", bandwidth, latency)
    platform.connect("src", "dst", "wire")
    return platform


class FarEnd:
    """Stands in for a flow at a link's far end: records ``(seq, date)``
    for every packet the link hands to :meth:`forward`."""

    def __init__(self, events):
        self.events = events
        self.arrivals = []

    def forward(self, packet):
        self.arrivals.append((packet.seq, self.events.now))


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, order.append, "late")
        queue.schedule(1.0, order.append, "early")
        queue.run()
        assert order == ["early", "late"]
        assert queue.now == 2.0

    def test_same_date_events_run_in_scheduling_order(self):
        queue = EventQueue()
        order = []
        for label in ("a", "b", "c"):
            queue.schedule(1.0, order.append, label)
        queue.run()
        assert order == ["a", "b", "c"]

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, print, None)


class TestPacketLink:
    def test_serialisation_plus_propagation_delay(self):
        events = EventQueue()
        link = PacketLink("l", bandwidth=1e6, latency=0.5, events=events)
        far = FarEnd(events)
        link.transmit(Packet(far, 0, 1e5, [link]))
        events.run()
        # 1e5 / 1e6 = 0.1 s serialisation + 0.5 s propagation
        assert far.arrivals == [(0, pytest.approx(0.6))]

    def test_back_to_back_packets_queue_behind_each_other(self):
        events = EventQueue()
        link = PacketLink("l", bandwidth=1e6, latency=0.0, events=events)
        far = FarEnd(events)
        for seq in range(3):
            link.transmit(Packet(far, seq, 1e6, [link]))
        events.run()
        assert far.arrivals == [(0, pytest.approx(1.0)),
                                (1, pytest.approx(2.0)),
                                (2, pytest.approx(3.0))]

    def test_queue_is_fifo(self):
        """Queued packets leave in arrival order, whatever their sizes."""
        events = EventQueue()
        link = PacketLink("l", bandwidth=1e6, latency=0.0, events=events)
        far = FarEnd(events)
        for seq, size in enumerate((3e5, 2e5, 1e5, 4e5)):
            link.transmit(Packet(far, seq, size, [link]))
        events.run()
        assert far.arrivals == [(0, pytest.approx(0.3)),
                                (1, pytest.approx(0.5)),
                                (2, pytest.approx(0.6)),
                                (3, pytest.approx(1.0))]

    def test_drops_when_full(self, monkeypatch):
        """One packet on the wire, ``QUEUE_CAPACITY`` waiting: the next
        arrival is dropped, and the link counts it."""
        monkeypatch.setattr(nic, "QUEUE_CAPACITY", 2)
        events = EventQueue()
        link = PacketLink("l", bandwidth=1e6, latency=1e-3, events=events)
        far = FarEnd(events)
        for seq in range(4):
            link.transmit(Packet(far, seq, 100.0, [link]))
        events.run()
        assert [seq for seq, _ in far.arrivals] == [0, 1, 2]
        assert (link.bytes_sent, link.packets_sent, link.dropped) == (
            300.0, 3, 1)

    def test_default_queue_holds_queue_capacity_packets(self):
        """Unpatched, the link queues ``QUEUE_CAPACITY`` packets behind the
        one on the wire and drops the next."""
        events = EventQueue()
        link = PacketLink("l", bandwidth=1e6, latency=0.0, events=events)
        far = FarEnd(events)
        for seq in range(nic.QUEUE_CAPACITY + 2):
            link.transmit(Packet(far, seq, 100.0, [link]))
        events.run()
        assert [seq for seq, _ in far.arrivals] == list(
            range(nic.QUEUE_CAPACITY + 1))
        assert link.dropped == 1


class TestSingleFlow:
    def test_throughput_approaches_link_bandwidth(self):
        platform = single_link_platform(bandwidth=1.25e6, latency=1e-3)
        sim = PacketSimulator(platform)
        results = sim.run([("src", "dst", 5e6)])
        assert len(results) == 1
        # TCP overhead and slow start keep it below the raw capacity, but it
        # must reach a healthy fraction of it.
        assert results[0].throughput > 0.6 * 1.25e6
        assert results[0].throughput <= 1.25e6 * 1.05

    def test_flow_statistics_recorded(self):
        platform = single_link_platform()
        sim = PacketSimulator(platform)
        [flow] = sim.run([("src", "dst", 1e6)])
        assert flow.completed and flow.total_bytes == 1e6
        assert flow.finish_time > flow.start_time == 0.0
        assert flow.throughput == 1e6 / flow.finish_time
        assert flow.forward_path[0].bytes_sent >= 1e6
        assert flow.reverse_path[0].packets_sent > 0     # the ACK stream

    def test_empty_run(self):
        sim = PacketSimulator(single_link_platform())
        assert sim.run([]) == []

    def test_invalid_flow_size_rejected(self):
        """Every flow is built before any starts: a bad size anywhere in
        the list refuses the run before the first packet."""
        for size in (0.0, -1.0):
            sim = PacketSimulator(single_link_platform())
            with pytest.raises(ValueError, match="flow size must be > 0"):
                sim.run([("src", "dst", 1e6), ("src", "dst", size)])
            assert not sim.events._heap

    def test_flows_come_back_in_input_order(self):
        """The flow that finishes first is still returned second."""
        sim = PacketSimulator(make_dumbbell(num_left=2, num_right=2))
        first, second = sim.run([("left-0", "right-0", 3e6),
                                 ("left-1", "right-1", 1e6)])
        assert (first.total_bytes, second.total_bytes) == (3e6, 1e6)
        assert second.finish_time < first.finish_time


class TestSharing:
    def test_two_flows_share_the_bottleneck_fairly(self):
        platform = make_dumbbell(num_left=2, num_right=2)
        sim = PacketSimulator(platform)
        results = sim.run([("left-0", "right-0", 8e6),
                           ("left-1", "right-1", 8e6)])
        rates = [r.throughput for r in results]
        assert len(rates) == 2
        # fairness: neither flow gets more than ~1.6x the other
        assert max(rates) / min(rates) < 1.6
        # both must share the 12.5 MB/s bottleneck: total under capacity
        assert sum(rates) <= 12.5e6 * 1.05

    def test_congestion_produces_losses_on_a_small_buffer(self, monkeypatch):
        monkeypatch.setattr(nic, "QUEUE_CAPACITY", 10)
        platform = make_dumbbell(num_left=2, num_right=2,
                                 bottleneck_bandwidth=2.5e6)
        sim = PacketSimulator(platform)
        flows = sim.run([("left-0", "right-0", 5e6),
                         ("left-1", "right-1", 5e6)])
        total_retx = sum(flow.retransmissions for flow in flows)
        drops = sum(link.dropped for link in
                    {link for flow in flows for link in flow.forward_path})
        assert drops > 0
        assert total_retx > 0
        # despite the losses, both transfers complete
        assert all(flow.completed for flow in flows)

    def test_a_completed_flow_keeps_no_receiver_or_rtt_state(
            self, monkeypatch):
        """The receiver keeps only the out-of-order segments above its
        first hole, the sender only the send dates of unacked segments:
        once a lossy transfer completes, both are empty."""
        monkeypatch.setattr(nic, "QUEUE_CAPACITY", 10)
        sim = PacketSimulator(make_dumbbell(num_left=2, num_right=2,
                                            bottleneck_bandwidth=2.5e6))
        flows = sim.run([("left-0", "right-0", 5e6),
                         ("left-1", "right-1", 5e6)])
        assert sum(flow.retransmissions for flow in flows) > 0
        for flow in flows:
            assert flow.completed
            assert flow.next_expected == flow.total_segments
            assert flow.received == set()
            assert flow._send_times == {}


class TestTcpMachinery:
    def test_slow_start_grows_cwnd(self):
        events = EventQueue()
        fwd = [PacketLink("f", 1e7, 1e-3, events)]
        rev = [PacketLink("r", 1e7, 1e-3, events)]
        flow = TcpFlow(events, fwd, rev, total_bytes=3e5)
        flow.start()
        events.run()
        assert flow.completed
        assert flow.cwnd > INITIAL_CWND

    def test_rtt_estimation_converges(self):
        events = EventQueue()
        fwd = [PacketLink("f", 1e7, 5e-3, events)]
        rev = [PacketLink("r", 1e7, 5e-3, events)]
        flow = TcpFlow(events, fwd, rev, total_bytes=3e5)
        flow.start()
        events.run()
        assert flow.srtt is not None
        assert flow.srtt >= 2 * 5e-3            # at least the propagation RTT
        assert flow.srtt < 0.1


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=2e5, max_value=5e6),
       st.floats(min_value=1e5, max_value=1e7))
def test_property_single_flow_never_exceeds_link_capacity(size, bandwidth):
    """Conservation: average throughput can never exceed the link rate."""
    platform = single_link_platform(bandwidth=bandwidth, latency=1e-3)
    sim = PacketSimulator(platform)
    results = sim.run([("src", "dst", size)])
    assert results[0].throughput <= bandwidth * 1.001
