"""The heartbeat monitor's scan floor: skipped scans are exact.

:class:`~repro.ft.HeartbeatMonitor` checks its deadline table in full only
when ``now - floor > timeout``, where the floor bounds from below the
last-seen date of every host it does not suspect.  Three checks, each of
which fails for a floor that is not a sound bound (say, one that a host
coming back from suspicion does not lower):

* an oracle property — derandomized schedules of outages over 1–12 hosts
  and several timeouts, the monitor against a brute-force scanner that
  checks every deadline after every beat, equal ``(date, kind, host)``
  logs; and a deadline passed by one ulp is seen, as the skip compares
  exactly;
* a clock-free cost twin — full scans per simulated second do not grow
  with the fleet, and a ``replay_ft``-shaped replay scans in full at most
  once per 20 beats, with the flips and metrics of the brute-force run;
* a monitor snapshotted mid-outage restores and continues with the flips
  of the run that was not snapshotted, and of the brute-force run.
"""

import math

from hypothesis import example, given, strategies as st

from strategies.settings import PROFILE
from repro import s4u
from repro.ft import HeartbeatMonitor
from repro.ft.heartbeat import _hb_monitor
from repro.replay import ClusterReplay, cluster, synthetic_workload
from repro.replay.cluster import ClusterWorkload
from repro.surf.trace import Trace

PERIOD = 0.25


class BruteForceMonitor(HeartbeatMonitor):
    """The reference: every scan checks the deadline of every host."""

    def _scan(self, now):
        flips = []
        for name in self.hosts:
            if (name not in self.suspected
                    and now - self._last_seen[name] > self.timeout):
                self.suspected[name] = now
                self.events.append((now, "suspect", name))
                flips.append(("suspect", name))
        return flips


def _hold(actor, until):
    yield actor.sleep_for(until - actor.now)


def _world(num_hosts, outages):
    """A frontend and ``node-0 .. node-<num_hosts - 1>``; ``outages`` maps
    a node index to its ``(down, up)`` spans, replayed as a state trace."""
    state = {
        f"node-{index}": Trace(
            [point for down, up in spans for point in ((down, 0.0),
                                                      (up, 1.0))],
            name=f"node-{index}-state")
        for index, spans in outages.items() if spans}
    workload = ClusterWorkload(num_hosts=num_hosts, jobs=[], state=state)
    return s4u.Engine(ClusterReplay(workload).build_platform())


def _watch(monitor_class, num_hosts, outages, timeout, horizon):
    engine = _world(num_hosts, outages)
    monitor = monitor_class(engine, [f"node-{i}" for i in range(num_hosts)],
                            "frontend", period=PERIOD,
                            timeout=timeout).start()
    engine.add_actor("hold", "frontend", _hold, horizon)
    engine.run()
    return monitor


# ---------------------------------------------------------------------------
# (a) the oracle property
# ---------------------------------------------------------------------------

@st.composite
def schedules(draw):
    """``(num_hosts, outages)``: up to three outages per host, each after
    a gap of 0.1–3 s and lasting 0.05–3 s."""
    num_hosts = draw(st.integers(1, 12))
    outages = {}
    for index in range(num_hosts):
        spans, clock = [], 0.0
        for gap, length in draw(st.lists(
                st.tuples(st.floats(0.1, 3.0), st.floats(0.05, 3.0)),
                max_size=3)):
            down = clock + gap
            clock = down + length
            spans.append((down, clock))
        outages[index] = spans
    return num_hosts, outages


@PROFILE
@given(schedule=schedules(),
       timeout=st.sampled_from([2.0 * PERIOD, 2.5 * PERIOD, 3.3 * PERIOD,
                                6.0 * PERIOD]))
# Every host suspected at once, then one back and down again: the floor
# must come down from +inf when that host's beat clears it.
@example(schedule=(1, {0: [(1.0, 2.5), (4.0, 6.0)]}), timeout=2.5 * PERIOD)
@example(schedule=(3, {0: [(1.0, 3.0), (4.0, 5.0)], 1: [(1.2, 3.5)],
                       2: [(0.9, 3.2)]}), timeout=3.3 * PERIOD)
def test_the_monitor_flips_like_a_brute_force_scanner(schedule, timeout):
    num_hosts, outages = schedule
    horizon = 10.0
    monitor = _watch(HeartbeatMonitor, num_hosts, outages, timeout, horizon)
    reference = _watch(BruteForceMonitor, num_hosts, outages, timeout,
                       horizon)
    assert monitor.events == reference.events
    assert monitor.beats == reference.beats
    assert monitor.scans <= reference.beats


def test_a_deadline_passed_by_one_ulp_is_seen():
    # The skip compares with the timeout exactly, not within a tolerance.
    monitor = HeartbeatMonitor(_world(1, {}), ["node-0"], "frontend",
                               period=PERIOD, timeout=2 * PERIOD)
    monitor._arm(0.0)
    monitor._record("node-0", 0, 0.1)
    assert monitor._scan(0.1) == [] and monitor.scans == 1
    assert monitor._scan(0.6) == [] and monitor.scans == 1
    late = math.nextafter(0.6, 1.0)
    assert late - 0.1 > monitor.timeout
    assert monitor._scan(late) == [("suspect", "node-0")]


# ---------------------------------------------------------------------------
# (b) the clock-free cost twin
# ---------------------------------------------------------------------------

def test_full_scans_per_simulated_second_do_not_grow_with_the_fleet():
    # A rack outage takes every host down over [2, 4]; node-0 fails again
    # over [6, 7.5].
    horizon = 12.0
    rates = {}
    for num_hosts in (8, 64):
        outages = {index: [(2.0, 4.0)] for index in range(num_hosts)}
        outages[0].append((6.0, 7.5))
        monitor = _watch(HeartbeatMonitor, num_hosts, outages,
                         2.5 * PERIOD, horizon)
        reference = _watch(BruteForceMonitor, num_hosts, outages,
                           2.5 * PERIOD, horizon)
        assert monitor.events == reference.events
        kinds = [kind for _, kind, _ in monitor.events]
        assert kinds.count("suspect") == num_hosts + 1
        assert kinds.count("alive") == num_hosts + 1
        rates[num_hosts] = monitor.scans / horizon
    assert max(rates.values()) <= 1.5 * min(rates.values())


def _replay_ft_shaped():
    """Shaped like the ``replay_ft`` benchmark at full size: 32 nodes,
    256 jobs, seeded churn of up to 30 failures, at-least-once."""
    workload = synthetic_workload(seed=1, num_hosts=32, num_jobs=256,
                                  mean_interarrival=0.1, mean_flops=5e8)
    workload.horizon = 20.0 + 0.2 * 256
    replay = ClusterReplay(workload, link_latency=1e-6, ack_size=1.0,
                           churn_seed=2, churn_mtbf=0.5, churn_downtime=0.5,
                           churn_max_failures=30,
                           semantics="at_least_once")
    return replay, replay.run()


def test_a_replay_ft_shaped_run_scans_in_full_once_per_20_beats_at_most(
        monkeypatch):
    replay, metrics = _replay_ft_shaped()
    detector = replay.detector
    assert metrics["lost"] == 0 and metrics["suspects"] > 0
    assert 20 * detector.scans <= detector.beats
    monkeypatch.setattr(cluster, "HeartbeatMonitor", BruteForceMonitor)
    reference, reference_metrics = _replay_ft_shaped()
    assert type(reference.detector) is BruteForceMonitor
    assert detector.events == reference.detector.events
    assert metrics == reference_metrics


# ---------------------------------------------------------------------------
# (c) snapshot and restore mid-outage
# ---------------------------------------------------------------------------

#: Every node is down (and suspected) at the 3-s snapshot; node-0 comes
#: back at 5 s and fails again over [7, 9].
SNAPSHOT_OUTAGES = {0: [(1.0, 5.0), (7.0, 9.0)], 1: [(1.5, 6.0)],
                    2: [(2.0, 3.5)]}


def _first_phase(monitor_class):
    engine = _world(3, SNAPSHOT_OUTAGES)
    monitor = monitor_class(engine, ["node-0", "node-1", "node-2"],
                            "frontend", period=PERIOD,
                            timeout=2.5 * PERIOD).start()
    engine.add_actor("hold", "frontend", _hold, 3.0)
    engine.run()
    return engine, monitor


def _second_phase(engine, monitor):
    """Redeploy the monitor actor and run to 12 s; every node is down at
    3 s, and each reboots its own emitter."""
    engine.add_actor(f"{monitor.name}:monitor", monitor.monitor_host,
                     _hb_monitor, monitor, daemon=True)
    engine.add_actor("hold", "frontend", _hold, 12.0)
    engine.run()
    return monitor.events


def _restored_monitor(engine):
    """The monitor of a restored engine: the argument of an emitter that
    waits for its host to reboot."""
    (_name, _func, args, _kwargs, _daemon), *_ = next(
        iter(engine._pending_restarts.values()))
    return args[0]


def test_a_monitor_restored_mid_outage_continues_with_the_same_flips():
    engine, monitor = _first_phase(HeartbeatMonitor)
    assert sorted(monitor.suspected) == ["node-0", "node-1", "node-2"]
    blob = engine.snapshot()
    cold = _second_phase(engine, monitor)
    restored = s4u.Engine.restore(blob)
    assert _second_phase(restored, _restored_monitor(restored)) == cold
    reference_engine, reference = _first_phase(BruteForceMonitor)
    assert _second_phase(reference_engine, reference) == cold
    assert [(kind, host) for _, kind, host in cold[3:]] == [
        ("alive", "node-2"), ("alive", "node-0"), ("alive", "node-1"),
        ("suspect", "node-0"), ("alive", "node-0")]
