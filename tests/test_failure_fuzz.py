"""Property-based failure fuzzing: the simulator survives any schedule.

The failure subsystem's contract is not one scenario but a family of
invariants that must hold under *arbitrary* host/link on-off schedules:

* **liveness** — the run always terminates (the conftest watchdog turns a
  hang into a test failure);
* **monotonic clock** — observed dates never decrease;
* **no zombie activity** — once the run is over, no activity is left in the
  STARTED state (everything that began either completed, failed, timed out
  or was cancelled);
* **determinism** — replaying the very same schedule (or the same injector
  seed) reproduces every date bit-identically.

Two generators exercise them: hypothesis-built explicit schedules (timer
pulses turning precise resources off/on at precise dates) and seeded
:class:`~repro.s4u.failure.FailureInjector` churn.  Both are derandomized
(fixed seed set / fixed seed ranges) so CI fuzzes the same ~200+ schedules
on every run.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import s4u
from repro.campaign import grid, run_campaign
from repro.exceptions import (
    HostFailureError,
    SimTimeoutError,
    TransferFailureError,
)
from repro.platform import Platform, make_star
from repro.s4u import ActivityState, FailureInjector
from repro.surf.trace import Trace

NUM_WORKERS = 3
ROUNDS = 4


def _run_workload(schedule=(), injector_seed=None, injector_cfg=None):
    """One master/worker run under a failure schedule; returns its log.

    ``schedule`` is a list of ``(date, kind, index, downtime)`` pulses
    applied through engine timers (kind 0 = host, 1 = link).  When
    ``injector_seed`` is given a :class:`FailureInjector` drives the churn
    instead.  The master lives on the never-churned ``center`` host and
    works with timeouts, so the run terminates whatever happens to the
    leaves.  Returns ``(log, activities)``: the chronological event log
    (every float date in it must replay bit-identically) and every
    activity handle the bodies created.
    """
    engine = s4u.Engine(make_star(num_hosts=NUM_WORKERS, host_speed=1e9,
                                  link_bandwidth=1e7, link_latency=1e-4))
    log = []
    activities = []

    engine.on_host_state_change(
        lambda host, is_on: log.append(("host", host.name, is_on, engine.now)))
    engine.observe(lambda date, kind, subject, value: kind == "state"
                   and isinstance(subject, s4u.Link)
                   and log.append(("link", subject.name, value, date)))

    def worker(actor, index):
        inbox = engine.mailbox(f"w{index}")
        outbox = engine.mailbox("replies")
        while True:
            try:
                job = yield inbox.get()
            except TransferFailureError:
                continue
            comp = yield actor.exec_async(job)
            activities.append(comp)
            try:
                yield comp.wait()
            except HostFailureError:
                continue
            comm = yield outbox.put_async(index, size=2e3)
            activities.append(comm)
            try:
                yield comm.wait(timeout=0.05)
            except (SimTimeoutError, TransferFailureError):
                pass

    def master(actor):
        replies = engine.mailbox("replies")
        for round_no in range(ROUNDS):
            for index in range(NUM_WORKERS):
                comm = yield engine.mailbox(f"w{index}").put_async(
                    1e5 * (1 + round_no), size=1e3)
                activities.append(comm)
                try:
                    yield comm.wait(timeout=0.02)
                except (SimTimeoutError, TransferFailureError):
                    log.append(("send-lost", round_no, index, engine.now))
            for _ in range(NUM_WORKERS):
                try:
                    got = yield replies.get(timeout=0.02)
                    log.append(("reply", round_no, got, engine.now))
                except (SimTimeoutError, TransferFailureError):
                    log.append(("reply-lost", round_no, None, engine.now))
            log.append(("round", round_no, None, engine.now))

    engine.add_actor("master", "center", master)
    for i in range(NUM_WORKERS):
        engine.add_actor(f"worker-{i}", f"leaf-{i}", worker, i,
                         daemon=True, auto_restart=True)

    for date, kind, index, downtime in schedule:
        index %= NUM_WORKERS
        if kind == 0:
            target = engine.host(f"leaf-{index}")
        else:
            target = engine.link_by_name(f"leaf-link-{index}")
        engine.timers.schedule(date, target.turn_off)
        engine.timers.schedule(date + downtime, target.turn_on)

    injector = None
    if injector_seed is not None:
        injector = FailureInjector(
            engine, seed=injector_seed,
            hosts=[f"leaf-{i}" for i in range(NUM_WORKERS)],
            links=[f"leaf-link-{i}" for i in range(NUM_WORKERS)],
            **(injector_cfg or dict(mtbf=0.004, mean_downtime=0.01,
                                    max_failures=30)))
        injector.start()

    final = engine.run()
    log.append(("final", None, None, final))
    if injector is not None:
        log.append(("pulses", None, None, tuple(injector.events)))
    return log, activities


def _check_invariants(log, activities):
    # Monotonic clock: the observation order is the emission order.
    dates = [entry[3] for entry in log if isinstance(entry[3], float)]
    assert all(a <= b for a, b in zip(dates, dates[1:])), dates
    # No zombie: nothing that started is still running after the run.
    for activity in activities:
        assert activity.state is not ActivityState.STARTED, activity


# Explicit schedules: (date, host-or-link, target index, downtime).
_pulse = st.tuples(
    st.floats(min_value=0.0, max_value=0.1, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=NUM_WORKERS - 1),
    st.floats(min_value=1e-4, max_value=0.05, allow_nan=False,
              allow_infinity=False),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(_pulse, max_size=8))
def test_explicit_schedules_live_and_replay(schedule):
    """60 hypothesis schedules: invariants hold and replays are identical."""
    log, activities = _run_workload(schedule=schedule)
    _check_invariants(log, activities)
    replay_log, replay_activities = _run_workload(schedule=schedule)
    _check_invariants(replay_log, replay_activities)
    assert log == replay_log


def _fuzz_seed_run(seed, config):
    """One seeded churn experiment: live run + replay + invariant checks.

    This is the loop body of the seed sweep, shaped as a campaign
    ``run_fn`` so the same code runs serially (the CI default) or fanned
    out over worker processes by :func:`repro.campaign.run_campaign`.
    The invariants assert *inside* the run — a violation in a worker
    fails the campaign with the seed in the traceback.
    """
    log, activities = _run_workload(injector_seed=seed)
    _check_invariants(log, activities)
    replay_log, replay_activities = _run_workload(injector_seed=seed)
    _check_invariants(replay_log, replay_activities)
    assert log == replay_log, f"seed {seed} did not replay identically"
    pulses = next(entry[3] for entry in log if entry[0] == "pulses")
    final = next(entry[3] for entry in log if entry[0] == "final")
    return {"simulated_time_s": final, "pulses": len(pulses),
            "log_events": len(log)}


@pytest.mark.parametrize("seed_base", [0, 50, 100])
def test_injector_seeds_live_and_replay(seed_base):
    """150 seeded churn schedules (50 per chunk): same seed, same dates.

    ``REPRO_CAMPAIGN_FUZZ=1`` routes each 50-seed sweep through the
    campaign driver (worker count from ``REPRO_CAMPAIGN_WORKERS``); by
    default the sweep runs the exact same experiments serially
    in-process.
    """
    seeds = range(seed_base, seed_base + 50)
    if os.environ.get("REPRO_CAMPAIGN_FUZZ", "") == "1":
        result = run_campaign(_fuzz_seed_run, grid(seeds))
        assert [("simulated_time_s" in metrics)
                for metrics in result.metrics()] == [True] * 50
    else:
        for seed in seeds:
            _fuzz_seed_run(seed, None)


def test_campaign_fuzz_path_smoke():
    """The campaign route of the sweep stays exercised in default CI."""
    result = run_campaign(_fuzz_seed_run, grid(range(3)), workers=2)
    assert [("simulated_time_s" in metrics)
                for metrics in result.metrics()] == [True] * 3
    assert all(run["metrics"]["log_events"] > 0 for run in result.runs)


def test_different_seeds_differ():
    """Sanity: the injector seed actually drives the schedule."""
    log_a, _ = _run_workload(injector_seed=1)
    log_b, _ = _run_workload(injector_seed=2)
    pulses_a = next(e[3] for e in log_a if e[0] == "pulses")
    pulses_b = next(e[3] for e in log_b if e[0] == "pulses")
    assert pulses_a != pulses_b


# ---------------------------------------------------------------------------
# Heartbeat detector accuracy under seeded churn
# ---------------------------------------------------------------------------

HB_PERIOD = 0.25
HB_TIMEOUT = 1.0          # 4x period: tolerates beats lost to recv aborts
HB_HORIZON = 12.0
# A suspicion is *justified* only within this long of a real down-event:
# the last pre-failure beat lands at most one period before the outage,
# staleness is declared strictly past ``timeout`` and the monitor scans on
# the ``period`` grid, plus beat delivery latency.
HB_ACCURACY_BOUND = HB_TIMEOUT + 2 * HB_PERIOD + 0.01


def _hb_hold(actor, horizon):
    yield actor.sleep_for(horizon)


def _detector_run(seed):
    """One seeded-churn run under a heartbeat monitor.

    Returns ``(truth, flips, final)``: the ground-truth host state
    transitions seen by ``on_host_state_change``, the detector's
    suspect/alive flip log and the final date — all of which must replay
    bit-identically for the same seed.
    """
    from repro.ft import HeartbeatMonitor

    leaves = [f"leaf-{i}" for i in range(NUM_WORKERS)]
    engine = s4u.Engine(make_star(num_hosts=NUM_WORKERS, host_speed=1e9,
                                  link_bandwidth=1e7, link_latency=1e-4))
    truth = []
    engine.on_host_state_change(
        lambda host, is_on: truth.append((engine.now, host.name, is_on)))
    monitor = HeartbeatMonitor(engine, leaves, "center",
                               period=HB_PERIOD, timeout=HB_TIMEOUT).start()
    FailureInjector(engine, seed=seed, hosts=leaves,
                    mtbf=1.5, mean_downtime=1.0, max_failures=6).start()
    engine.add_actor("hold", "center", _hb_hold, HB_HORIZON)
    final = engine.run()
    return truth, list(monitor.events), final


def _check_detector_accuracy(truth, flips):
    """Every suspicion is anchored to a recent real down-event."""
    downs = {}
    for date, name, is_on in truth:
        if not is_on:
            downs.setdefault(name, []).append(date)
    for date, kind, name in flips:
        if kind != "suspect":
            continue
        past = [d for d in downs.get(name, []) if d <= date + 1e-9]
        assert past, f"{name} suspected at {date} but never went down"
        lag = date - max(past)
        assert lag <= HB_ACCURACY_BOUND, \
            f"{name} suspected {lag}s after its last down-event at {date}"


@pytest.mark.parametrize("seed_base", [0, 50, 100])
def test_detector_accuracy_under_churn(seed_base):
    """150 seeded churn schedules: suspicion is accurate and replays.

    The heartbeat detector never suspects a host more than
    ``period + timeout`` (plus one scan tick of slack) after that host's
    last ground-truth down-event, and the suspect/alive flip log replays
    bit-identically per seed.
    """
    total_flips = 0
    for seed in range(seed_base, seed_base + 50):
        truth, flips, final = _detector_run(seed)
        _check_detector_accuracy(truth, flips)
        assert (truth, flips, final) == _detector_run(seed), \
            f"seed {seed} did not replay identically"
        total_flips += len(flips)
    assert total_flips > 0      # the sweep actually exercised the detector


def _traced_star(num_workers, period=2.0, dip=0.5):
    """A star whose leaves all carry phase-shifted availability dips."""
    platform = Platform("availability-star")
    platform.add_host("center", 1e9)
    for i in range(num_workers):
        phase = 0.1 + (i % 16) * (period - 0.4) / 16.0
        trace = Trace([(0.0, 1.0), (phase, dip), (phase + 0.2, 1.0)],
                      period=period, name=f"leaf-load-{i}")
        host = platform.add_host(f"leaf-{i}", 1e9, availability_trace=trace)
        link = platform.add_link(f"leaf-link-{i}", 125e6, 1e-4)
        platform.connect(host.name, "center", link.name)
    return platform


@pytest.mark.parametrize(
    "num_workers, target, flops, size, traced, churn, floors", [
        pytest.param(16, 600, 1e6, 1e3, False,
                     dict(mtbf=0.001, mean_downtime=0.008, max_failures=120),
                     (50, 25, 0), id="16-workers"),
        pytest.param(64, 64 * 30, 1e6, 1e3, False,
                     dict(mtbf=0.002, mean_downtime=0.01, max_failures=200),
                     (100, 1, 0), id="failure_churn"),
        pytest.param(16, 16 * 15, 5e7, 1e4, True,
                     dict(mtbf=0.01, mean_downtime=0.05, max_failures=50),
                     (1, 1, 1), id="availability_churn"),
    ])
def test_churn_fleet_banks_every_result(num_workers, target, flops, size,
                                        traced, churn, floors):
    """An auto-restart fleet under seeded host churn banks every result.

    Daemon workers loop compute-then-report; the injector keeps killing
    worker hosts and the restored hosts reboot their workers, until the
    sink banked ``target`` results.  ``floors`` are the least host
    failures, worker restarts and availability events the run must see:
    ``failure_churn`` is the size at which 100+ failures land, and
    ``availability_churn`` puts a phase-shifted availability trace on
    every leaf, so the trace heap, the capacity write path and the
    failure path run at once.
    """
    from repro.exceptions import TransferFailureError

    if traced:
        platform = _traced_star(num_workers)
    else:
        platform = make_star(num_hosts=num_workers, host_speed=1e9,
                             link_bandwidth=125e6, link_latency=1e-4)
    engine = s4u.Engine(platform)
    received = [0]
    speed_events = []
    engine.observe(lambda date, kind, subject, value: kind == "speed"
                   and speed_events.append(value))

    def sink(actor):
        box = engine.mailbox("sink")
        while received[0] < target:
            try:
                yield box.get()
                received[0] += 1
            except TransferFailureError:
                continue

    def worker(actor, index):
        box = engine.mailbox("sink")
        while True:
            yield actor.execute(flops)
            yield box.put(index, size=size)

    engine.add_actor("sink", "center", sink)
    for i in range(num_workers):
        engine.add_actor(f"worker-{i}", f"leaf-{i}", worker, i,
                         daemon=True, auto_restart=True)
    injector = FailureInjector(
        engine, seed=42, hosts=[f"leaf-{i}" for i in range(num_workers)],
        **churn)
    injector.start()
    engine.run()

    min_failures, min_restarts, min_speed_events = floors
    assert received[0] == target          # all work completed despite churn
    assert injector.failures >= min_failures          # the churn was real
    assert engine.restart_count >= min_restarts       # auto-restart saved it
    assert len(speed_events) >= min_speed_events      # the trace heap fired
