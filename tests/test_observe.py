"""The engine's one passive event stream (``Engine.observe``).

An observer receives ``(date, kind, subject, value)`` for every finished
activity (``"end"``), every speed change (``"speed"``) and every state
flip (``"state"``) of a host or link the program looked up.  It watches
and nothing more: a run ends at the same date, in the same state and
after the same kernel work whether anybody observes it or not.
"""

import pytest

from examples.client_server_gantt import run as run_client_server
from repro.platform import Platform, make_star
from repro.s4u import ActivityState, Engine
from repro.surf.trace import Trace
from test_failure_fuzz import _run_workload
from zoned_scenarios import run_modulated_workload


def _ignore(date, kind, subject, value):
    pass


def _churn():
    """Master/worker fleet under a seeded FailureInjector."""
    return _run_workload(injector_seed=3)[0]


def _periodic_trace_deadlock():
    """An actor blocked on an empty mailbox next to a periodic
    availability trace: nothing can wake it."""
    platform = Platform("traced")
    platform.add_host("alice", 1e9, availability_trace=Trace(
        [(0, 1), (1, .5)], period=2))
    engine = Engine(platform)
    engine.add_actor("stuck", "alice",
                     lambda actor: (yield engine.mailbox("nobody").get()))
    return engine.run(until=1e3)


def _client_server():
    """E4's client-server run, drawn by its own Recorder observer."""
    final_time, recorder = run_client_server(verbose=False)
    return final_time, recorder.intervals


SCENARIOS = {
    "zoned modulated": lambda: run_modulated_workload()[0],
    "client-server": _client_server,
    "injector churn": _churn,
    "periodic-trace deadlock": _periodic_trace_deadlock,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_watching_changes_no_outcome(scenario, monkeypatch):
    """Each scenario runs twice, the second time with a no-op observer on
    every engine it builds: the scenario's own result, each engine's final
    date (``float.hex``), ``deadlocked`` and ``kernel_stats()`` agree.  A
    speed listener once kept the periodic-trace deadlock running to
    ``until``."""
    init = Engine.__init__

    def run(watch):
        engines = []

        def watched_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append(self)
            if watch:
                self.observe(_ignore)

        monkeypatch.setattr(Engine, "__init__", watched_init)
        result = SCENARIOS[scenario]()
        assert engines
        return result, [(engine.now.hex(), engine.deadlocked,
                         engine.kernel_stats()) for engine in engines]

    assert run(watch=True) == run(watch=False)


def test_the_stream_reports_ends_speeds_and_flips_in_order():
    """Subscribers are called in subscription order with the simulated
    date, and each event names its Activity, Host or Link."""
    platform = make_star(num_hosts=2, host_speed=1e9)
    engine = Engine(platform)
    leaf, link = engine.host("leaf-0"), engine.link_by_name("leaf-link-0")
    seen = []
    engine.observe(lambda *event: seen.append(("first", *event)))
    engine.observe(lambda *event: seen.append(("second", *event)))

    def body(actor):
        work = yield actor.exec_async(1e9)
        yield work.wait()
        leaf.set_speed(2e9)
        link.set_bandwidth(1e6)
        link.turn_off()
        engine.host("leaf-1").turn_off()

    actor = engine.add_actor("a", "center", body)
    assert engine.run() == 1.0
    events = [(who, date, kind, getattr(subject, "name", subject), value)
              for who, date, kind, subject, value in seen]
    expected = [
        (1.0, "end", "compute", ActivityState.DONE),
        (1.0, "speed", "leaf-0", 2e9),
        (1.0, "speed", "leaf-link-0", 1e6),
        (1.0, "state", "leaf-link-0", False),
        (1.0, "state", "leaf-1", False),
    ]
    assert events == [(who, *event) for event in expected
                      for who in ("first", "second")]
    assert not actor.is_alive


def test_a_flip_is_reported_after_what_it_caused():
    """A flip's ``"state"`` event closes its handling: the activity it
    failed ends first, and so does a flip a host hook nests in it.  Nested
    flips reach the observers innermost first and the hooks outermost
    first."""
    platform = make_star(num_hosts=2, host_speed=1e9)
    engine = Engine(platform)
    outer, inner = engine.host("leaf-0"), engine.host("leaf-1")
    hooked, seen = [], []

    def hook(host, is_on):
        hooked.append(host.name)
        if host is outer:
            inner.turn_off()

    engine.on_host_state_change(hook)
    engine.observe(lambda date, kind, subject, value: seen.append(
        (date, kind, subject.name, value)))

    def worker(actor):
        work = yield actor.exec_async(1e10)
        yield work.wait()

    engine.add_actor("worker", outer, worker)
    engine.timers.schedule(1.0, outer.turn_off)
    assert engine.run() == 1.0
    assert hooked == ["leaf-0", "leaf-1"]
    assert seen == [(1.0, "end", "compute", ActivityState.FAILED),
                    (1.0, "state", "leaf-1", False),
                    (1.0, "state", "leaf-0", False)]
