"""Failure injection: seeded churn of hosts and links over a running engine.

The paper lists *trace-based simulation of dynamic resource failures* as a
core SURF feature.  The kernel half (state traces failing actions, actor
kill on host failure) has existed since the seed; this module adds the
controller that *drives* failures at scale: a :class:`FailureInjector`
turns hosts and links off and back on in random pulses from a seeded RNG
through the engine's timer queue, so the schedule interleaves
deterministically with the simulation and the same seed always produces
bit-identical dates.  A known schedule needs no injector: declare a state
:class:`~repro.surf.trace.Trace` on the platform resource, or arm timers
calling ``turn_off`` / ``turn_on``.

Typical churn study::

    engine = s4u.Engine(make_star(num_hosts=64))
    # ... add a master on "center" and auto_restart workers on the leaves
    injector = FailureInjector(
        engine, seed=42,
        hosts=[f"leaf-{i}" for i in range(64)],
        mtbf=0.01, mean_downtime=0.05, max_failures=100)
    injector.start()
    engine.run()
    print(injector.failures, "failures,", engine.restart_count, "restarts")

There is one way a resource goes down or up, whoever drives it: a state
trace, an explicit ``turn_off()`` / ``turn_on()`` (from host code, a
timer or any actor — one on the failing host included) and an injector
pulse all reach ``SurfEngine.set_state`` and the engine's one state
handler, so each produces the same outcome for every observer: running
activities fail (their waiters see the failure exception), actors on a
failed host are killed, ``auto_restart`` actors reboot when the host
comes back, and the state listeners fire once per flip
(``tests/test_state_path.py``).  The injector never keeps the simulation
alive by itself being idle: pulses stop at ``max_failures``, and every
injected failure schedules its own restore.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Iterable, List, Optional, Tuple, Union, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.engine import Engine
    from repro.s4u.host import Host
    from repro.s4u.link import Link

__all__ = ["FailureInjector"]


class FailureInjector:
    """Drives random host/link off/on pulses over a running engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.s4u.engine.Engine` to churn.
    seed:
        Seed of the private :class:`random.Random`; the whole schedule is a
        pure function of it (and of the simulation it perturbs).
    hosts / links:
        The candidate victims, as objects or names.  Defaults to *no*
        target of that kind; pass ``hosts=engine.hosts.values()`` to churn
        everything (keep the hosts of irreplaceable actors out of the
        list).
    mtbf:
        Mean time between consecutive failure injections across the whole
        target fleet (exponentially distributed), in simulated seconds.
    mean_downtime:
        Mean repair delay of one failure (exponentially distributed).
    max_failures:
        Stop bound: no new failure is injected past ``max_failures``.  It
        must be given, otherwise the pulse chain would keep the engine's
        timer queue busy forever.

    The injector snapshots with its engine: the seeded ``random.Random``
    pickles with its full Mersenne state and the armed timers hold bound
    methods and partials over them, never lambdas: both pickle, and a
    ``copy.deepcopy`` rebinds them to the copied injector, so churn resumed
    from an ``engine.snapshot()`` blob replays the exact pulse schedule a
    never-snapshotted run would produce.
    """

    def __init__(self, engine: "Engine", seed: int = 0,
                 hosts: Optional[Iterable[Union[str, "Host"]]] = None,
                 links: Optional[Iterable[Union[str, "Link"]]] = None,
                 mtbf: float = 1.0, mean_downtime: float = 0.1,
                 max_failures: Optional[int] = None) -> None:
        if mtbf <= 0:
            raise ValueError("mtbf must be > 0")
        if mean_downtime <= 0:
            raise ValueError("mean_downtime must be > 0")
        if max_failures is None:
            raise ValueError("give max_failures so the churn terminates")
        self.engine = engine
        self.seed = seed
        self.mtbf = float(mtbf)
        self.mean_downtime = float(mean_downtime)
        self.max_failures = max_failures
        self.targets: List[Union["Host", "Link"]] = []
        for host in hosts or ():
            self.targets.append(
                host if not isinstance(host, str) else engine.host(host))
        for link in links or ():
            self.targets.append(
                link if not isinstance(link, str) else engine.link_by_name(link))
        self._rng = random.Random(seed)
        self._started = False
        #: Number of failures injected / restores performed so far.
        self.failures = 0
        self.restores = 0
        #: Chronological ``(date, resource_name, is_on)`` log of the pulses
        #: actually applied — the replay fingerprint of a churn run.
        self.events: List[Tuple[float, str, bool]] = []

    # ------------------------------------------------------------------------------
    # random churn
    # ------------------------------------------------------------------------------
    def start(self) -> "FailureInjector":
        """Arm the first failure pulse; returns the injector."""
        if self._started:
            raise RuntimeError("the injector was already started")
        if not self.targets:
            raise ValueError("no hosts or links to churn")
        self._started = True
        self._arm_next_failure(self.engine.now)
        return self

    def _arm_next_failure(self, now: float) -> None:
        if self.failures >= self.max_failures:
            return
        date = now + self._rng.expovariate(1.0 / self.mtbf)
        self.engine.timers.schedule(date, self._fire_failure)

    def _fire_failure(self) -> None:
        now = self.engine.now
        candidates = [t for t in self.targets if t.is_on]
        if candidates:
            victim = self._rng.choice(candidates)
            self._apply_off(victim)
            restore_date = now + self._rng.expovariate(1.0 / self.mean_downtime)
            self.engine.timers.schedule(
                restore_date, partial(self._apply_on, victim))
        self._arm_next_failure(now)

    def _apply_off(self, target: Union["Host", "Link"]) -> None:
        """Turn a target off, counting and logging the pulse (idempotent)."""
        if not target.is_on:
            return
        target.turn_off()
        self.failures += 1
        self.events.append((self.engine.now, target.name, False))

    def _apply_on(self, target: Union["Host", "Link"]) -> None:
        """Turn a target back on, counting and logging the pulse."""
        if target.is_on:
            return
        target.turn_on()
        self.restores += 1
        self.events.append((self.engine.now, target.name, True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FailureInjector(seed={self.seed}, targets={len(self.targets)},"
                f" failures={self.failures}, restores={self.restores})")
