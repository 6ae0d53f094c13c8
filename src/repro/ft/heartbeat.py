"""Heartbeat failure detection: suspect/alive events from missing beats.

A :class:`HeartbeatMonitor` deploys one *emitter* actor per watched host
(a daemon with ``auto_restart``, so it resumes beating the moment its
host reboots) and one *monitor* actor on a reliable host.  Emitters send
seq-numbered heartbeats to the monitor's mailbox every ``period``; the
monitor scans its deadline table and marks a host **suspect** once no
beat arrived for more than ``timeout``, and **alive** again on the next
beat received from it.

Per-beat cost: O(1) amortized.  The monitor keeps a floor, a lower bound
on the last-seen date of every host it does not suspect, and scans its
deadline table in full only when a deadline can have passed (``now -
floor > timeout``); a full scan recomputes the floor.  Beats only raise
last-seen dates and floating-point subtraction is monotone, so a skipped
scan is one that could not have flipped a host: the flips, their order
and their dates are those of a scan after every beat.  A live fleet
beating every ``period`` is scanned in full about once per ``timeout -
period`` simulated seconds, whatever its size (``scans`` counts them).

Accuracy contract (fuzz-tested against the ground-truth
``on_host_state_change`` events in ``tests/test_failure_fuzz.py``): the
detector never suspects a host that has been continuously up for longer
than ``period + timeout`` since its last down-event — a live host beats
every ``period``, so at most one in-flight beat can be lost to an
unluckily timed scan, which ``timeout >= 2 * period`` absorbs.  All
suspect/alive flip dates are a deterministic function of the simulation,
so a seeded churn run replays them bit-identically.

Events can also be forwarded to a mailbox (``notify_mailbox``) as
``(kind, host_name, date)`` detached sends, so other actors — e.g. the
at-least-once resubmitter of :class:`~repro.replay.cluster.ClusterReplay`
— can consume them without sharing callbacks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import SimTimeoutError, TransferFailureError
from repro.s4u import this_actor

__all__ = ["HeartbeatMonitor"]

#: Size of a heartbeat and of a forwarded event, bytes.
PAYLOAD_SIZE = 64.0


# -- actor bodies (module-level so snapshotted engines can name them) ----------

def _hb_emitter(actor, monitor: "HeartbeatMonitor"):
    """Beat every ``period``; a reboot restarts the body (seq from 0)."""
    box = actor.engine.mailbox(monitor.beat_mailbox)
    seq = 0
    while True:
        yield box.put_async((actor.host.name, seq),
                            size=PAYLOAD_SIZE, detached=True)
        seq += 1
        yield this_actor.sleep_for(monitor.period)


def _hb_monitor(actor, monitor: "HeartbeatMonitor"):
    """Collect beats, scan deadlines, fire/forward suspect-alive flips."""
    engine = actor.engine
    box = engine.mailbox(monitor.beat_mailbox)
    notify = (engine.mailbox(monitor.notify_mailbox)
              if monitor.notify_mailbox else None)
    monitor._arm(actor.now)
    while True:
        flips: List[Tuple[str, str]] = []
        try:
            name, seq = yield box.get(timeout=monitor.period)
            flips += monitor._record(name, seq, actor.now)
        except (SimTimeoutError, TransferFailureError):
            pass  # no beat this scan window (or one died mid-transfer)
        flips += monitor._scan(actor.now)
        if notify is not None:
            for kind, host_name in flips:
                yield notify.put_async((kind, host_name, actor.now),
                                       size=PAYLOAD_SIZE, detached=True)


class HeartbeatMonitor:
    """Mailbox-heartbeat failure detector over a set of hosts.

    Parameters
    ----------
    engine:
        The :class:`~repro.s4u.engine.Engine` to deploy on.
    hosts:
        Names of the hosts to watch (an emitter actor is spawned on each).
    monitor_host:
        The host running the monitor actor.  It must be reliable: a
        churned monitor is itself a failure study, not a detector.
    period:
        Emitter beat interval and monitor scan interval, simulated
        seconds.
    timeout:
        Freshness deadline: a host is suspected once no beat arrived for
        more than this.  Must be at least ``2 * period`` so one beat lost
        to an unluckily timed receive cannot falsely suspect a live host.
    on_suspect / on_alive:
        Optional callbacks ``cb(host_name, date)`` fired from the monitor
        actor's context at each flip.
    notify_mailbox:
        Optional mailbox name to forward ``(kind, host_name, date)``
        events to (detached sends).
    """

    #: Full scans of the deadline table (the other scans were skipped).
    scans = 0
    #: Lower bound on the last-seen date of every unsuspected host, set by
    #: each full scan.  From -inf the first scan is a full one; a class
    #: default, like ``scans``, so a monitor pickled without it loads.
    _floor = -math.inf

    def __init__(self, engine, hosts: Iterable[str], monitor_host: str,
                 period: float = 0.5, timeout: Optional[float] = None,
                 on_suspect: Optional[Callable[[str, float], None]] = None,
                 on_alive: Optional[Callable[[str, float], None]] = None,
                 notify_mailbox: Optional[str] = None,
                 name: str = "hb") -> None:
        if period <= 0:
            raise ValueError("period must be > 0")
        self.engine = engine
        self.hosts: List[str] = [h if isinstance(h, str) else h.name
                                 for h in hosts]
        if not self.hosts:
            raise ValueError("a heartbeat monitor needs at least one host")
        self.monitor_host = monitor_host
        self.period = float(period)
        self.timeout = float(timeout) if timeout is not None else 2.5 * period
        if self.timeout < 2.0 * self.period:
            raise ValueError(
                "timeout must be >= 2 * period (one lost beat must not "
                "falsely suspect a live host)")
        self.on_suspect = on_suspect
        self.on_alive = on_alive
        self.notify_mailbox = notify_mailbox
        self.name = name
        self.beat_mailbox = f"{name}:beats"
        #: Chronological ``(date, kind, host_name)`` flip log — the replay
        #: fingerprint of a detector run (kind is "suspect" or "alive").
        self.events: List[Tuple[float, str, str]] = []
        #: Currently suspected hosts, name -> suspicion date.  Read-only:
        #: the scan floor assumes only the monitor adds and removes hosts.
        self.suspected: Dict[str, float] = {}
        self._last_seen: Dict[str, float] = {}
        self._last_seq: Dict[str, int] = {}
        self.beats = 0
        self.stale_beats = 0
        self._started = False

    # ------------------------------------------------------------------------------
    def start(self) -> "HeartbeatMonitor":
        """Spawn the emitters and the monitor actor; returns self."""
        if self._started:
            raise RuntimeError("the monitor was already started")
        self._started = True
        for host in self.hosts:
            self.engine.add_actor(f"{self.name}:emit:{host}", host,
                                  _hb_emitter, self, daemon=True,
                                  auto_restart=True)
        self.engine.add_actor(f"{self.name}:monitor", self.monitor_host,
                              _hb_monitor, self, daemon=True)
        return self

    # -- monitor-side bookkeeping (called from the monitor actor) ------------------
    def _arm(self, now: float) -> None:
        for host in self.hosts:
            self._last_seen.setdefault(host, now)

    def _record(self, name: str, seq: int, now: float
                ) -> List[Tuple[str, str]]:
        self.beats += 1
        if seq <= self._last_seq.get(name, -1):
            # A rebooted emitter restarts at 0: stale numbering, but the
            # beat itself is live evidence all the same.
            self.stale_beats += 1
        self._last_seq[name] = seq
        self._last_seen[name] = now
        if name in self.suspected:
            del self.suspected[name]
            if now < self._floor:
                self._floor = now
            self.events.append((now, "alive", name))
            if self.on_alive is not None:
                self.on_alive(name, now)
            return [("alive", name)]
        return []

    def _scan(self, now: float) -> List[Tuple[str, str]]:
        timeout = self.timeout
        if now - self._floor <= timeout:
            return []   # every unsuspected host beat recently enough
        self.scans += 1
        flips: List[Tuple[str, str]] = []
        suspected = self.suspected
        last_seen = self._last_seen
        floor = math.inf
        for name in self.hosts:
            if name in suspected:
                continue
            seen = last_seen[name]
            if now - seen > timeout:
                suspected[name] = now
                self.events.append((now, "suspect", name))
                if self.on_suspect is not None:
                    self.on_suspect(name, now)
                flips.append(("suspect", name))
            elif seen < floor:
                floor = seen
        self._floor = floor
        return flips

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HeartbeatMonitor(hosts={len(self.hosts)}, "
                f"period={self.period}, timeout={self.timeout}, "
                f"suspected={sorted(self.suspected)})")
