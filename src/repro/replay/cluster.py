"""Cluster-trace replay: drive an s4u fleet from job/availability logs.

The paper validates SimGrid by replaying the shapes found in production
cluster logs: jobs arriving over time on machines whose speed is modulated
by external load and which occasionally fail outright.  This module is the
corresponding frontend: a :class:`ClusterWorkload` captures those shapes
(job arrivals + per-machine availability/state traces), and
:class:`ClusterReplay` turns one into a running master/worker fleet —
availability traces attached at platform declaration, failures driven
either by the workload's state traces or by seeded
:class:`~repro.s4u.failure.FailureInjector` churn layered on top.

Everything is seeded, so a replay is a pure function of
``(workload, churn options, kernel flavour)`` — the equivalence tests run
the same workload on the flat and sharded kernels and compare dates.

One pipeline, two delivery semantics: every job travels as ``(seq, job)``, every ack as ``(date, seq, job)``, the
collector deduplicates by sequence number, and the workers are the
``permanent`` children of a :class:`~repro.ft.supervisor.Supervisor`
(which parks a worker whose host died and respawns it on host-up).

* ``at_most_once`` (default) — nothing watches the nodes: a job consumed
  by a worker that dies mid-compute is lost and shows up in
  ``metrics["lost"]``;
* ``at_least_once`` — a :class:`~repro.ft.heartbeat.HeartbeatMonitor`
  watches the nodes, and a resubmitter actor re-sends the outstanding
  jobs of suspected nodes (plus an ack-timeout sweep for blips too short
  for the detector).  ``metrics["lost"]`` is zero whenever every node is
  eventually up long enough before the horizon — at the price of
  ``metrics["duplicates"]`` redundant executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ft import ChildSpec, HeartbeatMonitor, Supervisor
from repro.platform import Platform
from repro.s4u import Engine, FailureInjector, Host, this_actor
from repro.exceptions import (
    HostFailureError,
    SimTimeoutError,
    TransferFailureError,
)
from repro.surf.trace import Trace

__all__ = ["ClusterJob", "ClusterWorkload", "ClusterReplay",
           "synthetic_workload"]

# HOST_SPEED sizes both the platform and the workload horizon, so the
# two cannot disagree.
HOST_SPEED = 1e9              # flop/s
LINK_BANDWIDTH = 1.25e7       # B/s
NODE_PREFIX = "node"
DISPATCH_SIZE = 1e4           # bytes per job dispatch
LOAD_PERIOD, DIP = 4.0, 0.5   # availability trace: period, dipped speed
# Worker supervisor intensity: host churn parks a worker, spending none.
SUPERVISOR_MAX_RESTARTS, SUPERVISOR_WINDOW = 1000, 1.0
# Share of a synthetic workload's nodes that get one failure pulse.
FAILING_FRACTION = 0.25
# At-least-once pipeline: the heartbeat period (the detector's timeout is
# HeartbeatMonitor's default) and the resubmission sweep's ack timeout.
DETECTOR_PERIOD = 0.25
ACK_TIMEOUT = 5.0


@dataclass(frozen=True)
class ClusterJob:
    """One job of the replayed log: arrival date and work amount.

    ``host`` pins the job to a node name; ``None`` lets the dispatcher
    assign round-robin (deterministically, by job order).
    """

    submit: float
    flops: float
    host: Optional[str] = None
    name: str = ""


@dataclass
class ClusterWorkload:
    """The replayable shape of a cluster log.

    ``availability`` and ``state`` map node names to the traces replayed
    on them (external load and failures respectively); ``horizon`` is the
    date the replay stops banking results — lost jobs (e.g. killed by a
    failure with nobody to resubmit them) then show up as
    ``jobs - completed`` instead of hanging the run forever.
    """

    num_hosts: int
    jobs: List[ClusterJob]
    availability: Dict[str, Trace] = field(default_factory=dict)
    state: Dict[str, Trace] = field(default_factory=dict)
    horizon: Optional[float] = None


def synthetic_workload(seed: int, num_hosts: int = 8, num_jobs: int = 32,
                       mean_interarrival: float = 0.5,
                       mean_flops: float = 2e9) -> ClusterWorkload:
    """A seeded workload with the statistical shape of a cluster log.

    Job arrivals are Poisson (exponential inter-arrival times), sizes
    uniform around ``mean_flops``; every node carries a periodic
    availability trace whose dip lands at a seeded phase (so the dips are
    de-synchronized like independent background load); a seeded fraction
    (``FAILING_FRACTION``) of the nodes additionally gets one finite
    off/on failure pulse as a state trace.  Same seed, same workload — the
    replay tests lean on it.
    """
    if num_hosts < 1:
        raise ValueError("a workload needs at least one host")
    rng = random.Random(seed)
    jobs: List[ClusterJob] = []
    clock = 0.0
    for index in range(num_jobs):
        clock += rng.expovariate(1.0 / mean_interarrival)
        pinned = (f"{NODE_PREFIX}-{rng.randrange(num_hosts)}"
                  if rng.random() < 0.5 else None)
        jobs.append(ClusterJob(submit=clock,
                               flops=rng.uniform(0.5, 1.5) * mean_flops,
                               host=pinned, name=f"job-{index}"))
    availability: Dict[str, Trace] = {}
    state: Dict[str, Trace] = {}
    for index in range(num_hosts):
        node = f"{NODE_PREFIX}-{index}"
        phase = rng.uniform(0.5, LOAD_PERIOD - 1.5)
        availability[node] = Trace(
            [(0.0, 1.0), (phase, DIP), (phase + 1.0, 1.0)],
            period=LOAD_PERIOD, name=f"{node}-load")
        if rng.random() < FAILING_FRACTION:
            down_at = rng.uniform(1.0, 0.5 * num_jobs * mean_interarrival)
            downtime = rng.uniform(0.5, 2.0)
            state[node] = Trace([(down_at, 0.0), (down_at + downtime, 1.0)],
                                name=f"{node}-state")
    last_submit = jobs[-1].submit if jobs else 0.0
    # Generous tail: total work spread over the fleet at the dipped speed,
    # tripled — enough for every non-lost job to land before the horizon.
    work = sum(job.flops for job in jobs)
    tail = 3.0 * work / (num_hosts * HOST_SPEED * DIP) + 5.0
    return ClusterWorkload(num_hosts=num_hosts, jobs=jobs,
                           availability=availability, state=state,
                           horizon=last_submit + tail)


# -- actor bodies (module-level so snapshotted engines can name them) ----------

def _dispatcher(actor, replay):
    """Feed jobs to per-node mailboxes at their submit dates, then hold
    the simulation open until the horizon (workers are daemons)."""
    engine = actor.engine
    for index, job in enumerate(replay.workload.jobs):
        if job.submit > actor.now:
            yield this_actor.sleep_for(job.submit - actor.now)
        node = job.host or f"{NODE_PREFIX}-{index % replay.workload.num_hosts}"
        # Record the outstanding entry before the send: the resubmitter
        # must never observe an unacked job it cannot see.
        replay.outstanding[index] = [node, job, actor.now]
        # Detached: a dispatch to a currently-dead node waits in the
        # mailbox and is delivered when the supervisor respawns its worker.
        yield engine.mailbox(node).put_async((index, job),
                                             size=DISPATCH_SIZE,
                                             detached=True)
        replay.dispatched += 1
    horizon = replay.horizon
    if horizon > actor.now:
        yield this_actor.sleep_for(horizon - actor.now)


def _worker(actor, metrics, ack_size):
    """One node: pull jobs from the node mailbox, compute, ack.

    A worker gets the replay's metrics and its ack size, not the replay
    itself: the supervisor keeps its children's arguments, and a replay
    holds its supervisor.
    """
    engine = actor.engine
    box = engine.mailbox(actor.host.name)
    while True:
        seq, job = yield box.get()
        try:
            yield actor.execute(job.flops)
        except HostFailureError:
            # The exec died but the actor survived (link-level failure
            # modes); a host failure kills the actor instead and the
            # supervisor's respawn re-enters this loop with a fresh body.
            metrics["failed_execs"] += 1
            continue
        yield engine.mailbox("acks").put_async(
            (actor.now, seq, job), size=ack_size, detached=True)


def _collector(actor, replay):
    """Bank acks on the frontend until the run ends.

    This is where duplicates die: the first ack of a sequence number
    retires its outstanding entry, later ones only bump the
    ``duplicates`` counter.  An ack whose node is killed while it is in
    flight fails the matched receive; it is counted (``acks_failed``)
    and the at-least-once resubmitter re-sends the job.
    """
    box = actor.engine.mailbox("acks")
    while True:
        try:
            msg = yield box.get()
        except TransferFailureError:
            replay.metrics["acks_failed"] += 1
            continue
        done_at, seq, job = msg
        if seq in replay.acked:
            replay.metrics["duplicates"] += 1
            continue
        replay.acked.add(seq)
        replay.outstanding.pop(seq, None)
        replay.completed.append((actor.now, job.name))


def _resubmitter(actor, replay):
    """At-least-once driver: re-send unacked jobs of suspected nodes.

    Wakes on detector events (forwarded over the ``ft:notify`` mailbox)
    and every ``DETECTOR_PERIOD`` otherwise.  A *suspect* event re-sends
    everything outstanding on that node immediately; the periodic sweep
    re-sends entries unacked for longer than ``ACK_TIMEOUT`` — the safety
    net for jobs lost to blips too short for the detector (e.g. a message
    that died in flight while its node stayed up).
    """
    engine = actor.engine
    notify = engine.mailbox("ft:notify")
    while True:
        suspect = None
        try:
            kind, node, _date = yield notify.get(timeout=DETECTOR_PERIOD)
            if kind == "suspect":
                suspect = node
        except (SimTimeoutError, TransferFailureError):
            pass
        now = actor.now
        for seq, entry in sorted(replay.outstanding.items()):
            node, job, sent = entry
            if node != suspect and now - sent <= ACK_TIMEOUT:
                continue
            if seq not in replay.outstanding:  # acked while we resent
                continue
            entry[2] = actor.now
            replay.metrics["resubmitted"] += 1
            yield engine.mailbox(node).put_async(
                (seq, job), size=DISPATCH_SIZE, detached=True)


class ClusterReplay:
    """Replay a :class:`ClusterWorkload` on an s4u star fleet.

    The platform is one ``frontend`` host with a star of worker nodes;
    each node carries the workload's availability/state traces *attached
    at declaration*, so the kernel drives them through the trace heap.
    Optional seeded churn (``churn_seed``) layers a
    :class:`FailureInjector` on top of the trace-driven failures.

    ``semantics`` selects the delivery mode (see the module docstring).
    The workers are always supervised.
    """

    def __init__(self, workload: ClusterWorkload,
                 link_latency: float = 1e-4,
                 ack_size: float = 1e4,
                 churn_seed: Optional[int] = None,
                 churn_mtbf: float = 2.0,
                 churn_downtime: float = 0.5,
                 churn_max_failures: int = 5,
                 semantics: str = "at_most_once",
                 supervised: bool = True) -> None:
        if semantics not in ("at_most_once", "at_least_once"):
            raise ValueError(f"unknown semantics {semantics!r}; pick "
                             "'at_most_once' or 'at_least_once'")
        # Vestige: perfbench/workloads.py passes supervised=True and
        # perfbench is frozen; the keyword goes at the next benchmark
        # re-gold.
        if supervised is not True:
            raise ValueError("every ClusterReplay fleet is supervised")
        self.workload = workload
        self.link_latency = link_latency
        self.ack_size = ack_size
        self.churn_seed = churn_seed
        self.churn_mtbf = churn_mtbf
        self.churn_downtime = churn_downtime
        self.churn_max_failures = churn_max_failures
        self.semantics = semantics
        self.horizon = (workload.horizon if workload.horizon is not None
                        else (workload.jobs[-1].submit + 30.0
                              if workload.jobs else 1.0))
        self.completed: List[tuple] = []
        self.dispatched = 0
        self.metrics: Dict[str, float] = {}
        #: seq -> [node, job, last-sent date] for unacked jobs; the set
        #: of seqs already acked (dedup).
        self.outstanding: Dict[int, list] = {}
        self.acked: set = set()
        self.supervisor: Optional[Supervisor] = None
        self.detector: Optional[HeartbeatMonitor] = None

    # -- platform ------------------------------------------------------------------
    def build_platform(self) -> Platform:
        workload = self.workload
        platform = Platform("cluster-replay")
        platform.add_host("frontend", HOST_SPEED)
        for index in range(workload.num_hosts):
            node = f"{NODE_PREFIX}-{index}"
            host = platform.add_host(
                node, HOST_SPEED,
                availability_trace=workload.availability.get(node),
                state_trace=workload.state.get(node))
            link = platform.add_link(f"{node}-link", LINK_BANDWIDTH,
                                     self.link_latency)
            platform.connect(host.name, "frontend", link.name)
        return platform

    # -- execution -----------------------------------------------------------------
    def run(self, sharded: bool = False) -> Dict[str, float]:
        """Replay the workload; returns the metrics dictionary."""
        return self._run(Engine(self.build_platform(), sharded=sharded))

    def _run(self, engine: Engine) -> Dict[str, float]:
        workload = self.workload
        self.completed = []
        self.dispatched = 0
        self.outstanding = {}
        self.acked = set()
        self.detector = None
        self.metrics = {"failed_execs": 0, "speed_changes": 0,
                        "host_downs": 0, "host_ups": 0,
                        "duplicates": 0, "resubmitted": 0,
                        "acks_failed": 0}

        engine.observe(self._count)

        nodes = [f"{NODE_PREFIX}-{i}" for i in range(workload.num_hosts)]
        engine.add_actor("dispatcher", "frontend", _dispatcher, self)
        engine.add_actor("collector", "frontend", _collector, self,
                         daemon=True)
        self.supervisor = Supervisor(
            engine,
            [ChildSpec(f"worker-{index}", node, _worker, self.metrics,
                       self.ack_size, restart="permanent", daemon=True)
             for index, node in enumerate(nodes)],
            max_restarts=SUPERVISOR_MAX_RESTARTS, window=SUPERVISOR_WINDOW,
            name="worker-supervisor", host="frontend", daemon=True)
        self.supervisor.start()
        if self.semantics == "at_least_once":
            self.detector = HeartbeatMonitor(
                engine, nodes, "frontend", period=DETECTOR_PERIOD,
                notify_mailbox="ft:notify", name="ft").start()
            engine.add_actor("resubmitter", "frontend", _resubmitter,
                             self, daemon=True)
        injector = None
        if self.churn_seed is not None:
            injector = FailureInjector(
                engine, seed=self.churn_seed,
                hosts=nodes,
                mtbf=self.churn_mtbf, mean_downtime=self.churn_downtime,
                max_failures=self.churn_max_failures).start()

        final = engine.run()
        metrics = dict(self.metrics)
        metrics.update(
            jobs=len(workload.jobs),
            dispatched=self.dispatched,
            completed=len(self.completed),
            lost=len(workload.jobs) - len(self.completed),
            makespan=(max(date for date, _ in self.completed)
                      if self.completed else 0.0),
            injected_failures=injector.failures if injector else 0,
            worker_restarts=self.supervisor.restarts,
            suspects=(len([e for e in self.detector.events
                           if e[1] == "suspect"]) if self.detector else 0),
            final_time=final,
        )
        return metrics

    # -- observer ------------------------------------------------------------------
    def _count(self, date, kind, subject, value) -> None:
        if kind == "speed":
            self.metrics["speed_changes"] += 1
        elif kind == "state" and isinstance(subject, Host):
            self.metrics["host_ups" if value else "host_downs"] += 1
