#!/usr/bin/env python
"""Fault-tolerance toolkit: a supervised pipeline surviving host churn.

The three ``repro.ft`` primitives composed into one loss-free
master/worker pipeline:

* a :class:`~repro.ft.Supervisor` keeps the worker fleet alive
  (one-for-one restarts; a child churned away with its host is parked
  and re-spawned when the host reboots);
* a :class:`~repro.ft.HeartbeatMonitor` watches the worker hosts and
  reports suspect/alive flips as they happen;
* the master pushes every item through a seeded
  :class:`~repro.ft.RetryPolicy` (exponential backoff, deterministic
  jitter, per-attempt timeout) — a send parked on a dead worker times
  out and is retried until the supervisor has the worker back — and
  re-submits whatever the consumer has not acknowledged, so duplicates
  are possible but losses are not.

A seeded :class:`~repro.s4u.failure.FailureInjector` does the damage.
Everything is deterministic: same seed, same flips, same dates.

Run with::

    python examples/supervised_pipeline.py [seed]
"""

import sys

from repro import s4u
from repro.exceptions import TransferFailureError
from repro.ft import ChildSpec, HeartbeatMonitor, RetryPolicy, Supervisor
from repro.platform import make_star
from repro.s4u import FailureInjector

NUM_WORKERS = 4
NUM_ITEMS = 40
ITEM_FLOPS = 1e8        # 100 ms per item on a 1 GFlop/s host
ITEM_BYTES = 1e3
DRAIN_WAIT = 1.0        # settle time before re-submitting unacked items


def worker(actor, index):
    """Pull an item from this worker's inbox, crunch it, push the result."""
    jobs = actor.engine.mailbox(f"jobs-{index}")
    out = actor.engine.mailbox("out")
    while True:
        try:
            item, flops = yield jobs.get()
        except TransferFailureError:
            continue
        yield actor.execute(flops)
        yield out.put((item, index), size=ITEM_BYTES)


def consumer(actor, state):
    """Dedup sink: first delivery of each item id wins."""
    out = actor.engine.mailbox("out")
    while True:
        try:
            item, _index = yield out.get()
        except TransferFailureError:
            continue
        if item in state["acked"]:
            state["duplicates"] += 1
        else:
            state["acked"].add(item)


def master(actor, state, policy, verbose):
    """Retry-wrapped round-robin submission, at-least-once overall."""
    engine = actor.engine
    pending = sorted(range(NUM_ITEMS))
    turn = 0
    first_round = True
    while pending:
        if not first_round:
            state["resubmissions"] += len(pending)
            if verbose:
                print(f"[{engine.now:7.3f}] re-submitting "
                      f"{len(pending)} unacked item(s): {pending}")
        for item in pending:
            inbox = engine.mailbox(f"jobs-{turn % NUM_WORKERS}")
            turn += 1
            yield from policy.run(
                lambda box=inbox, item=item: box.put_async(
                    (item, ITEM_FLOPS), size=ITEM_BYTES))
        yield actor.sleep_for(DRAIN_WAIT)
        pending = sorted(set(range(NUM_ITEMS)) - state["acked"])
        first_round = False


def run(seed=42, verbose=True):
    engine = s4u.Engine(make_star(num_hosts=NUM_WORKERS, host_speed=1e9,
                                  link_bandwidth=125e6, link_latency=1e-4))
    leaves = [f"leaf-{i}" for i in range(NUM_WORKERS)]
    state = {"acked": set(), "duplicates": 0, "resubmissions": 0}
    policy = RetryPolicy(max_attempts=8, base_delay=0.2, seed=7,
                         attempt_timeout=1.5)

    def flip(kind):
        return lambda host, date: verbose and print(
            f"[{date:7.3f}] detector: {kind} {host}")

    supervisor = Supervisor(
        engine,
        [ChildSpec(f"worker-{i}", leaves[i], worker, i)
         for i in range(NUM_WORKERS)],
        max_restarts=50, window=10.0,
        name="pipeline-supervisor", host="center", daemon=True)
    supervisor.start()
    monitor = HeartbeatMonitor(engine, leaves, "center",
                               period=0.25, timeout=0.75,
                               on_suspect=flip("suspect"),
                               on_alive=flip("alive")).start()
    engine.add_actor("consumer", "center", consumer, state, daemon=True)
    engine.add_actor("master", "center", master, state, policy, verbose)

    injector = FailureInjector(engine, seed=seed, hosts=leaves,
                               mtbf=0.4, mean_downtime=2.0, max_failures=5)
    injector.start()

    final = engine.run()
    suspects = sum(1 for _, kind, _ in monitor.events if kind == "suspect")
    if verbose:
        print(f"[{final:7.3f}] pipeline done: "
              f"{len(state['acked'])}/{NUM_ITEMS} items, "
              f"{policy.retries} send retries, "
              f"{state['resubmissions']} re-submissions, "
              f"{state['duplicates']} duplicates, "
              f"{supervisor.restarts} worker restarts, "
              f"{suspects} suspicions through {injector.failures} failures")
    return {"final_time": final, "delivered": len(state["acked"]),
            "duplicates": state["duplicates"],
            "resubmissions": state["resubmissions"],
            "send_retries": policy.retries,
            "worker_restarts": supervisor.restarts,
            "suspects": suspects, "failures": injector.failures}


if __name__ == "__main__":
    run(seed=int(sys.argv[1]) if len(sys.argv) > 1 else 42)
