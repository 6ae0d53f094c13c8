"""repro.ft — fault-tolerance primitives on the public s4u surface.

The failure model (PR 4) made injectors, auto-restart and resource state
observers first-class; this package layers the *policies* the paper's
fault-tolerance studies need on top, as reusable building blocks instead
of per-frontend copies:

* :class:`~repro.ft.retry.RetryPolicy` — seeded exponential backoff with
  deterministic jitter around any activity-producing callable
  (``result = yield from policy.run(lambda: actor.exec_async(1e9))``);
* :class:`~repro.ft.heartbeat.HeartbeatMonitor` — a monitor actor
  exchanging seq-numbered heartbeats over mailboxes, firing
  suspect/alive callbacks consistent with the ground-truth
  ``on_host_state_change`` events;
* :class:`~repro.ft.supervisor.Supervisor` /
  :class:`~repro.ft.supervisor.ChildSpec` — one-for-one restart of a
  worker fleet (permanent / transient / temporary children, host-down
  parking) with a bounded restart intensity that escalates, built
  purely on ``on_exit`` + ``add_actor``.

Everything is deterministic under a fixed seed and follows the PR-8
snapshot rules: no lambdas in timer callbacks, no ``id()``-keyed state,
module-level actor bodies — so the same dates replay bit-identically on
the flat and sharded kernels and across an ``engine.snapshot()`` /
``Engine.restore()`` round-trip.
"""

from repro.ft.heartbeat import HeartbeatMonitor
from repro.ft.retry import RetryError, RetryPolicy
from repro.ft.supervisor import ChildSpec, Supervisor

__all__ = [
    "ChildSpec",
    "HeartbeatMonitor",
    "RetryError",
    "RetryPolicy",
    "Supervisor",
]
