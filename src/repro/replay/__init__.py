"""Trace-driven cluster replay on top of s4u.

``repro.replay`` is a frontend, not kernel code: it composes the platform
description (availability/state traces attached at declaration), the s4u
actor API, the failure injector and the ``repro.ft`` supervisor and
heartbeat detector into the paper's validation workload — replaying
cluster-log shapes under seeded churn, with at-most-once or
at-least-once job delivery.  Import from here::

    from repro.replay import ClusterReplay, synthetic_workload
"""

from repro.replay.cluster import (
    ClusterJob,
    ClusterReplay,
    ClusterWorkload,
    synthetic_workload,
)

__all__ = [
    "ClusterJob",
    "ClusterReplay",
    "ClusterWorkload",
    "synthetic_workload",
]
