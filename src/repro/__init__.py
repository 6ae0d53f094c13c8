"""repro — a pure-Python reproduction of the SimGrid HPDC'06 system.

The package mirrors the paper's architecture, unified (as SimGrid itself
later did) behind **one canonical actor/activity API**: :mod:`repro.s4u`::

    GRAS                 SMPI                  AMOK
    (dev + deployment)   (MPI app simulation)  (grid toolbox)
            \\              |                  /
             +------ s4u (actors, mailboxes, activity futures) ------+
                              |
                      kernel (contexts, simcalls, timers)
                              |
                            SURF  (fluid platform simulation, MaxMin fairness)
                              |
                  platform (hosts, links, routing zones, topologies)

plus ``repro.packet`` (a packet-level TCP simulator standing in for
NS2/GTNetS in the validation experiment), ``repro.wire`` (middleware
wire-format comparators for the GRAS tables), ``repro.amok`` (the Grid
Application Toolbox: monitoring and topology discovery) and
``repro.tracing`` (Gantt charts).

Quickstart (s4u, the canonical API)
-----------------------------------
>>> from repro import ActivitySet, Engine, make_star
>>> engine = Engine(make_star(num_hosts=2))
>>> def pinger(actor):
...     yield actor.engine.mailbox("rendezvous").put("ping", size=1e6)
>>> def ponger(actor):
...     inbox = actor.engine.mailbox("rendezvous")
...     comp = yield actor.exec_async(1e9)       # overlap compute...
...     comm = yield inbox.get_async()           # ...with a receive
...     pending = ActivitySet([comp, comm])
...     while not pending.empty():
...         done = yield pending.wait_any()      # reap in completion order
>>> _ = engine.add_actor("pinger", "leaf-0", pinger)
>>> _ = engine.add_actor("ponger", "leaf-1", ponger)
>>> final_time = engine.run()

GRAS (:class:`repro.gras.SimWorld`), SMPI (:class:`repro.smpi.SmpiWorld`)
and AMOK all drive this engine directly.  The paper's MSG API
(``Environment``/``Process``/``Task``) was retired after a deprecation
cycle: accessing those names now raises a clear :class:`ImportError`
pointing at the s4u equivalents.
"""

from repro import s4u
from repro.s4u import (
    Activity,
    ActivitySet,
    Actor,
    Comm,
    Engine,
    Exec,
    FailureInjector,
    Host,
    Link,
    Mailbox,
    Sleep,
    this_actor,
)

from repro.exceptions import (
    CancelledError,
    DataDescriptionError,
    DeadlockError,
    HostFailureError,
    MpiError,
    NetworkError,
    NoRouteError,
    PlatformError,
    ProcessKilledError,
    SimGridError,
    SimTimeoutError,
    TransferFailureError,
    UnknownMessageError,
)
from repro.platform import (
    NetZone,
    Platform,
    load_platform,
    make_client_server_lan,
    make_cluster,
    make_dumbbell,
    make_star,
    make_two_site_grid,
    make_waxman_topology,
    make_zoned_grid,
)
from repro.surf import (
    CpuModel,
    MaxMinSystem,
    NetworkModel,
    NetworkModelConfig,
    SurfEngine,
    Trace,
)
from repro.tracing import GanttChart, Recorder
from repro.version import __version__

#: The retired MSG API and where each name went.  The deprecated
#: compatibility shim (``repro.msg``) was removed after a deprecation
#: cycle; resolving one of its names fails loudly with the s4u equivalent
#: instead of an opaque AttributeError.
_MSG_REMOVED = {
    "Environment": "repro.s4u.Engine",
    "Process": "repro.s4u.Actor",
    "ProcessState": "repro.s4u.ActorState",
    "Task": "a plain payload plus Mailbox.put(payload, size=...)",
}


def __getattr__(name):
    if name in _MSG_REMOVED:
        raise ImportError(
            f"the deprecated MSG API was removed; repro.{name} is now "
            f"{_MSG_REMOVED[name]} (see repro.s4u)")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Activity",
    "ActivitySet",
    "Actor",
    "CancelledError",
    "Comm",
    "CpuModel",
    "DataDescriptionError",
    "DeadlockError",
    "Engine",
    "Exec",
    "FailureInjector",
    "GanttChart",
    "Host",
    "HostFailureError",
    "Link",
    "Mailbox",
    "MaxMinSystem",
    "MpiError",
    "NetworkError",
    "NetZone",
    "NetworkModel",
    "NetworkModelConfig",
    "NoRouteError",
    "Platform",
    "PlatformError",
    "ProcessKilledError",
    "Recorder",
    "SimGridError",
    "SimTimeoutError",
    "Sleep",
    "SurfEngine",
    "Trace",
    "TransferFailureError",
    "UnknownMessageError",
    "__version__",
    "load_platform",
    "make_client_server_lan",
    "make_cluster",
    "make_dumbbell",
    "make_star",
    "make_two_site_grid",
    "make_waxman_topology",
    "make_zoned_grid",
    "s4u",
    "this_actor",
]
