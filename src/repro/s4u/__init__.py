"""repro.s4u — the unified actor/activity API every other API runs on.

Mirrors SimGrid's S4U ("SimGrid for you") interface: one
:class:`~repro.s4u.engine.Engine` owns the platform and the simulated
clock; :class:`~repro.s4u.actor.Actor`\\ s run on
:class:`~repro.s4u.host.Host`\\ s and exchange payloads through named
:class:`~repro.s4u.mailbox.Mailbox`\\ es; a computation or a transfer
is a first-class :class:`~repro.s4u.activity.Activity` future
(:class:`~repro.s4u.activity.Exec`, :class:`~repro.s4u.activity.Comm`),
started by the call that creates it, that can be ``test()``-ed, ``wait()``-ed and ``cancel()``-ed, and
reaped in groups with :class:`~repro.s4u.activity.ActivitySet`.

Quickstart (generator contexts: blocking calls are ``yield``-ed)::

    from repro import s4u
    from repro.platform import make_star

    engine = s4u.Engine(make_star(num_hosts=2))

    def worker(actor):
        inbox = actor.engine.mailbox("inbox")
        comp = yield actor.exec_async(1e9)       # overlap compute...
        comm = yield inbox.get_async()           # ...with a receive
        pending = s4u.ActivitySet([comp, comm])
        while not pending.empty():
            done = yield pending.wait_any()      # reap in completion order

    def feeder(actor):
        yield actor.engine.mailbox("inbox").put("hello", size=1e6)

    engine.add_actor("worker", "leaf-0", worker)
    engine.add_actor("feeder", "leaf-1", feeder)
    engine.run()

s4u is the canonical API of the package: GRAS (simulation mode), SMPI and
AMOK drive these classes directly — every simulation executes on this one
engine.  (The paper's MSG API was retired after a deprecation cycle; its
names map to Engine/Actor/mailbox payloads.)
"""

from repro.s4u import this_actor
from repro.s4u.activity import (
    Activity,
    ActivitySet,
    ActivityState,
    Comm,
    Exec,
)
from repro.s4u.actor import Actor, current_actor
from repro.s4u.engine import Engine
from repro.s4u.failure import FailureInjector
from repro.s4u.host import Host
from repro.s4u.link import Link
from repro.s4u.mailbox import Mailbox

__all__ = [
    "Activity",
    "ActivitySet",
    "ActivityState",
    "Actor",
    "Comm",
    "Engine",
    "Exec",
    "FailureInjector",
    "Host",
    "Link",
    "Mailbox",
    "current_actor",
    "this_actor",
]
