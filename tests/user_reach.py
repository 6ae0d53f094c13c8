"""User-reach report: which functions under ``src/repro`` no user reaches.

Run it from the repository root::

    PYTHONPATH=src python tests/user_reach.py

``tests/never_run.py`` proves that tier-1 enters every function, but
tier-1 includes each function's own unit tests.  This report drops them:
under the same profile hook it runs only what a user of the simulator
runs, namely

* ``pytest benchmarks tests/test_examples.py`` (the paper artefacts E1-E9
  and every example), and
* each ``perfbench`` workload in-process at seed 1, scale 0.05, the way
  ``perfbench/run.py`` runs a repetition: build, ``run()``,
  ``broken()``, ``counts()``.

It prints ``unreached: <path>::<qualname>`` for every function that
neither entered, with ``never_run.py``'s exemptions.  A function in a triaged
package (:data:`TRIAGED_PACKAGES` and :data:`TRIAGED_READERS`) must have
a verdict in :data:`KEPT` saying why it stays, or be deleted.  The exit
status is 1 for a triaged function with no verdict, for a :data:`KEPT`
entry that is stale (now entered, or no longer defined), and if pytest
failed or a workload reports itself broken; 0 otherwise.  Untriaged packages are listed but do not fail.
This file is not collected by tier-1.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import never_run  # noqa: E402

#: Seed and scale of the in-process workload runs.
SEED = 1
SCALE = 0.05

#: Packages whose every unreached function has a verdict.
TRIAGED_PACKAGES = ("surf/", "platform/", "tracing/", "kernel/", "packet/")

#: The pure s4u readers, triaged the same way (the deleted ones too, so
#: that one coming back without a verdict fails).
TRIAGED_READERS = frozenset({
    "s4u/host.py::Host.cores", "s4u/host.py::Host.load",
    "s4u/host.py::Host.actor_count",
    "s4u/link.py::Link.bandwidth", "s4u/link.py::Link.latency",
    "s4u/link.py::Link.is_on", "s4u/link.py::Link.current_bandwidth",
    "s4u/link.py::Link.load",
    "s4u/engine.py::Engine.actor_count",
    "s4u/activity.py::Activity.is_started",
    "s4u/activity.py::Activity.remaining",
    "s4u/activity.py::ActivitySet.__contains__",
    "s4u/activity.py::ActivitySet.__iter__",
    "s4u/activity.py::ActivitySet.__len__",
    "s4u/activity.py::ActivitySet.activities",
    "s4u/actor.py::Actor.is_suspended",
    "s4u/mailbox.py::Mailbox.empty",
    "s4u/mailbox.py::Mailbox.waiting_send_count",
    "s4u/mailbox.py::Mailbox.pending_payloads",
    "s4u/this_actor.py::get_name", "s4u/this_actor.py::get_pid",
    "s4u/this_actor.py::is_suspended",
})

_XML = ("(b) the SimGrid XML platform format; "
        "tests/test_platform.py::TestXmlLoading")
_RARE = "tests/test_s4u_api.py::TestEngineBasics::" \
        "test_the_rarely_called_names_in_one_scenario"
_LINK = "tests/test_failure_injection.py::TestLinkApi::" \
        "test_link_by_name_and_lookup_error"
_LMM_ORACLE = ("oracle: tests/lmm_reference.py, the reference max-min "
               "filling that tests/test_lmm_lazy.py checks "
               "MaxMinSystem.solve against, reads it")

#: Why an unreached, triaged function stays, as ``path::qualname``.
#: "(b)": a paper layer's API promises it, and the named test covers it.
#: "oracle": the named test checks reached code against it.
#: "deferred": its only callers are untriaged, or perfbench imports it.
KEPT = {
    # kernel/
    "kernel/context.py::ThreadContext.kill":
        "deferred: Actor.kill under thread contexts",
    "kernel/timer.py::TimerQueue.__len__":
        "oracle: counts the live timers that failure and snapshot paths "
        "leave; tests/test_failure_injection.py::TestTimeoutFailureRaces"
        "::test_timeout_vs_link_failure_same_date_one_outcome",
    # platform/
    "platform/loader.py::load_platform": _XML,
    "platform/loader.py::_load_xml": _XML,
    "platform/loader.py::_describe": _XML,
    "platform/loader.py::_attribute": _XML,
    "platform/loader.py::_quantity": _XML,
    "platform/loader.py::parse_quantity":
        "(b) the SimGrid XML platform format's units; "
        "tests/test_platform.py::TestQuantityParsing",
    "platform/routing.py::DijkstraRouting._no_route":
        "(b) the SimGrid XML platform format: hosts a platform file "
        "leaves unconnected have no route; "
        "tests/test_platform.py::TestRouting::test_no_route_raises",
    # surf/
    "surf/action.py::Action.remaining":
        "(b) MSG_task_get_remaining_computation, through "
        "Activity.remaining; " + _RARE,
    "surf/action.py::Action.suspend":
        "deferred: Actor.suspend (MSG_process_suspend)",
    "surf/action.py::Action.resume":
        "deferred: Actor.resume (MSG_process_resume)",
    "surf/cpu.py::CpuModel.set_cpu_speed": "deferred: Host.set_speed",
    "surf/engine.py::SurfEngine.next_trace_event_date":
        "deferred: Engine._simulation_over's deadlock branch, before "
        "Engine._handle_deadlock",
    "surf/lmm.py::Constraint.variables": _LMM_ORACLE,
    "surf/lmm.py::MaxMinSystem.variables": _LMM_ORACLE,
    "surf/model.py::FluidModel.on_action_priority_changed":
        "deferred: Action.suspend/resume and CpuModel.set_cpu_speed",
    "surf/network.py::NetworkModel.set_link_bandwidth":
        "deferred: Link.set_bandwidth",
    "surf/network.py::NetworkModel.set_link_latency":
        "deferred: Link.set_latency",
    "surf/resource.py::Resource.set_peak_capacity":
        "deferred: Host.set_speed and Link.set_bandwidth",
    "surf/shard.py::default_workers": "deferred: perfbench/rep.py imports it",
    "surf/trace.py::Trace.parse":
        "(b) the SimGrid trace file format; "
        "tests/test_surf_trace.py::TestParsing",
    # the s4u readers
    "s4u/host.py::Host.cores":
        "(b) MSG_host_get_core_number, the XML core attribute; " + _RARE,
    "s4u/link.py::Link.bandwidth":
        "(b) the XML link's bandwidth attribute; " + _LINK,
    "s4u/link.py::Link.latency":
        "(b) the XML link's latency attribute; " + _LINK,
    "s4u/link.py::Link.is_on":
        "(b) SURF's link failures (state traces); " + _LINK,
    "s4u/engine.py::Engine.actor_count":
        "(b) MSG_process_get_number; tests/test_s4u_api.py::"
        "TestActorLifecycle::test_spawn_join_reap_waves",
    "s4u/activity.py::Activity.remaining":
        "(b) MSG_task_get_remaining_computation; " + _RARE,
    "s4u/activity.py::ActivitySet.__contains__":
        "oracle: checks that wait_any reaped the member that ended it; "
        "tests/test_s4u_api.py::TestEveryWaitEveryEnding",
    "s4u/actor.py::Actor.is_suspended":
        "(b) MSG_process_is_suspended; " + _RARE,
    "s4u/mailbox.py::Mailbox.empty":
        "oracle: checks that failure paths leave no comm queued; "
        "tests/test_failure_injection.py::TestFailureEdgeCases::"
        "test_peer_host_dies_before_rendezvous_matches",
    "s4u/mailbox.py::Mailbox.pending_payloads":
        "deferred: SMPI's iprobe (smpi/comm.py)",
    "s4u/this_actor.py::get_name":
        "(b) MSG_process_get_name; "
        "tests/test_s4u_api.py::TestEngineBasics::test_this_actor_helpers",
    "s4u/this_actor.py::get_pid": "(b) MSG_process_get_PID; " + _RARE,
}


def triaged(name):
    return name.startswith(TRIAGED_PACKAGES) or name in TRIAGED_READERS


def run_workloads():
    """Run every perfbench workload once under the hook; return
    (broken workloads, entered)."""
    from perfbench import workloads

    # Pools off, as in every perfbench repetition: a forked worker's
    # calls would not reach the hook.
    os.environ["REPRO_PARALLEL"] = "0"
    os.environ["REPRO_CAMPAIGN_WORKERS"] = "0"
    broken = {}
    codes = set()
    with never_run.profiled(codes):
        for name, build in workloads.WORKLOADS.items():
            prepared = build(SEED, SCALE)
            prepared.run()
            problems = prepared.broken()
            if problems:
                broken[name] = problems
            prepared.counts()
    return broken, never_run.entered_of(codes)


def main():
    status, entered = never_run.run_tier1(
        ("-q", "benchmarks", "tests/test_examples.py"))
    broken, by_workloads = run_workloads()
    missing, exempt = never_run.never_entered(entered | by_workloads)
    defined = set(never_run.never_entered(set())[0])

    unjudged = stale = 0
    for name in missing:
        if name in KEPT:
            print(f"unreached: {name}  [{KEPT[name]}]")
        elif triaged(name):
            print(f"unreached: {name}  [NO VERDICT]")
            unjudged += 1
        else:
            print(f"unreached: {name}")
    for name in sorted(set(KEPT) - set(missing)):
        why = "now entered" if name in defined else "no longer defined"
        print(f"stale KEPT entry: {name} ({why})")
        stale += 1
    for name, problems in broken.items():
        print(f"user_reach: workload {name} broken: {problems}")
    if status != 0:
        print(f"user_reach: pytest exited {status}")
    exempted = ", ".join(f"{count} {why}"
                         for why, count in sorted(exempt.items()))
    print(f"user_reach: {len(missing)} function(s) under src/repro never "
          f"entered by a user run, {len(KEPT) - stale} kept, {unjudged} "
          f"triaged with no verdict, {stale} stale KEPT entries "
          f"(exempt and never entered: {exempted})")
    return 1 if (unjudged or stale or broken or status != 0) else 0


if __name__ == "__main__":
    sys.exit(main())
