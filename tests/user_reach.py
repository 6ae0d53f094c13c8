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
neither entered, with ``never_run.py``'s exemptions, then one line per
package with its unreached, kept and verdict-less counts.  Every such
function must have a verdict in :data:`KEPT` saying why it stays, or be
deleted.  The exit status is 1 for a function with no verdict, for a
:data:`KEPT` entry that is stale (now entered, or no longer defined), and
if pytest failed or a workload reports itself broken; 0 otherwise.
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

_XML = ("(b) the SimGrid XML platform format; "
        "tests/test_platform.py::TestXmlLoading")
_RARE = "tests/test_s4u_api.py::TestEngineBasics::" \
        "test_the_rarely_called_names_in_one_scenario"
_LINK = "tests/test_failure_injection.py::TestLinkApi::" \
        "test_link_by_name_and_lookup_error"
_LMM_ORACLE = ("oracle: tests/lmm_reference.py, the reference max-min "
               "filling that tests/test_lmm_lazy.py checks "
               "MaxMinSystem.solve against, reads it")
_HOOKS = "tests/test_state_path.py::TestHooksDuringATurnOff"
_KILL = ("(b) MSG_process_kill; tests/test_s4u_api.py::TestActorLifecycle::"
         "test_kill_another_actor_s4u_style")
_SUSPEND = ("(b) MSG_process_suspend; tests/test_s4u_api.py::"
            "TestActorLifecycle::test_suspend_resume_across_actors")
_RESUME = ("(b) MSG_process_resume; tests/test_s4u_api.py::"
           "TestActorLifecycle::test_suspend_resume_across_actors")
_JOIN = ("(b) MSG_process_join; tests/test_s4u_api.py::TestActorLifecycle::"
         "test_join_waits_for_termination")
_TEST = ("(b) MSG_comm_test; tests/test_s4u_api.py::TestActivityFutures::"
         "test_test_polls_before_completion")
_WAITALL = ("(b) MSG_comm_waitall; tests/test_s4u_api.py::TestActivitySet::"
            "test_wait_all_blocks_until_every_member_is_done")
_DEADLOCK = ("(s) deadlock detection; tests/test_s4u_ported_msg.py::"
             "TestDeadlock::test_deadlock_raises_when_requested")
_SPEED_TESTS = ("tests/test_availability.py::TestRuntimeSpeedChange, and "
                "the zoned pins run it (tests/test_zoned_pins.py)")
_SPEED = ("(b) the XML host's availability_file (SURF), set by hand; "
          + _SPEED_TESTS)
_BANDWIDTH_TEST = ("tests/test_failure_injection.py::TestLinkApi::"
                   "test_set_bandwidth_reshapes_running_transfer")
_BANDWIDTH = ("(b) the XML link's bandwidth_file (SURF), set by hand; "
              + _BANDWIDTH_TEST)
_LATENCY_TEST = ("tests/test_failure_injection.py::TestLinkApi::"
                 "test_set_latency_only_affects_new_transfers")
_LATENCY = ("(b) the XML link's latency_file (SURF), set by hand; "
            + _LATENCY_TEST)
_LINK_STATE = ("(b) the XML link's state_file (SURF link failures), "
               "flipped by hand; " + _HOOKS)
_INTENSITY = ("(s) the supervisor's restart-intensity bound; "
              "tests/test_ft.py::TestSupervisor::"
              "test_permanent_quitter_escalates_at_the_bound")
_SATURATE = ("(b) amok_bw_saturate_start / amok_bw_saturate_stop; "
             "tests/test_amok.py::TestSaturation")
_BENCH = "tests/test_bench_sampler.py::test_sampler_charges_the_record"


def _mpi(call, test):
    """The verdict of an SMPI function that stands for MPI's ``call``,
    held by ``tests/test_smpi.py::<test>``."""
    return f"(b) {call}; tests/test_smpi.py::{test}"


_DATADESC = ("(b) receiver-makes-right decoding of gras_datadesc_by_name("
             "\"string\") and gras_datadesc_struct; "
             "tests/test_gras_datadesc.py::TestCompositeTypes")

#: Why an unreached function stays, as ``path::qualname``.
#: "(b)": a paper layer's API promises it (the MSG, GRAS, SMPI or AMOK
#: call, or the SimGrid platform file attribute it stands for), and the
#: named test covers it.
#: "oracle": the named test checks reached code against it.
#: "(s)": a safety guard, and the named test trips it.
#: "deferred": perfbench imports or pins it.
KEPT = {
    # kernel/
    "kernel/context.py::ThreadContext.kill":
        "(b) MSG_process_kill under thread contexts; " + _HOOKS,
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
        "(b) MSG_process_suspend of an actor blocked in an exec; "
        "tests/test_s4u_api.py::TestEveryWaitEveryEnding",
    "surf/action.py::Action.resume":
        "(b) MSG_process_resume of an actor blocked in an exec; "
        "tests/test_s4u_api.py::TestEveryWaitEveryEnding",
    "surf/cpu.py::CpuModel.set_cpu_speed":
        "(b) Host.set_speed's SURF half; " + _SPEED_TESTS,
    "surf/engine.py::SurfEngine.next_trace_event_date":
        _DEADLOCK + " (Engine._simulation_over's deadlock branch reads it)",
    "surf/engine.py::SurfEngine.has_pending_state_events":
        "(s) deadlock detection next to a periodic availability trace "
        "(Engine._simulation_over's deadlock branch reads it); "
        "tests/test_s4u_api.py::TestRunContract::"
        "test_a_periodic_trace_does_not_outlive_a_deadlock",
    "surf/lmm.py::Constraint.variables": _LMM_ORACLE,
    "surf/lmm.py::MaxMinSystem.variables": _LMM_ORACLE,
    "surf/lmm.py::_unconstrained_tail":
        "(s) no candidate limits the variables left (every usage below "
        "EPSILON, no bound): they take their bound or infinity instead "
        "of spinning the round loop; tests/test_lmm_lazy.py::"
        "test_the_pinned_corpus_enters_every_line_of_the_filling",
    "surf/model.py::FluidModel.on_action_priority_changed":
        "(b) MSG_process_suspend/resume and Host.set_speed, through "
        "Action.suspend/resume and CpuModel.set_cpu_speed; "
        "tests/test_s4u_api.py::TestEveryWaitEveryEnding",
    "surf/network.py::NetworkModel.set_link_bandwidth":
        "(b) Link.set_bandwidth's SURF half; " + _BANDWIDTH_TEST,
    "surf/network.py::NetworkModel.set_link_latency":
        "(b) Link.set_latency's SURF half; " + _LATENCY_TEST,
    "surf/resource.py::Resource.set_peak_capacity":
        "(b) the SURF half of Host.set_speed and Link.set_bandwidth; "
        + _SPEED_TESTS,
    "surf/shard.py::default_workers": "deferred: perfbench/rep.py imports it",
    "surf/trace.py::Trace.parse":
        "(b) the SimGrid trace file format; "
        "tests/test_surf_trace.py::TestParsing",
    # s4u/
    "s4u/activity.py::Activity.test": _TEST,
    "s4u/activity.py::Exec.cancel":
        "(b) MSG_task_cancel; tests/test_s4u_api.py::TestActivityFutures::"
        "test_cancel_wakes_waiter",
    "s4u/activity.py::Comm.cancel":
        "(b) MSG_task_cancel on a transfer; an SMPI receive that times out "
        "withdraws its comm; tests/test_s4u_api.py::TestActivityFutures::"
        "test_cancel_wakes_waiter",
    "s4u/activity.py::Activity.remaining":
        "(b) MSG_task_get_remaining_computation; " + _RARE,
    "s4u/activity.py::ActivitySet.__contains__":
        "oracle: checks that wait_any reaped the member that ended it; "
        "tests/test_s4u_api.py::TestEveryWaitEveryEnding",
    "s4u/activity.py::ActivitySet.wait_all": _WAITALL,
    "s4u/activity.py::ActivitySet.test_any":
        "(b) MSG_comm_testany; tests/test_s4u_api.py::TestActivitySet::"
        "test_test_any_polls_without_blocking",
    "s4u/actor.py::Actor.is_suspended":
        "(b) MSG_process_is_suspended; " + _RARE,
    "s4u/actor.py::Actor.kill": _KILL,
    "s4u/actor.py::Actor.resume": _RESUME,
    "s4u/actor.py::Actor.join": _JOIN,
    "s4u/engine.py::Engine.link_by_name":
        "(b) the XML link's id, by which SURF names a link; " + _LINK,
    "s4u/engine.py::Engine.actor_count":
        "(b) MSG_process_get_number; tests/test_s4u_api.py::"
        "TestActorLifecycle::test_spawn_join_reap_waves",
    "s4u/engine.py::Engine.deadlocked": _DEADLOCK,
    "s4u/engine.py::Engine._handle_deadlock": _DEADLOCK,
    "s4u/engine.py::Engine._do_test": _TEST,
    "s4u/engine.py::Engine._do_kill": _KILL,
    "s4u/engine.py::Engine._do_wait_all": _WAITALL,
    "s4u/engine.py::Engine._suspend_other": _SUSPEND,
    "s4u/engine.py::Engine._do_resume_other": _RESUME,
    "s4u/engine.py::Engine._resume_other": _RESUME,
    "s4u/engine.py::Engine._do_join": _JOIN,
    "s4u/host.py::Host.cores":
        "(b) MSG_host_get_core_number, the XML core attribute; " + _RARE,
    "s4u/host.py::Host.set_speed": _SPEED,
    "s4u/link.py::Link.bandwidth":
        "(b) the XML link's bandwidth attribute; " + _LINK,
    "s4u/link.py::Link.latency":
        "(b) the XML link's latency attribute; " + _LINK,
    "s4u/link.py::Link.is_on":
        "(b) SURF's link failures (state traces); " + _LINK,
    "s4u/link.py::Link.turn_off": _LINK_STATE,
    "s4u/link.py::Link.turn_on": _LINK_STATE,
    "s4u/link.py::Link.set_bandwidth": _BANDWIDTH,
    "s4u/link.py::Link.set_latency": _LATENCY,
    "s4u/mailbox.py::Mailbox.empty":
        "oracle: checks that failure paths leave no comm queued; "
        "tests/test_failure_injection.py::TestFailureEdgeCases::"
        "test_peer_host_dies_before_rendezvous_matches",
    "s4u/mailbox.py::Mailbox.listen":
        "(b) MSG_task_listen; tests/test_migration_equivalence.py::"
        "TestPortPrimitives::test_mailbox_listen_and_peek",
    "s4u/mailbox.py::Mailbox.pending_payloads":
        "(b) MPI_Iprobe, through Communicator.iprobe; "
        "tests/test_migration_equivalence.py::TestPortPrimitives::"
        "test_smpi_iprobe_sees_message_behind_nonmatching_head",
    "s4u/this_actor.py::get_name":
        "(b) MSG_process_get_name; "
        "tests/test_s4u_api.py::TestEngineBasics::test_this_actor_helpers",
    "s4u/this_actor.py::get_pid": "(b) MSG_process_get_PID; " + _RARE,
    # ft/
    "ft/supervisor.py::Supervisor._spend_restart_token": _INTENSITY,
    "ft/supervisor.py::Supervisor._escalate": _INTENSITY,
    # campaign/
    "campaign/runner.py::default_campaign_workers":
        "deferred: perfbench/rep.py imports it",
    "campaign/runner.py::_run_forked":
        "deferred: perfbench's campaign_fork runs workers=0 until a "
        "benchmark row decides the pool; tests/test_campaign.py::"
        "TestSnapshotFanout",
    # amok/
    "amok/saturation.py::SaturationExperiment._timed_transfer": _SATURATE,
    "amok/saturation.py::SaturationExperiment._timed_transfer.<locals>"
    ".sender": _SATURATE,
    "amok/saturation.py::SaturationExperiment._timed_transfer.<locals>"
    ".receiver": _SATURATE,
    "amok/saturation.py::SaturationExperiment._timed_transfer.<locals>"
    ".sink": _SATURATE,
    "amok/saturation.py::SaturationExperiment.run": _SATURATE,
    # gras/
    "gras/bench.py::BenchRecorder.__missing__":
        "(s) a bench site with no record names its key before anything "
        "is charged; tests/test_bench_sampler.py::"
        "test_a_site_with_no_record_fails_naming_its_key",
    "gras/datadesc.py::StringDesc.decode": _DATADESC,
    "gras/datadesc.py::StructDesc.decode": _DATADESC,
    "gras/datadesc.py::declare_struct":
        "(b) gras_datadesc_struct; tests/test_gras_datadesc.py::"
        "TestRegistry::test_declare_struct_registers_by_name",
    "gras/rl_backend.py::RlGrasProcess.bench_once":
        "(b) GRAS_BENCH_ONCE_RUN_ONCE_BEGIN/END in real life; "
        "tests/test_gras_messaging.py::TestRealLifeMode::"
        "test_bench_blocks_run_for_real_without_a_record",
    "gras/sim_backend.py::SimGrasProcess.bench_once":
        "(b) GRAS_BENCH_ONCE_RUN_ONCE_BEGIN/END; " + _BENCH,
    # smpi/
    "smpi/api.py::Smpi.wtime":
        _mpi("MPI_Wtime",
             "TestPointToPoint::test_wtime_monotonic_and_positive"),
    "smpi/api.py::Smpi.host_name":
        _mpi("MPI_Get_processor_name", "TestBenchAndHeterogeneity::"
             "test_more_ranks_than_hosts_round_robin"),
    "smpi/api.py::Smpi.compute":
        _mpi("SimGrid's later SMPI_SAMPLE_FLOPS (a declared amount of "
             "computation)", "TestBenchAndHeterogeneity::"
             "test_compute_charges_simulated_time"),
    "smpi/api.py::Smpi.bench_always":
        "(b) SMPI_BENCH_ALWAYS; " + _BENCH,
    "smpi/collectives.py::SUM":
        _mpi("MPI_SUM", "TestCollectives::test_reduce_sum_at_root"),
    "smpi/collectives.py::MAX":
        _mpi("MPI_MAX", "TestCollectives::test_reduce_other_operators"),
    "smpi/collectives.py::MIN":
        _mpi("MPI_MIN", "TestCollectives::test_reduce_other_operators"),
    "smpi/collectives.py::PROD":
        _mpi("MPI_PROD", "TestCollectives::test_reduce_other_operators"),
    "smpi/collectives.py::reduce":
        _mpi("MPI_Reduce", "TestCollectives::test_reduce_sum_at_root"),
    "smpi/collectives.py::allreduce":
        _mpi("MPI_Allreduce", "TestCollectives::test_allreduce_numpy_arrays"),
    "smpi/collectives.py::gather":
        _mpi("MPI_Gather", "TestCollectives::test_gather_scatter_allgather"),
    "smpi/collectives.py::allgather":
        _mpi("MPI_Allgather",
             "TestCollectives::test_gather_scatter_allgather"),
    "smpi/collectives.py::scatter":
        _mpi("MPI_Scatter", "TestCollectives::test_gather_scatter_allgather"),
    "smpi/collectives.py::alltoall":
        _mpi("MPI_Alltoall", "TestCollectives::test_alltoall"),
    "smpi/collectives.py::barrier":
        _mpi("MPI_Barrier",
             "TestCollectives::test_barrier_synchronises_ranks"),
    "smpi/comm.py::Communicator.isend":
        _mpi("MPI_Isend", "TestPointToPoint::test_isend_irecv_wait"),
    "smpi/comm.py::Communicator.issend":
        _mpi("MPI_Issend", "TestWaitall"),
    "smpi/comm.py::Communicator.wait":
        _mpi("MPI_Wait", "TestPointToPoint::test_isend_irecv_wait"),
    "smpi/comm.py::Communicator.test":
        _mpi("MPI_Test", "TestRequestProgress::test_failed_issend_raises"),
    "smpi/comm.py::Communicator.waitany":
        _mpi("MPI_Waitany", "TestRequestProgress::"
             "test_timeout_is_a_deadline_across_nonmatching_messages"),
    "smpi/comm.py::Communicator.waitall":
        _mpi("MPI_Waitall", "TestWaitall"),
    "smpi/comm.py::Communicator.sendrecv":
        _mpi("MPI_Sendrecv", "TestPointToPoint::test_sendrecv_ring"),
    "smpi/comm.py::Communicator.iprobe":
        "(b) MPI_Iprobe; tests/test_migration_equivalence.py::"
        "TestPortPrimitives::test_smpi_iprobe_and_unexpected_queue",
    "smpi/datatypes.py::Datatype.extent":
        _mpi("MPI_Type_get_extent", "TestDatatypes::test_extent"),
}


def package_of(name):
    """``s4u/`` for ``s4u/actor.py::Actor.kill``; a module at the top of
    the package is its own entry (``__init__.py``)."""
    path = name.split("::")[0]
    return path.split("/")[0] + "/" if "/" in path else path


def run_workloads():
    """Run every perfbench workload once under the hook; return
    (broken workloads, entered)."""
    from perfbench import workloads

    # Pools off, as in every perfbench repetition: a forked worker's
    # calls would not reach the hook.
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
        else:
            print(f"unreached: {name}  [NO VERDICT]")
            unjudged += 1
    for name in sorted(set(KEPT) - set(missing)):
        why = "now entered" if name in defined else "no longer defined"
        print(f"stale KEPT entry: {name} ({why})")
        stale += 1
    counts = {}
    for name in missing:
        row = counts.setdefault(package_of(name), [0, 0, 0])
        row[0] += 1
        row[1 if name in KEPT else 2] += 1
    for package, (unreached, kept, open_) in sorted(counts.items()):
        print(f"user_reach: {package} {unreached} unreached, {kept} kept, "
              f"{open_} without a verdict")
    for name, problems in broken.items():
        print(f"user_reach: workload {name} broken: {problems}")
    if status != 0:
        print(f"user_reach: pytest exited {status}")
    exempted = ", ".join(f"{count} {why}"
                         for why, count in sorted(exempt.items()))
    print(f"user_reach: {len(missing)} function(s) under src/repro never "
          f"entered by a user run, {len(KEPT) - stale} kept, {unjudged} "
          f"with no verdict, {stale} stale KEPT entries "
          f"(exempt and never entered: {exempted})")
    return 1 if (unjudged or stale or broken or status != 0) else 0


if __name__ == "__main__":
    sys.exit(main())
