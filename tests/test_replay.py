"""Cluster replay frontend: workload generation and fleet replay."""

import ast
import inspect

import pytest

from repro.replay import cluster
from repro.replay import ClusterJob, ClusterReplay, ClusterWorkload, \
    synthetic_workload
from repro.surf.trace import Trace


class TestSyntheticWorkload:
    def test_same_seed_same_workload(self):
        first = synthetic_workload(seed=42, num_hosts=4, num_jobs=10)
        second = synthetic_workload(seed=42, num_hosts=4, num_jobs=10)
        assert first.jobs == second.jobs
        assert first.horizon == second.horizon
        assert {name: trace.events for name, trace in
                first.availability.items()} == \
            {name: trace.events for name, trace in
             second.availability.items()}
        assert sorted(first.state) == sorted(second.state)

    def test_different_seeds_differ(self):
        first = synthetic_workload(seed=1, num_hosts=4, num_jobs=10)
        second = synthetic_workload(seed=2, num_hosts=4, num_jobs=10)
        assert first.jobs != second.jobs

    def test_shape(self):
        workload = synthetic_workload(seed=7, num_hosts=3, num_jobs=8)
        assert len(workload.jobs) == 8
        submits = [job.submit for job in workload.jobs]
        assert submits == sorted(submits)
        assert len(workload.availability) == 3
        for trace in workload.availability.values():
            trace.validate_availability()     # dips stay in [0, 1]
        assert workload.horizon > submits[-1]

    def test_pinned_hosts_are_fleet_members(self):
        workload = synthetic_workload(seed=9, num_hosts=3, num_jobs=20)
        nodes = {f"node-{i}" for i in range(3)}
        assert {job.host for job in workload.jobs if job.host} <= nodes


class TestClusterReplay:
    def test_calm_replay_completes_everything(self, monkeypatch):
        monkeypatch.setattr(cluster, "FAILING_FRACTION", 0.0)
        workload = synthetic_workload(seed=11, num_hosts=4, num_jobs=10)
        metrics = ClusterReplay(workload).run()
        assert metrics["completed"] == metrics["jobs"] == 10
        assert metrics["dispatched"] == 10
        assert 0.0 < metrics["makespan"] <= metrics["final_time"]
        # The availability dips fired: the speed observer saw trace events.
        assert metrics["speed_changes"] > 0
        assert metrics["host_downs"] == 0

    def test_replay_is_deterministic(self):
        workload = synthetic_workload(seed=13, num_hosts=4, num_jobs=8)
        first = ClusterReplay(workload, churn_seed=5).run()
        second = ClusterReplay(workload, churn_seed=5).run()
        assert first == second

    def test_flat_vs_sharded_identical(self):
        workload = synthetic_workload(seed=17, num_hosts=4, num_jobs=8)
        flat = ClusterReplay(workload, churn_seed=3).run(sharded=False)
        shard = ClusterReplay(workload, churn_seed=3).run(sharded=True)
        assert shard == flat

    def test_mailbox_queued_job_redelivered_after_restart(self):
        # One node, down from t=1 to t=3 via its state trace.  A job
        # submitted during the outage waits in the node mailbox and is
        # executed by the worker the supervisor respawns on host-up.
        workload = ClusterWorkload(
            num_hosts=1,
            jobs=[ClusterJob(submit=2.0, flops=1e9, host="node-0")],
            state={"node-0": Trace([(1.0, 0.0), (3.0, 1.0)], name="pulse")},
            horizon=10.0)
        replay = ClusterReplay(workload)
        metrics = replay.run()
        assert metrics["completed"] == 1
        assert metrics["host_downs"] == 1 and metrics["host_ups"] == 1
        # Executed after the reboot, not during the outage.
        assert metrics["makespan"] > 4.0

    def test_job_killed_mid_exec_is_lost_not_hung(self):
        # The job starts at t=0.5 on node-0 and the host dies mid-exec:
        # at-most-once semantics, the run still terminates at the horizon.
        workload = ClusterWorkload(
            num_hosts=1,
            jobs=[ClusterJob(submit=0.5, flops=5e9, host="node-0")],
            state={"node-0": Trace([(1.0, 0.0), (2.0, 1.0)], name="pulse")},
            horizon=8.0)
        metrics = ClusterReplay(workload).run()
        assert metrics["completed"] == 0
        assert metrics["dispatched"] == 1
        assert metrics["final_time"] == pytest.approx(8.0)

    def test_churn_replay_completes_jobs(self):
        # At-most-once under injected churn: jobs killed mid-exec are
        # lost, but the fleet keeps completing the rest.
        workload = synthetic_workload(seed=7, num_hosts=8, num_jobs=32,
                                      mean_interarrival=0.1, mean_flops=5e8)
        metrics = ClusterReplay(workload, churn_seed=11, churn_mtbf=1.0,
                                churn_downtime=0.3,
                                churn_max_failures=8).run()
        assert metrics["injected_failures"] == 8
        assert metrics["completed"] >= 1

    def test_platform_carries_workload_traces(self):
        workload = synthetic_workload(seed=19, num_hosts=3, num_jobs=4)
        platform = ClusterReplay(workload).build_platform()
        spec = platform.hosts["node-1"]
        assert spec.availability_trace is workload.availability["node-1"]


def _mid_exec_outage_workload(horizon=12.0):
    """One node, one job started at t=0.5 and killed mid-exec by an
    outage at t=1 — the canonical job-loss shape (the at-most-once twin
    above pins ``completed == 0`` on it)."""
    return ClusterWorkload(
        num_hosts=1,
        jobs=[ClusterJob(submit=0.5, flops=5e9, host="node-0")],
        state={"node-0": Trace([(1.0, 0.0), (2.5, 1.0)], name="pulse")},
        horizon=horizon)


class TestAtLeastOnce:
    def test_semantics_validated(self):
        with pytest.raises(ValueError):
            ClusterReplay(_mid_exec_outage_workload(),
                          semantics="exactly_once")

    def test_job_killed_mid_exec_is_resubmitted(self):
        workload = _mid_exec_outage_workload()
        # At-most-once loses the job...
        amo = ClusterReplay(workload).run()
        assert amo["completed"] == 0 and amo["lost"] == 1
        # ...at-least-once detects the dead node and resubmits it.
        alo = ClusterReplay(workload, semantics="at_least_once").run()
        assert alo["completed"] == 1 and alo["lost"] == 0
        assert alo["resubmitted"] >= 1
        assert alo["suspects"] == 1
        assert alo["duplicates"] == 0
        # Resubmitted after the reboot at 2.5, then 5 s of compute.
        assert alo["makespan"] == pytest.approx(7.5, abs=0.1)

    def test_duplicate_executions_are_deduplicated(self):
        # The job is submitted *during* the outage: the original dispatch
        # waits in the node mailbox, the resubmitter re-sends it while
        # the node is suspected, and the rebooted worker executes both.
        workload = ClusterWorkload(
            num_hosts=1,
            jobs=[ClusterJob(submit=1.5, flops=1e9, host="node-0")],
            state={"node-0": Trace([(1.0, 0.0), (2.5, 1.0)], name="pulse")},
            horizon=10.0)
        metrics = ClusterReplay(workload, semantics="at_least_once").run()
        assert metrics["completed"] == 1 and metrics["lost"] == 0
        assert metrics["duplicates"] >= 1
        assert metrics["resubmitted"] >= 1

    def test_at_least_once_deterministic_across_kernels(self):
        workload = synthetic_workload(seed=23, num_hosts=4, num_jobs=8)
        replays = [ClusterReplay(workload, churn_seed=7,
                                 semantics="at_least_once")
                   for _ in range(3)]
        flat = replays[0].run(sharded=False)
        again = replays[1].run(sharded=False)
        shard = replays[2].run(sharded=True)
        assert flat == again == shard

    # ``ft_supervisor_churn`` is the size at which the fleet absorbs 100
    # host failures: detector, resubmitter, supervisor respawns and
    # collector dedup all run many times over.
    @pytest.mark.parametrize("workload_kwargs, churn", [
        pytest.param(dict(seed=3, num_hosts=4, num_jobs=16),
                     dict(churn_seed=7, churn_max_failures=10),
                     id="16-jobs"),
        pytest.param(dict(seed=7, num_hosts=16, num_jobs=128,
                          mean_interarrival=0.1, mean_flops=5e8),
                     dict(churn_seed=11, churn_mtbf=0.5, churn_downtime=0.5,
                          churn_max_failures=100),
                     id="ft_supervisor_churn"),
    ])
    def test_supervised_churn_fleet_loses_nothing(self, workload_kwargs,
                                                  churn):
        workload = synthetic_workload(**workload_kwargs)
        metrics = ClusterReplay(workload, semantics="at_least_once",
                                **churn).run()
        assert metrics["injected_failures"] == churn["churn_max_failures"]
        assert metrics["lost"] == 0
        assert metrics["completed"] == workload_kwargs["num_jobs"]
        assert metrics["worker_restarts"] >= 1   # supervisor respawns

    def test_collector_survives_node_killed_with_ack_in_flight(self):
        # On this churn schedule, with the default 0.1 ms / 10 kB ack
        # links, a node dies while its ack is on the wire: the matched
        # receive fails on the frontend.  The collector used to die of the
        # unhandled TransferFailureError; it must count the ack and keep
        # collecting, and at-least-once must still lose nothing.
        workload = synthetic_workload(seed=708452615, num_hosts=8,
                                      num_jobs=48, mean_interarrival=0.1,
                                      mean_flops=5e8)
        workload.horizon = 29.6
        metrics = ClusterReplay(workload, churn_seed=1795269057,
                                churn_mtbf=0.5, churn_downtime=0.5,
                                churn_max_failures=12,
                                semantics="at_least_once").run()
        assert metrics["acks_failed"] == 1
        assert metrics["injected_failures"] == 12
        assert metrics["lost"] == 0 and metrics["completed"] == 48
        assert metrics["final_time"] == pytest.approx(29.6)


class TestOnePipeline:
    """One worker-restart path (a Supervisor) and one message format:
    the delivery semantics only decide whether the heartbeat detector
    and the resubmitter are deployed."""

    def test_no_auto_restart_worker(self):
        assert "auto_restart" not in inspect.getsource(cluster)

    def test_semantics_read_only_in_run(self):
        tree = ast.parse(inspect.getsource(cluster))
        readers = set()
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            for node in ast.walk(scope):
                reads_mode = (isinstance(node, ast.Attribute)
                              and node.attr in ("semantics", "at_least_once")
                              and isinstance(node.ctx, ast.Load))
                compares_mode = (isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant)
                    and side.value == "at_least_once"
                    for side in [node.left, *node.comparators]))
                if reads_mode or compares_mode:
                    readers.add(scope.name)
        assert readers == {"_run"}

    def test_unsupervised_fleet_is_refused(self):
        with pytest.raises(ValueError):
            ClusterReplay(_mid_exec_outage_workload(), supervised=False)

    def test_at_most_once_worker_restarts_come_from_the_supervisor(self):
        # The outage kills the only worker; the supervisor parks it and
        # respawns it on host-up, with no detector deployed.
        replay = ClusterReplay(_mid_exec_outage_workload())
        metrics = replay.run()
        assert replay.detector is None
        assert metrics["worker_restarts"] == replay.supervisor.restarts == 1
        assert metrics["lost"] == 1 and metrics["suspects"] == 0
