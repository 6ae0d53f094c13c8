"""Tests for the SURF CPU and network models and the Action state machine."""

import pytest

from repro.surf.action import Action, ActionState
from repro.surf.cpu import CpuModel
from repro.surf.engine import SurfEngine
from repro.surf.network import NetworkModel, NetworkModelConfig
from repro.surf.trace import Trace


class TestActionStateMachine:
    def test_initial_state_running(self):
        action = Action(CpuModel(), cost=100.0)
        assert action.is_running()
        assert action.remaining == 100.0

    def test_finish_sets_state_and_time(self):
        action = Action(CpuModel(), cost=10.0)
        action.finish(5.0, ActionState.DONE)
        assert action.state is ActionState.DONE
        assert action.finish_time == 5.0

    def test_finish_twice_keeps_first_state(self):
        action = Action(CpuModel(), cost=10.0)
        action.cancel(1.0)
        action.finish(2.0, ActionState.DONE)
        assert action.state is ActionState.CANCELLED
        assert action.finish_time == 1.0

    def test_suspend_blocks_progress(self):
        model = CpuModel()
        action = model.execute(model.add_cpu("host", speed=1e9), 10.0)
        action.suspend()
        assert action.variable.weight == 0.0
        action.resume()
        assert action.variable.weight == 1.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Action(CpuModel(), cost=-1.0)


class TestCpuModel:
    def test_single_execution_duration(self):
        model = CpuModel()
        cpu = model.add_cpu("host", speed=1e9)
        action = model.execute(cpu, 2e9)
        delta = model.share_resources(0.0)
        assert delta == pytest.approx(2.0)
        done = model.update_actions_state(2.0, 2.0)
        assert done == [action]
        assert action.state is ActionState.DONE

    def test_two_executions_share_the_cpu(self):
        model = CpuModel()
        cpu = model.add_cpu("host", speed=1e9)
        a = model.execute(cpu, 1e9)
        b = model.execute(cpu, 1e9)
        delta = model.share_resources(0.0)
        assert delta == pytest.approx(2.0)  # each runs at 0.5 Gflop/s
        assert a.variable.value == pytest.approx(5e8)
        assert b.variable.value == pytest.approx(5e8)

    def test_priorities_change_the_shares(self):
        model = CpuModel()
        cpu = model.add_cpu("host", speed=1e9)
        high = model.execute(cpu, 1e9, priority=3.0)
        low = model.execute(cpu, 1e9, priority=1.0)
        model.share_resources(0.0)
        assert high.variable.value == pytest.approx(7.5e8)
        assert low.variable.value == pytest.approx(2.5e8)

    def test_multicore_capacity_but_single_core_bound(self):
        model = CpuModel()
        cpu = model.add_cpu("host", speed=1e9, cores=4)
        single = model.execute(cpu, 1e9)
        model.share_resources(0.0)
        # one task cannot exceed the speed of one core
        assert single.variable.value == pytest.approx(1e9)
        for _ in range(3):
            model.execute(cpu, 1e9)
        model.share_resources(0.0)
        assert single.variable.value == pytest.approx(1e9)  # 4 tasks on 4 cores

    def test_duplicate_cpu_name_rejected(self):
        model = CpuModel()
        model.add_cpu("host", speed=1e9)
        with pytest.raises(ValueError):
            model.add_cpu("host", speed=2e9)

    def test_failure_kills_running_actions(self):
        model = CpuModel()
        cpu = model.add_cpu("host", speed=1e9)
        action = model.execute(cpu, 1e9)
        cpu.turn_off()
        failed = model.fail_actions_on(cpu, 1.0)
        assert failed == [action]
        assert action.state is ActionState.FAILED

    def test_availability_scales_speed(self):
        model = CpuModel()
        cpu = model.add_cpu("host", speed=1e9)
        action = model.execute(cpu, 1e9)
        cpu.set_availability(0.5)
        delta = model.share_resources(0.0)
        assert delta == pytest.approx(2.0)
        assert action.variable.value == pytest.approx(5e8)


class TestNetworkModel:
    def test_transfer_duration_includes_latency(self):
        model = NetworkModel()
        link = model.add_link("l", bandwidth=1e6, latency=0.1)
        action = model.communicate([link], size=1e6)
        # latency phase first
        delta = model.share_resources(0.0)
        assert delta == pytest.approx(0.1)
        model.update_actions_state(0.1, 0.1)
        assert action.latency_remaining == 0.0
        assert action.variable.weight == 1.0
        delta = model.share_resources(0.1)
        assert delta == pytest.approx(1.0)
        done = model.update_actions_state(1.1, 1.0)
        assert done == [action]

    def test_two_flows_share_a_link(self):
        model = NetworkModel()
        link = model.add_link("l", bandwidth=1e6, latency=0.0)
        a = model.communicate([link], size=1e6)
        b = model.communicate([link], size=1e6)
        model.share_resources(0.0)
        assert a.variable.value == pytest.approx(5e5)
        assert b.variable.value == pytest.approx(5e5)

    def test_multihop_uses_every_link(self):
        model = NetworkModel()
        l1 = model.add_link("l1", bandwidth=1e6, latency=0.01)
        l2 = model.add_link("l2", bandwidth=2e6, latency=0.02)
        action = model.communicate([l1, l2], size=1e6)
        assert action.total_latency == pytest.approx(0.03)
        model.update_actions_state(0.03, 0.03)
        model.share_resources(0.03)
        # bottleneck is the slowest link
        assert action.variable.value == pytest.approx(1e6)

    def test_zero_byte_message_costs_only_latency(self):
        model = NetworkModel()
        link = model.add_link("l", bandwidth=1e6, latency=0.25)
        action = model.communicate([link], size=0.0)
        delta = model.share_resources(0.0)
        assert delta == pytest.approx(0.25)
        done = model.update_actions_state(0.25, 0.25)
        assert done == [action]

    def test_rate_cap_is_honoured(self):
        model = NetworkModel()
        link = model.add_link("l", bandwidth=1e7, latency=0.0)
        action = model.communicate([link], size=1e6, rate=1e5)
        model.share_resources(0.0)
        assert action.variable.value == pytest.approx(1e5)

    def test_tcp_gamma_bound_applies_on_long_latency(self):
        config = NetworkModelConfig(tcp_gamma=1e6)
        model = NetworkModel(config)
        link = model.add_link("l", bandwidth=1e9, latency=0.1)
        action = model.communicate([link], size=1e9)
        model.update_actions_state(0.1, 0.1)
        model.share_resources(0.1)
        # rate <= gamma / (2 * latency) = 1e6 / 0.2 = 5e6
        assert action.variable.value == pytest.approx(5e6)

    def test_tcp_gamma_disabled(self):
        config = NetworkModelConfig(tcp_gamma=0.0)
        model = NetworkModel(config)
        link = model.add_link("l", bandwidth=1e9, latency=0.1)
        action = model.communicate([link], size=1e9)
        model.update_actions_state(0.1, 0.1)
        model.share_resources(0.1)
        assert action.variable.value == pytest.approx(1e9)

    def test_bandwidth_factor_scales_links(self):
        config = NetworkModelConfig(bandwidth_factor=0.5)
        model = NetworkModel(config)
        link = model.add_link("l", bandwidth=1e6, latency=0.0)
        assert link.bandwidth == pytest.approx(5e5)

    def test_latency_factor_scales_route_latency(self):
        config = NetworkModelConfig(latency_factor=2.0)
        model = NetworkModel(config)
        link = model.add_link("l", bandwidth=1e6, latency=0.05)
        action = model.communicate([link], size=1e3)
        assert action.total_latency == pytest.approx(0.1)

    def test_fat_pipe_backbone_does_not_limit(self):
        model = NetworkModel()
        backbone = model.add_link("bb", bandwidth=1e6, latency=0.0,
                                  shared=False)
        a = model.communicate([backbone], size=1e6)
        b = model.communicate([backbone], size=1e6)
        model.share_resources(0.0)
        assert a.variable.value == pytest.approx(1e6)
        assert b.variable.value == pytest.approx(1e6)

    def test_link_failure_fails_crossing_flows(self):
        model = NetworkModel()
        link = model.add_link("l", bandwidth=1e6, latency=0.0)
        action = model.communicate([link], size=1e6)
        link.turn_off()
        failed = model.fail_actions_on(link, 0.5)
        assert failed == [action]
        assert action.state is ActionState.FAILED

    def test_communicate_on_dead_link_fails_immediately(self):
        model = NetworkModel()
        link = model.add_link("l", bandwidth=1e6, latency=0.0)
        link.turn_off()
        action = model.communicate([link], size=1e6)
        assert action.state is ActionState.FAILED


class TestSurfEngine:
    def test_step_advances_to_first_completion(self):
        engine = SurfEngine()
        cpu = engine.cpu_model.add_cpu("h", speed=1e9)
        fast = engine.cpu_model.execute(cpu, 1e9)
        slow = engine.cpu_model.execute(cpu, 3e9)
        result = engine.step()
        assert result.time == pytest.approx(2.0)   # both at 0.5 Gflop/s
        assert fast in result.completed
        assert slow not in result.completed

    def test_step_respects_until_bound(self):
        engine = SurfEngine()
        cpu = engine.cpu_model.add_cpu("h", speed=1e9)
        engine.cpu_model.execute(cpu, 1e10)
        result = engine.step(until=1.5)
        assert result.time == pytest.approx(1.5)
        assert result.reached_bound

    def test_step_returns_none_when_nothing_can_happen(self):
        engine = SurfEngine()
        assert engine.step() is None

    def test_stepping_to_idle_completes_everything(self):
        engine = SurfEngine()
        cpu = engine.cpu_model.add_cpu("h", speed=1e9)
        engine.cpu_model.execute(cpu, 5e9)
        link = engine.network_model.add_link("l", bandwidth=1e6, latency=0.0)
        engine.network_model.communicate([link], 2e6)
        while engine.step() is not None:
            pass
        assert engine.clock == pytest.approx(5.0)
        assert not engine.has_running_actions()

    def test_every_step_reports_its_completions(self):
        engine = SurfEngine()
        cpu = engine.cpu_model.add_cpu("h", speed=1e9)
        fast = engine.cpu_model.execute(cpu, 1e9)
        slow = engine.cpu_model.execute(cpu, 3e9)
        link = engine.network_model.add_link("l", bandwidth=1e6, latency=0.0)
        flow = engine.network_model.communicate([link], 2e6)
        steps = []
        while (result := engine.step()) is not None:
            steps.append((result.time, set(result.completed)))
        # Both executions share the CPU until ``fast`` ends at 2 s; ``slow``
        # then has 2 Gflop left at full speed.
        assert steps == [(pytest.approx(2.0), {fast, flow}),
                         (pytest.approx(4.0), {slow})]

    def test_availability_trace_slows_computation(self):
        engine = SurfEngine()
        trace = Trace([(0.0, 1.0), (1.0, 0.5)], name="load")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9,
                                       availability_trace=trace)
        engine.register_resource_traces(cpu)
        engine.cpu_model.execute(cpu, 2e9)
        while engine.step() is not None:
            pass
        # 1 s at full speed (1e9 done), then 1e9 left at 5e8 -> 2 more s
        assert engine.clock == pytest.approx(3.0)

    def test_state_trace_failure_fails_actions(self):
        engine = SurfEngine()
        trace = Trace([(1.0, 0.0)], name="death")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9, state_trace=trace)
        engine.register_resource_traces(cpu)
        action = engine.cpu_model.execute(cpu, 1e10)
        result = engine.step()
        assert result.time == pytest.approx(1.0)
        assert result.state_changes == [(cpu, False, [action])]
        assert action.state is ActionState.FAILED
        assert result.state_changes and result.state_changes[0][1] is False

    def test_state_trace_failure_and_restore(self):
        engine = SurfEngine()
        trace = Trace([(1.0, 0.0), (2.0, 1.0)], name="blip")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9, state_trace=trace)
        engine.register_resource_traces(cpu)
        action = engine.cpu_model.execute(cpu, 1e10)
        result = engine.step()
        assert result.time == pytest.approx(1.0)
        assert not cpu.is_on
        assert result.state_changes == [(cpu, False, [action])]
        result = engine.step()
        assert result.time == pytest.approx(2.0)
        assert cpu.is_on
        assert result.state_changes == [(cpu, True, [])]

    def test_set_state_fails_actions_only_going_down(self):
        engine = SurfEngine()
        link = engine.network_model.add_link("l", bandwidth=1e6, latency=0.5)
        flow = engine.network_model.communicate([link], size=1e6)
        assert engine.set_state(link, True) == []    # already on
        assert engine.set_state(link, False) == [flow]
        assert flow.state is ActionState.FAILED       # even in its latency
        assert link.current_capacity == 0.0
        assert engine.set_state(link, True) == []
        assert link.current_capacity == link.peak_capacity

    def test_state_event_that_flips_nothing_is_not_reported(self):
        engine = SurfEngine()
        trace = Trace([(1.0, 1.0), (2.0, 0.0)], name="on-then-off")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9, state_trace=trace)
        engine.register_resource_traces(cpu)
        assert engine.step().state_changes == []      # on while on
        assert engine.step().state_changes == [(cpu, False, [])]

    def test_cannot_step_backwards(self):
        engine = SurfEngine()
        engine.clock = 5.0
        with pytest.raises(ValueError):
            engine.step(until=1.0)
