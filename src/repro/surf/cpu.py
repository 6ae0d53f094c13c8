"""CPU model: computations sharing processor capacity.

The paper's SURF panel lists *"Multiple CPU-bound processes sharing a CPU"*
as one instance of the MaxMin sharing model.  This module provides:

* :class:`CpuResource` — one host CPU with a peak speed in flop/s, an
  availability trace and a state (failure) trace;
* :class:`CpuAction` — one computation of a given amount of flops;
* :class:`CpuModel` — the model object that owns the LMM system, creates
  executions and advances their state.

The model is event-driven (see :class:`~repro.surf.model.FluidModel`):
completion dates live in a heap and are recomputed only for the actions
whose LMM share changed.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.surf.action import Action
from repro.surf.lmm import MaxMinSystem
from repro.surf.model import FluidModel
from repro.surf.resource import Resource
from repro.surf.trace import Trace

__all__ = ["CpuModel", "CpuResource", "CpuAction"]


class CpuResource(Resource):
    """A processor with a given peak speed (flop/s).

    ``cores`` models a multi-core host as a single constraint whose capacity
    is ``speed * cores`` while each individual execution is bounded by the
    speed of one core — the standard SimGrid multi-core approximation.
    """

    def __init__(self, name: str, speed: float, system: MaxMinSystem,
                 cores: int = 1,
                 availability_trace: Optional[Trace] = None,
                 state_trace: Optional[Trace] = None,
                 index: Optional[int] = None) -> None:
        if cores < 1:
            raise ValueError("a CPU needs at least one core")
        super().__init__(name, speed * cores, system,
                         shared=True,
                         availability_trace=availability_trace,
                         state_trace=state_trace,
                         index=index)
        self.speed = float(speed)
        self.cores = int(cores)

    @property
    def core_speed(self) -> float:
        """Current speed of a single core (peak scaled by availability)."""
        if not self.is_on:
            return 0.0
        return self.speed * self.availability


class CpuAction(Action):
    """One computation: ``cost`` flops executed on one CPU.

    ``user_bound`` keeps the caller-requested rate cap separate from the
    per-core cap the model merges into :attr:`bound`, so the merged bound
    can be recomputed when the core speed changes at runtime
    (availability event, ``set_cpu_speed``).
    """

    __slots__ = ("cpu", "user_bound")

    def __init__(self, model: "CpuModel", cpu: CpuResource, cost: float,
                 priority: float = 1.0,
                 user_bound: Optional[float] = None) -> None:
        Action.__init__(self, model, cost, priority)
        self.cpu = cpu
        self.user_bound = user_bound


class CpuModel(FluidModel):
    """Fluid model of computations sharing CPUs via MaxMin fairness."""

    def __init__(self) -> None:
        super().__init__()
        self.cpus: Dict[str, CpuResource] = {}

    # -- platform construction -----------------------------------------------------
    def add_cpu(self, name: str, speed: float, cores: int = 1,
                availability_trace: Optional[Trace] = None,
                state_trace: Optional[Trace] = None,
                index: Optional[int] = None) -> CpuResource:
        """Register a new CPU resource.

        ``index`` (when given) pins the constraint id to the host's
        declaration index so numbering is materialization-order
        independent.
        """
        if name in self.cpus:
            raise ValueError(f"duplicate CPU name {name!r}")
        cpu = CpuResource(name, speed, self.system, cores,
                          availability_trace, state_trace, index=index)
        self.cpus[name] = cpu
        return cpu

    # -- action creation -----------------------------------------------------------
    def execute(self, cpu: CpuResource, flops: float,
                priority: float = 1.0,
                bound: Optional[float] = None) -> CpuAction:
        """Start a computation of ``flops`` on ``cpu``.

        The returned action progresses at the CPU share allocated by the
        MaxMin solver, at most one core's worth of speed.
        """
        action = CpuAction(self, cpu, flops, priority, user_bound=bound)
        effective_bound = self._merged_bound(cpu, bound)
        action.bound = effective_bound
        # A new action is not suspended: its effective weight is its
        # priority.
        system = self.system
        var = system.new_variable(weight=action.priority,
                                  bound=effective_bound, data=action)
        action.variable = var
        system.expand(cpu.constraint, var, 1.0)
        self.running.add(action)
        if not cpu.is_on:
            # Executing on a dead host fails immediately at the next step.
            action.fail(action.start_time)
        return action

    @staticmethod
    def _merged_bound(cpu: CpuResource,
                      user_bound: Optional[float]) -> Optional[float]:
        """Caller cap merged with the current per-core cap.

        On a single-core CPU the constraint capacity already enforces the
        core speed, so only the caller's cap applies; a multi-core CPU
        additionally caps each execution at one core's *current* speed
        (peak scaled by availability).
        """
        if cpu.cores <= 1:
            return user_bound
        # ``min(user_bound, core_cap)`` as a compare: the same value.
        core_cap = cpu.core_speed
        if user_bound is None or core_cap < user_bound:
            return core_cap
        return user_bound

    # -- dynamic reconfiguration ---------------------------------------------------
    def set_cpu_speed(self, cpu: CpuResource, speed: float) -> None:
        """Change a CPU's nominal per-core speed at runtime.

        Mirrors :meth:`NetworkModel.set_link_bandwidth`: the new capacity
        reaches the solver through ``set_peak_capacity`` →
        ``update_constraint_capacity`` — the one write path the selective
        solve tracks — so only the component containing this CPU is
        re-solved, and the per-core bounds of its running multi-core
        executions are resynced through ``on_action_priority_changed``.
        """
        if not (math.isfinite(speed) and speed > 0):
            raise ValueError(
                f"cpu {cpu.name!r}: speed must be finite and > 0, got {speed!r}")
        cpu.speed = float(speed)
        cpu.set_peak_capacity(cpu.speed * cpu.cores)
        self.on_resource_capacity_changed(cpu)

    def on_resource_capacity_changed(self, cpu: CpuResource) -> None:
        """Resync per-core bounds after a capacity change (see FluidModel).

        The constraint capacity itself was already updated by the caller
        (`set_availability` / `set_cpu_speed`); what remains is the
        per-action mirror of the core speed on multi-core CPUs.  Each
        bound flows through ``action.model.on_action_priority_changed``
        — the only action→LMM write path — so dirtiness tracking stays
        intact even when the action lives in another shard's system.
        """
        if cpu.cores <= 1:
            return
        for action in self._actions_using(cpu):
            action.bound = self._merged_bound(cpu, action.user_bound)
            action.model.on_action_priority_changed(action)
