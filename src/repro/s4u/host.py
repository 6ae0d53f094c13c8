"""S4U hosts: the machines actors run on.

Facade over a platform host and its realized CPU resource.  It exposes the
host speed, carries the per-host "data" dictionary applications
can hang state on, and lists the actors currently running on it.
"""

from __future__ import annotations

from typing import Any, Dict, List, TYPE_CHECKING

from repro.platform.platform import HostSpec
from repro.surf.cpu import CpuResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.actor import Actor
    from repro.s4u.engine import Engine

__all__ = ["Host"]


class Host:
    """One simulated machine: a name, a CPU, and the actors it hosts."""

    def __init__(self, engine: "Engine", spec: HostSpec,
                 cpu: CpuResource) -> None:
        self._engine = engine
        self.spec = spec
        self.cpu = cpu
        self.name = spec.name
        #: Application-visible storage (``MSG_host_set_data``).
        self.data: Dict[str, Any] = {}
        self.actors: List["Actor"] = []

    # -- static information ---------------------------------------------------------
    @property
    def speed(self) -> float:
        """Peak speed of one core, in flop/s."""
        return self.cpu.speed

    @property
    def cores(self) -> int:
        return self.cpu.cores

    @property
    def is_on(self) -> bool:
        """Whether the host is currently up."""
        return self.cpu.is_on

    @property
    def available_speed(self) -> float:
        """Current speed of one core, after the availability trace."""
        return self.cpu.core_speed

    # -- control ----------------------------------------------------------------------
    def turn_off(self) -> None:
        """Fail the host: running activities fail, its actors are killed.

        Called by an actor on this very host, it kills the caller too:
        the call raises ``ProcessKilledError`` instead of returning.
        """
        self._engine._set_state(self.cpu, False)

    def turn_on(self) -> None:
        """Bring a failed host back up (reboots its auto-restart actors)."""
        self._engine._set_state(self.cpu, True)

    def set_speed(self, speed: float) -> "Host":
        """Change the per-core speed at runtime; running execs are re-shared.

        The change reaches the solver exclusively through the CPU model's
        ``set_cpu_speed`` (constraint capacity + multi-core per-core
        bounds), so only the LMM component containing this host is
        re-solved; the engine's observers then see a ``"speed"`` event
        (:meth:`~repro.s4u.engine.Engine.observe`).  Availability traces
        keep scaling the new peak.
        """
        engine = self._engine
        engine.surf.model_of(self.cpu).set_cpu_speed(self.cpu, speed)
        engine._emit("speed", self, self.available_speed)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host(name={self.name!r}, speed={self.speed:g})"
