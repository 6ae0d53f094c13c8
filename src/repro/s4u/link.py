"""S4U links: first-class network endpoints, symmetric to hosts.

The paper's SURF panel lists *trace-based simulation of dynamic resource
failures* for links as well as hosts; this module gives the s4u layer the
control surface to inject those failures explicitly.  A :class:`Link` is a
facade over the realized :class:`~repro.surf.network.LinkResource`:

* :meth:`turn_off` fails every transfer whose route crosses the link (the
  waiters see a ``TransferFailureError``, exactly like a trace-driven link
  failure); :meth:`turn_on` restores it;
* :meth:`set_bandwidth` re-shares the running flows through the lazy-LMM
  constraint-capacity write path (only the component containing this link
  is re-solved); :meth:`set_latency` affects transfers started afterwards.

Lookup is by name: ``engine.link_by_name("backbone")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.surf.network import LinkResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.s4u.engine import Engine

__all__ = ["Link"]


class Link:
    """One simulated network link of the platform."""

    def __init__(self, engine: "Engine", resource: LinkResource) -> None:
        self._engine = engine
        self.resource = resource
        self.name = resource.name

    # -- static information ----------------------------------------------------------
    @property
    def bandwidth(self) -> float:
        """Nominal bandwidth in byte/s (after the model's bandwidth factor)."""
        return self.resource.bandwidth

    @property
    def latency(self) -> float:
        """Latency in seconds."""
        return self.resource.latency

    @property
    def is_on(self) -> bool:
        """Whether the link is currently up."""
        return self.resource.is_on

    # -- control ----------------------------------------------------------------------
    def turn_off(self) -> None:
        """Fail the link: every transfer crossing it fails."""
        self._engine._set_state(self.resource, False)

    def turn_on(self) -> None:
        """Bring a failed link back up."""
        self._engine._set_state(self.resource, True)

    def set_bandwidth(self, bandwidth: float) -> "Link":
        """Change the link bandwidth; running flows are re-shared.

        The engine's observers see a ``"speed"`` event
        (:meth:`~repro.s4u.engine.Engine.observe`) once the new capacity
        reached the solver.
        """
        engine = self._engine
        engine.surf.model_of(self.resource).set_link_bandwidth(
            self.resource, bandwidth)
        engine._emit("speed", self, self.resource.current_capacity)
        return self

    def set_latency(self, latency: float) -> "Link":
        """Change the link latency (seen by transfers started afterwards)."""
        self._engine.surf.model_of(self.resource).set_link_latency(
            self.resource, latency)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Link(name={self.name!r}, bandwidth={self.bandwidth:g}, "
                f"latency={self.latency:g}, on={self.is_on})")
