"""GRAS simulation backend: run GRAS processes as s4u actors.

A :class:`SimWorld` wraps an :class:`repro.s4u.engine.Engine` configured
with the *thread* context factory, so GRAS application code is written as
plain blocking calls — the very same code the real-life backend
(:mod:`repro.gras.rl_backend`) executes over real sockets.

Message transport: each ``(host, port)`` server socket maps to the s4u
mailbox ``"gras:<host>:<port>"``; the encoded
:class:`~repro.gras.message.GrasMessage` is put on that mailbox with an
explicit ``size`` equal to the wire size of the message, so the SURF network
model charges exactly what the real message would cost.  No per-message
wrapper object is allocated: the payload travels as-is through the mailbox.
The protocol itself (encoding, reorder buffer, ``msg_wait`` /
``msg_handle``) is :class:`~repro.gras.process.GrasProcess`'s, shared with
the real-life backend.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.gras.arch import ARCHITECTURES, Architecture, LOCAL_ARCH
from repro.gras.message import GrasMessage
from repro.gras.process import GrasProcess
from repro.gras.socket import GrasSocket
from repro.platform.platform import Platform
from repro.s4u.actor import Actor
from repro.s4u.engine import Engine
from repro.s4u.mailbox import Mailbox

__all__ = ["SimWorld", "SimGrasProcess"]

#: Ports above this value are considered ephemeral (auto-assigned).
_EPHEMERAL_BASE = 50000


def _mailbox_name(host: str, port: int) -> str:
    return f"gras:{host}:{port}"


class SimGrasProcess(GrasProcess):
    """A GRAS process executed inside the simulator (one s4u actor)."""

    def __init__(self, world: "SimWorld", actor: Actor,
                 arch: Architecture) -> None:
        super().__init__(actor.name, arch)
        self.world = world
        self._actor = actor
        self._listen_port: Optional[int] = None

    # -- sockets ---------------------------------------------------------------------
    @property
    def host_name(self) -> str:
        return self._actor.host.name

    def socket_server(self, port: int) -> GrasSocket:
        self._listen_port = port
        return GrasSocket(self.host_name, port, is_server=True)

    def socket_client(self, host: str, port: int) -> GrasSocket:
        return GrasSocket(host, port)

    def _ensure_listen_port(self) -> int:
        if self._listen_port is None:
            self._listen_port = _EPHEMERAL_BASE + self._actor.pid
        return self._listen_port

    def _mailbox(self, host: str, port: int) -> Mailbox:
        return self._actor.engine.mailbox(_mailbox_name(host, port))

    # -- transport ------------------------------------------------------------------
    def _transmit(self, socket: GrasSocket, message: GrasMessage,
                  wire_size: int) -> None:
        self._mailbox(socket.host, socket.port).put(
            message, size=wire_size, name=f"gras:{message.msgtype}")

    def _receive(self, timeout: float) -> GrasMessage:
        box = self._mailbox(self.host_name, self._ensure_listen_port())
        return box.get(timeout=timeout if not math.isinf(timeout) else None)

    # -- time ---------------------------------------------------------------------------
    def os_time(self) -> float:
        return self._actor.now

    def os_sleep(self, duration: float) -> None:
        self._actor.sleep_for(duration)

    # -- benchmarking ------------------------------------------------------------------------
    def _inject_computation(self, duration: float) -> None:
        if duration <= 0:
            return
        flops = duration * self._actor.host.speed
        self._actor.execute(flops, name="gras-bench")


class SimWorld:
    """A set of GRAS processes deployed on a simulated platform."""

    def __init__(self, platform: Platform,
                 arch_by_host: Optional[Dict[str, str]] = None,
                 recorder=None) -> None:
        self.engine = Engine(platform, context_factory="thread",
                             recorder=recorder)
        self.arch_by_host = arch_by_host or {}
        self.gras_processes: List[SimGrasProcess] = []

    def _arch_for(self, host_name: str,
                  arch: Optional[str]) -> Architecture:
        name = arch or self.arch_by_host.get(host_name)
        if name is None:
            return LOCAL_ARCH
        return ARCHITECTURES[name]

    def add_process(self, name: str, host: str, func: Callable, *args,
                    arch: Optional[str] = None, **kwargs) -> Actor:
        """Deploy ``func(gras_process, *args)`` on ``host``.

        ``arch`` selects the simulated architecture of that host
        (``"x86"``, ``"sparc"``, ``"powerpc"``...), which drives the wire
        encoding of the messages it sends.
        """
        architecture = self._arch_for(host, arch)
        world = self

        def body(actor: Actor, *fargs, **fkwargs):
            gras_process = SimGrasProcess(world, actor, architecture)
            world.gras_processes.append(gras_process)
            func(gras_process, *fargs, **fkwargs)

        return self.engine.add_actor(name, host, body, *args, **kwargs)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; returns the final simulated time."""
        return self.engine.run(until)
