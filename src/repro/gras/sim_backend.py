"""GRAS simulation backend: run GRAS processes as s4u actors.

A :class:`SimWorld` wraps an :class:`repro.s4u.engine.Engine` configured
with the *thread* context factory, so GRAS application code is written as
plain blocking calls — the very same code the real-life backend
(:mod:`repro.gras.rl_backend`) executes over real sockets.

Message transport: each ``(host, port)`` server socket maps to the s4u
mailbox ``"gras:<host>:<port>"``; the encoded
:class:`~repro.gras.message.GrasMessage` is put on that mailbox with an
explicit ``size`` of :data:`~repro.gras.message.HEADER_BYTES` plus its type
name plus its encoded payload, so the SURF network model charges the bytes
the real message carries.  No per-message wrapper object is allocated: the
payload travels as-is through the mailbox.
The protocol itself (encoding, reorder buffer, ``msg_wait`` /
``msg_handle``) is :class:`~repro.gras.process.GrasProcess`'s, shared with
the real-life backend.  The bench macros charge the world's one
:class:`~repro.gras.bench.BenchRecorder`, ``bench_record``, filled before
the run: a simulation reads no wall clock.
"""

from __future__ import annotations

import math
from typing import Callable, ContextManager, Dict, Optional

from repro.gras.arch import ARCHITECTURES, Architecture, LOCAL_ARCH
from repro.gras.bench import BenchRecorder
from repro.gras.message import GrasMessage, HEADER_BYTES
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

    def __init__(self, actor: Actor, arch: Architecture,
                 bench_record: BenchRecorder) -> None:
        super().__init__(actor.name, arch)
        self._actor = actor
        self._bench_record = bench_record
        self._listen_port: Optional[int] = None

    # -- sockets ---------------------------------------------------------------------
    @property
    def host_name(self) -> str:
        return self._actor.host.name

    def socket_server(self, port: int) -> GrasSocket:
        self._listen_port = port
        return GrasSocket(self.host_name, port)

    def _ensure_listen_port(self) -> int:
        if self._listen_port is None:
            self._listen_port = _EPHEMERAL_BASE + self._actor.pid
        return self._listen_port

    def _mailbox(self, host: str, port: int) -> Mailbox:
        return self._actor.engine.mailbox(_mailbox_name(host, port))

    # -- transport ------------------------------------------------------------------
    def _transmit(self, socket: GrasSocket, message: GrasMessage) -> None:
        size = HEADER_BYTES + len(message.msgtype) + len(message.payload_bytes)
        self._mailbox(socket.host, socket.port).put(
            message, size=size, name=f"gras:{message.msgtype}")

    def _receive(self, timeout: float) -> GrasMessage:
        box = self._mailbox(self.host_name, self._ensure_listen_port())
        return box.get(timeout=timeout if not math.isinf(timeout) else None)

    # -- time ---------------------------------------------------------------------------
    def os_time(self) -> float:
        return self._actor.now

    def os_sleep(self, duration: float) -> None:
        self._actor.sleep_for(duration)

    # -- benchmarking ------------------------------------------------------------------------
    def bench_once(self, key: str) -> ContextManager[bool]:
        return self._bench_record.once(key, self._actor)

    def bench_always(self, key: str) -> ContextManager[None]:
        return self._bench_record.always(key, self._actor)


class SimWorld:
    """A set of GRAS processes deployed on a simulated platform."""

    def __init__(self, platform: Platform,
                 arch_by_host: Optional[Dict[str, str]] = None) -> None:
        self.engine = Engine(platform, context_factory="thread")
        self.arch_by_host = arch_by_host or {}
        #: The durations the processes' bench blocks charge; fill it
        #: before :meth:`run`.
        self.bench_record = BenchRecorder()

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

        def body(actor: Actor, *fargs, **fkwargs):
            func(SimGrasProcess(actor, architecture, self.bench_record),
                 *fargs, **fkwargs)

        return self.engine.add_actor(name, host, body, *args, **kwargs)

    def run(self) -> float:
        """Run the simulation to completion; returns the final date."""
        return self.engine.run()
