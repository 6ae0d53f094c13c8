"""The GRAS process interface shared by the simulation and real-life backends.

The whole point of GRAS (paper: *"Ability to run the same code in full or
partial simulation mode or in real-world mode"*) is that application code is
written once against this interface and executed by either backend:

* :class:`repro.gras.sim_backend.SimGrasProcess` runs it inside the MSG
  simulator (using the thread context factory, so the code contains no
  ``yield``);
* :class:`repro.gras.rl_backend.RlGrasProcess` runs it as a real thread
  exchanging bytes over localhost TCP sockets.

Application code receives a :class:`GrasProcess` as its first argument and
uses only its methods, exactly like C GRAS code uses only ``gras_*``
functions.
"""

from __future__ import annotations

from typing import Any, Callable, ContextManager, List, Tuple

from repro.exceptions import SimTimeoutError, UnknownMessageError
from repro.gras.arch import ARCHITECTURES, Architecture, LOCAL_ARCH
from repro.gras.bench import BenchRecorder
from repro.gras.message import GrasMessage, MessageRegistry
from repro.gras.socket import GrasSocket

__all__ = ["GrasProcess"]


class GrasProcess:
    """The GRAS protocol over an abstract transport.

    Message encoding, the reorder buffer, ``msg_wait``/``msg_handle``,
    ``socket_client`` and the benchmarking macros live here, once.  A
    backend supplies:

    * ``host_name``: the address peers reply to (the simulated host name,
      or localhost);
    * ``socket_server(port) -> GrasSocket``: open a server socket
      (``gras_socket_server``);
    * ``_ensure_listen_port() -> int``: the port replies come back on,
      opening one if needed;
    * ``_transmit(socket, message)``: carry one :class:`GrasMessage` to
      ``socket``;
    * ``_receive(timeout) -> GrasMessage``: block until a *new* message
      arrives on the listen port; ``timeout`` is in seconds of
      ``os_time`` and may be infinite, and :class:`SimTimeoutError` is
      raised when it elapses first;
    * ``os_time()`` and ``os_sleep(duration)``: the simulated clock or
      the wall clock;
    * ``_inject_computation(duration)``: account for ``duration`` seconds
      of computation measured by the benchmarking macros.
    """

    def __init__(self, name: str, arch: Architecture = LOCAL_ARCH) -> None:
        self.name = name
        self.arch = arch
        self.registry = MessageRegistry()
        self.bench_recorder = BenchRecorder()
        #: Reorder buffer: messages received while waiting for another type.
        self._buffer: List[GrasMessage] = []

    # -- message types -------------------------------------------------------------------
    def msgtype_declare(self, name: str, payload_desc=None) -> None:
        """Declare a message type (``gras_msgtype_declare``)."""
        self.registry.declare(name, payload_desc)

    def cb_register(self, msgtype_name: str, callback: Callable) -> None:
        """Register ``callback(process, source_socket, payload)`` for a type."""
        self.registry.register_callback(msgtype_name, callback)

    def socket_client(self, host: str, port: int) -> GrasSocket:
        """Create a client socket to ``host:port`` (``gras_socket_client``)."""
        return GrasSocket(host, port)

    # -- messaging -----------------------------------------------------------------------------
    def msg_send(self, socket: GrasSocket, msgtype_name: str,
                 payload: Any = None) -> None:
        """Send one typed message to ``socket`` (``gras_msg_send``)."""
        msgtype = self.registry.by_name(msgtype_name)
        payload_bytes = b""
        if msgtype.payload_desc is not None and payload is not None:
            payload_bytes = msgtype.payload_desc.encode(payload, self.arch)
        message = GrasMessage(
            msgtype=msgtype_name,
            payload_bytes=payload_bytes,
            sender_arch=self.arch.name,
            sender_host=self.host_name,
            sender_port=self._ensure_listen_port(),
        )
        self._transmit(socket, message)

    def _decode(self, message: GrasMessage) -> Tuple[GrasSocket, Any]:
        """``(source_socket, payload)`` of a received message."""
        source = GrasSocket(message.sender_host, message.sender_port)
        msgtype = self.registry.by_name(message.msgtype)
        if msgtype.payload_desc is None or not message.payload_bytes:
            return source, None
        src_arch = ARCHITECTURES[message.sender_arch]
        value, _ = msgtype.payload_desc.decode(message.payload_bytes, src_arch)
        return source, value

    def msg_wait(self, timeout: float, msgtype_name: str
                 ) -> Tuple[GrasSocket, Any]:
        """Block until a message of the given type arrives.

        Returns ``(source_socket, payload)`` like ``gras_msg_wait`` fills
        its ``&from`` and ``&payload`` output arguments.  Messages of other
        types arriving meanwhile are kept, in order, for later calls.
        """
        deadline = self.os_time() + timeout
        for idx, message in enumerate(self._buffer):
            if message.msgtype == msgtype_name:
                del self._buffer[idx]
                return self._decode(message)
        # The buffer was scanned above and only this process appends to
        # it, so from here on only *new* messages can match: popping the
        # buffer again would spin forever on a non-matching message.
        while True:
            remaining = deadline - self.os_time()
            if remaining < 0:
                raise SimTimeoutError(
                    f"no {msgtype_name!r} message within {timeout}s")
            message = self._receive(remaining)
            if message.msgtype == msgtype_name:
                return self._decode(message)
            self._buffer.append(message)

    def msg_handle(self, timeout: float) -> bool:
        """Wait for (at most ``timeout``) and dispatch one incoming message.

        Returns True when a message was handled, False on timeout.
        """
        try:
            message = (self._buffer.pop(0) if self._buffer
                       else self._receive(timeout))
        except SimTimeoutError:
            return False
        callback = self.registry.callback_for(message.msgtype)
        if callback is None:
            raise UnknownMessageError(
                f"no callback registered for {message.msgtype!r}")
        callback(self, *self._decode(message))
        return True

    # -- benchmarking ----------------------------------------------------------------------------------
    def bench_always(self, key: str = "") -> ContextManager[None]:
        """``GRAS_BENCH_ALWAYS_BEGIN/END``: measure the block every time.

        The real duration of the block is measured and, in simulation mode,
        injected as simulated computation on the process's host.
        """
        return self.bench_recorder.always(key, self._inject_computation)

    def bench_once(self, key: str) -> ContextManager[bool]:
        """``SMPI_BENCH_ONCE``-style sampling: run the block once for real.

        The context manager yields ``True`` when the block should really
        run (first time) and ``False`` afterwards; either way the recorded
        duration is injected as simulated computation.

        Usage::

            with proc.bench_once("dgemm") as should_run:
                if should_run:
                    expensive_kernel()
        """
        return self.bench_recorder.once(key, self._inject_computation)

    # -- lifecycle -----------------------------------------------------------------------------------------
    def exit(self) -> None:
        """Tear the process down (``gras_exit``); default is a no-op."""
