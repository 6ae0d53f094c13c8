"""GRAS real-life backend: the same process code over real sockets.

The paper's key GRAS claim is that the *resulting application is production,
not prototype*: the code written against the GRAS API runs unmodified
either in the simulator or for real.  This backend provides the "for real"
half on a single machine: every GRAS process is an OS thread, messages are
framed over localhost TCP connections, time is the wall clock.

The wire frame is self-describing enough for the receiver-makes-right
conversion: it carries the sender's architecture name, its reply port, the
message type name and the payload bytes encoded with the sender's layout.
A frame that cannot be read (bad magic, an undecodable name, an unknown
architecture, a peer that resets or stalls past ``_IO_TIMEOUT``) is dropped
and the process keeps listening.
"""

from __future__ import annotations

import contextlib
import math
import queue
import socket as _socket
import struct as _struct
import threading
import time
from typing import Callable, ContextManager, List, Optional

from repro.exceptions import NetworkError, SimTimeoutError
from repro.gras.arch import ARCHITECTURES, Architecture, LOCAL_ARCH
from repro.gras.message import GrasMessage
from repro.gras.process import GrasProcess
from repro.gras.socket import GrasSocket

__all__ = ["RlWorld", "RlGrasProcess"]

_MAGIC = b"GRAS"
_LOCALHOST = "127.0.0.1"
#: Seconds a connection may stall while a frame is sent or received.
_IO_TIMEOUT = 5.0


def _pack_frame(message: GrasMessage) -> bytes:
    arch = message.sender_arch.encode("ascii")
    msgtype = message.msgtype.encode("utf-8")
    header = _struct.pack("!4sH I H I", _MAGIC, len(arch),
                          message.sender_port, len(msgtype),
                          len(message.payload_bytes))
    return header + arch + msgtype + message.payload_bytes


def _read_exact(conn: _socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            # bounded: a corrupt length must not size the buffer
            chunk = conn.recv(min(remaining, 1 << 16))
        except OSError as exc:  # reset, or stalled past _IO_TIMEOUT
            raise NetworkError(f"frame lost mid-read: {exc}") from None
        if not chunk:
            raise NetworkError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _unpack_frame(conn: _socket.socket) -> GrasMessage:
    """Read one frame; a malformed one raises :class:`NetworkError`."""
    header = _read_exact(conn, _struct.calcsize("!4sH I H I"))
    magic, arch_len, reply_port, type_len, payload_len = _struct.unpack(
        "!4sH I H I", header)
    if magic != _MAGIC:
        raise NetworkError("bad frame magic")
    try:
        arch = _read_exact(conn, arch_len).decode("ascii")
        msgtype = _read_exact(conn, type_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NetworkError(f"malformed frame: {exc}") from None
    if arch not in ARCHITECTURES:
        raise NetworkError(f"frame from unknown architecture {arch!r}")
    payload = _read_exact(conn, payload_len) if payload_len else b""
    return GrasMessage(msgtype=msgtype, payload_bytes=payload,
                       sender_arch=arch, sender_host=_LOCALHOST,
                       sender_port=reply_port)


class RlGrasProcess(GrasProcess):
    """A GRAS process running for real (thread + localhost TCP)."""

    host_name = _LOCALHOST

    def __init__(self, name: str, arch: Architecture = LOCAL_ARCH) -> None:
        super().__init__(name, arch)
        self._inbox: "queue.Queue[GrasMessage]" = queue.Queue()
        self._server_socket: Optional[_socket.socket] = None
        self._listen_port: Optional[int] = None
        self._closing = threading.Event()
        self._start_wallclock = time.monotonic()

    # -- sockets ----------------------------------------------------------------------
    def socket_server(self, port: int) -> GrasSocket:
        if self._server_socket is not None:
            return GrasSocket(_LOCALHOST, self._listen_port or port)
        server = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
        server.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
        server.bind((_LOCALHOST, port))
        server.listen(16)
        server.settimeout(0.1)
        self._server_socket = server
        self._listen_port = server.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True,
                         name=f"gras-accept-{self.name}").start()
        return GrasSocket(_LOCALHOST, self._listen_port)

    def _ensure_listen_port(self) -> int:
        if self._listen_port is None:
            self.socket_server(0)  # ephemeral port
        assert self._listen_port is not None
        return self._listen_port

    def _accept_loop(self) -> None:
        assert self._server_socket is not None
        while not self._closing.is_set():
            try:
                conn, _addr = self._server_socket.accept()
            except _socket.timeout:
                continue
            except OSError:
                break
            try:
                with conn:
                    conn.settimeout(_IO_TIMEOUT)
                    message = _unpack_frame(conn)
                self._inbox.put(message)
            except NetworkError:
                continue

    # -- transport -------------------------------------------------------------------
    def _transmit(self, socket: GrasSocket, message: GrasMessage) -> None:
        frame = _pack_frame(message)
        try:
            with _socket.create_connection((socket.host, socket.port),
                                           timeout=_IO_TIMEOUT) as conn:
                conn.sendall(frame)
        except OSError as exc:
            raise NetworkError(
                f"cannot send {message.msgtype!r} to "
                f"{socket.host}:{socket.port}: {exc}"
            ) from exc

    def _receive(self, timeout: float) -> GrasMessage:
        try:
            return self._inbox.get(
                timeout=timeout if not math.isinf(timeout) else None)
        except queue.Empty:
            raise SimTimeoutError(
                f"no message within {timeout}s") from None

    # -- time ---------------------------------------------------------------------------------
    def os_time(self) -> float:
        return time.monotonic() - self._start_wallclock

    def os_sleep(self, duration: float) -> None:
        time.sleep(duration)

    # -- benchmarking ------------------------------------------------------------------------------
    # The block runs for real and real time passes: nothing to charge.
    def bench_once(self, key: str) -> ContextManager[bool]:
        return contextlib.nullcontext(True)

    def bench_always(self, key: str) -> ContextManager[None]:
        return contextlib.nullcontext()

    # -- lifecycle ------------------------------------------------------------------------------------
    def exit(self) -> None:
        self._closing.set()
        if self._server_socket is not None:
            try:
                self._server_socket.close()
            except OSError:  # pragma: no cover - defensive
                pass


class RlWorld:
    """A set of GRAS processes running for real on the local machine."""

    def __init__(self) -> None:
        self._threads: List[threading.Thread] = []
        self._errors: List[BaseException] = []

    def add_process(self, name: str, func: Callable, *args,
                    arch: Optional[str] = None, **kwargs) -> RlGrasProcess:
        """Register ``func(gras_process, *args)`` to run in its own thread."""
        architecture = ARCHITECTURES[arch] if arch else LOCAL_ARCH
        process = RlGrasProcess(name, architecture)

        def body() -> None:
            try:
                func(process, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported in run()
                self._errors.append(exc)
            finally:
                process.exit()

        thread = threading.Thread(target=body, daemon=True,
                                  name=f"gras-rl-{name}")
        self._threads.append(thread)
        return process

    def run(self, timeout: Optional[float] = 30.0) -> None:
        """Start every process and wait for all of them to finish.

        Raises the first error any process raised, if any.
        """
        for thread in self._threads:
            thread.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(remaining)
        if any(thread.is_alive() for thread in self._threads):
            raise SimTimeoutError("real-life GRAS processes did not finish "
                                  f"within {timeout}s")
        if self._errors:
            raise self._errors[0]
