"""GRAS sockets: the endpoints messages are sent to / received from.

A :class:`GrasSocket` is a lightweight address ``(host, port)``: a server
socket is the address a process listens on, a client socket the address of
a peer.  The same object is used by both backends; what differs is how the
backend moves bytes (simulated tasks vs. real TCP connections).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GrasSocket"]


@dataclass(frozen=True)
class GrasSocket:
    """An endpoint address used by ``gras_msg_send`` / callbacks."""

    host: str
    port: int
