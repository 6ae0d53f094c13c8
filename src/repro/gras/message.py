"""GRAS message types and callback registry.

``gras_msgtype_declare("ping", gras_datadesc_by_name("int"))`` declares a
named message type with a typed payload; processes can then either block on
a specific type (``gras_msg_wait``) or register callbacks and let
``gras_msg_handle`` dispatch incoming messages.

A message costs :data:`HEADER_BYTES` plus the length of its type name plus
its encoded payload: the simulation backend charges that many bytes, and
the E2/E3 GRAS stack the same header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.exceptions import UnknownMessageError
from repro.gras.datadesc import DataDescription, datadesc_by_name

__all__ = ["MessageType", "MessageRegistry", "GrasMessage", "HEADER_BYTES"]

#: Fixed per-message protocol overhead on the wire, in bytes
#: (message name, version, sender architecture, payload length).
HEADER_BYTES = 48


@dataclass(frozen=True)
class MessageType:
    """A named message type with an optional payload description."""

    name: str
    payload_desc: Optional[DataDescription] = None


class MessageRegistry:
    """Per-process registry of message types and callbacks."""

    def __init__(self) -> None:
        self._types: Dict[str, MessageType] = {}
        self._callbacks: Dict[str, Callable] = {}

    # -- declaration ---------------------------------------------------------------
    def declare(self, name: str, payload_desc=None) -> MessageType:
        """Declare a message type; redeclaring a name replaces it."""
        if isinstance(payload_desc, str):
            payload_desc = datadesc_by_name(payload_desc)
        msgtype = MessageType(name, payload_desc)
        self._types[name] = msgtype
        return msgtype

    def by_name(self, name: str) -> MessageType:
        """Lookup a declared message type (``gras_msgtype_by_name``)."""
        try:
            return self._types[name]
        except KeyError:
            raise UnknownMessageError(
                f"message type {name!r} was never declared") from None

    # -- callbacks ------------------------------------------------------------------
    def register_callback(self, msgtype_name: str, callback: Callable) -> None:
        """Attach a callback to a message type (``gras_cb_register``)."""
        self.by_name(msgtype_name)  # ensure declared
        self._callbacks[msgtype_name] = callback

    def callback_for(self, msgtype_name: str) -> Optional[Callable]:
        return self._callbacks.get(msgtype_name)


@dataclass
class GrasMessage:
    """A message in flight: type name, encoded payload and reply address."""

    msgtype: str
    payload_bytes: bytes
    sender_arch: str
    sender_host: str
    sender_port: int
