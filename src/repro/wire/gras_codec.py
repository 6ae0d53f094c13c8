"""GRAS wire format: sender-native layout, receiver makes right."""

from __future__ import annotations

from typing import Any

from repro.gras.arch import Architecture
from repro.gras.datadesc import DataDescription
from repro.gras.message import HEADER_BYTES
from repro.wire.codec import Codec, ConversionCost

__all__ = ["GrasCodec"]


class GrasCodec(Codec):
    """The paper's own middleware.

    * The sender copies its in-memory structures to the socket with no
      transformation (native byte order and sizes) plus a small
      per-message header describing its architecture.
    * The receiver converts **only when needed**: identical architectures
      pay a plain copy; different byte orders pay one swap pass; different
      type sizes pay a resize pass.

    This "NDR / receiver-makes-right" strategy is why GRAS wins the paper's
    tables on homogeneous pairs and stays competitive on heterogeneous ones.
    """

    name = "GRAS"

    def wire_size(self, desc: DataDescription, value: Any,
                  sender: Architecture, receiver: Architecture) -> float:
        # The per-message header of the simulated GRAS messages.
        return self.native_size(desc, value, sender) + HEADER_BYTES

    def conversion_operations(self, desc: DataDescription, value: Any,
                              sender: Architecture,
                              receiver: Architecture) -> ConversionCost:
        payload = self.native_size(desc, value, sender)
        # Sender: one copy of the payload into the socket buffer.
        sender_ops = payload
        # Receiver: one copy, plus a swap pass when byte orders differ,
        # plus a re-sizing pass when the type sizes differ.
        receiver_ops = payload
        if sender.byte_order != receiver.byte_order:
            receiver_ops += payload
        if sender.type_sizes != receiver.type_sizes:
            receiver_ops += payload
        return ConversionCost(sender_ops=sender_ops,
                              receiver_ops=receiver_ops)
