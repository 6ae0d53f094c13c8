"""The GRAS exchange tables (E2/E3): five stacks, one cost model.

The paper times the exchange of one Pastry message between PowerPC, Sparc
and x86 hosts for GRAS, MPICH, OmniORB, PBIO and an XML encoding.  Those
middlewares are not redistributable here, so each stack is one function of
the message and the two architectures.  It returns ``None`` when the stack
cannot connect them (the tables' ``n/a``), and otherwise the wire bytes of
one message and the conversion operations (one operation touches one
byte once) of its sender and of its receiver.  :class:`ExchangeModel`
charges the bytes to a platform route and the operations to the endpoints
at ``CONVERSION_RATE``:

    encode on the sender + transfer on the network + decode on the receiver
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.gras.arch import ARCHITECTURES, Architecture
from repro.gras.datadesc import (
    ArrayDesc,
    DataDescription,
    ScalarDesc,
    StringDesc,
    StructDesc,
)
from repro.gras.message import HEADER_BYTES
from repro.platform.platform import Platform

__all__ = ["ExchangeModel", "ExchangeResult", "STACKS"]

#: Serialisation throughput of the endpoint CPUs, in bytes/second of
#: conversion work.
CONVERSION_RATE = 6e7

#: ``(wire bytes, sender operations, receiver operations)``, or ``None``.
Cost = Optional[Tuple[float, float, float]]


def _native(desc: DataDescription, value: Any, arch: Architecture) -> float:
    """Bytes of ``value`` in ``arch``'s native layout."""
    return float(len(desc.encode(value, arch)))


def _gras(desc: DataDescription, value: Any, sender: Architecture,
          receiver: Architecture) -> Cost:
    """Sender-native layout plus the GRAS header.  The sender copies once;
    the receiver copies, and makes right: one more pass when the byte
    orders differ and one more when the type sizes differ."""
    payload = _native(desc, value, sender)
    receiver_ops = payload
    if sender.byte_order != receiver.byte_order:
        receiver_ops += payload
    if sender.type_sizes != receiver.type_sizes:
        receiver_ops += payload
    return payload + HEADER_BYTES, payload, receiver_ops


def _mpich(desc: DataDescription, value: Any, sender: Architecture,
           receiver: Architecture) -> Cost:
    """Raw memory in a 32-byte envelope, packed and unpacked through a
    derived datatype (1.6 operations per byte); no conversion, so ``n/a``
    between unlike architectures."""
    if (sender.byte_order != receiver.byte_order
            or sender.type_sizes != receiver.type_sizes):
        return None
    payload = _native(desc, value, sender)
    return payload + 32.0, payload * 1.6, payload * 1.6


def _omniorb(desc: DataDescription, value: Any, sender: Architecture,
             receiver: Architecture) -> Cost:
    """CORBA CDR: 18 % alignment padding and a 96-byte GIOP header.  Both
    sides marshal (1.8 operations per byte); the receiver swaps when the
    byte orders differ."""
    payload = _native(desc, value, sender)
    receiver_ops = payload * 1.8
    if sender.byte_order != receiver.byte_order:
        receiver_ops += payload
    return payload * 1.18 + 96.0, payload * 1.8, receiver_ops


def _pbio(desc: DataDescription, value: Any, sender: Architecture,
          receiver: Architecture) -> Cost:
    """Sender-native layout, a 64-byte header and 256 bytes of format
    metadata.  The sender copies; the receiver copies, and its generic
    interpreter converts (2.2 operations per byte) when the architectures
    differ.  ``n/a`` with PowerPC, as in the paper's tables."""
    if "powerpc" in (sender.name, receiver.name):
        return None
    payload = _native(desc, value, sender)
    receiver_ops = payload
    if (sender.byte_order != receiver.byte_order
            or sender.type_sizes != receiver.type_sizes):
        receiver_ops += payload * 2.2
    return payload + 64.0 + 256.0, payload, receiver_ops


def _text(desc: DataDescription, value: Any) -> float:
    """Bytes of ``value`` as XML: 9 bytes of tags per element, 10.4 bytes
    of digits per scalar."""
    if isinstance(desc, ScalarDesc):
        return 9.0 + 8.0 * 2.6 / 2.0
    if isinstance(desc, StringDesc):
        return 9.0 + float(len(str(value)))
    if isinstance(desc, ArrayDesc):
        return 9.0 + sum(_text(desc.element, item) for item in value)
    # the fourth and last description, a StructDesc
    return 9.0 + sum(_text(fdesc, StructDesc._field(value, fname))
                     for fname, fdesc in desc.fields)


def _xml(desc: DataDescription, value: Any, sender: Architecture,
         receiver: Architecture) -> Cost:
    """Text, the same on every architecture, plus a 128-byte envelope.
    Formatting costs 4 operations per text byte, parsing 6."""
    text = _text(desc, value)
    return text + 128.0, text * 4.0, text * 6.0


#: The five stacks, in the paper's column order.
STACKS: Dict[str, Callable[..., Cost]] = {
    "GRAS": _gras, "MPICH": _mpich, "OmniORB": _omniorb, "PBIO": _pbio,
    "XML": _xml,
}


@dataclass(frozen=True)
class ExchangeResult:
    """One cell of the tables."""

    wire_bytes: float
    encode_time: float
    transfer_time: float
    decode_time: float
    available: bool

    @property
    def total_time(self) -> float:
        """End-to-end exchange time in seconds (inf when unavailable)."""
        if not self.available:
            return float("inf")
        return self.encode_time + self.transfer_time + self.decode_time


#: The tables' ``n/a`` cell.
UNAVAILABLE = ExchangeResult(0.0, 0.0, 0.0, 0.0, False)


class ExchangeModel:
    """Exchange times over the route from ``src_host`` to ``dst_host``:
    its bottleneck bandwidth and the sum of its latencies."""

    def __init__(self, platform: Platform, src_host: str,
                 dst_host: str) -> None:
        link_names = platform.route_links(src_host, dst_host)
        if link_names:
            self.bandwidth = min(platform.links[n].bandwidth
                                 for n in link_names)
            self.latency = sum(platform.links[n].latency for n in link_names)
        else:  # loopback
            self.bandwidth = float("inf")
            self.latency = 0.0

    def exchange(self, stack: str, desc: DataDescription, value: Any,
                 sender_arch: str, receiver_arch: str) -> ExchangeResult:
        """One message of ``stack`` from ``sender_arch`` to
        ``receiver_arch``."""
        cost = STACKS[stack](desc, value, ARCHITECTURES[sender_arch],
                             ARCHITECTURES[receiver_arch])
        if cost is None:
            return UNAVAILABLE
        wire_bytes, sender_ops, receiver_ops = cost
        return ExchangeResult(wire_bytes, sender_ops / CONVERSION_RATE,
                              self.latency + wire_bytes / self.bandwidth,
                              receiver_ops / CONVERSION_RATE, True)

    def table(self, desc: DataDescription, value: Any,
              architectures: Sequence[str] = ("powerpc", "sparc", "x86")
              ) -> Dict[str, Dict[str, ExchangeResult]]:
        """``{"src->dst": {stack: result}}`` for every ordered pair of
        ``architectures``: the structure of the paper's tables."""
        return {f"{src}->{dst}": {stack: self.exchange(stack, desc, value,
                                                       src, dst)
                                  for stack in STACKS}
                for src in architectures for dst in architectures}
