"""The exchange model: from a codec to a message-exchange time.

Reproduces what the paper's tables actually measure: the average time to
exchange one Pastry message between two hosts, i.e.

    encode on the sender + transfer on the network + decode on the receiver

The transfer term uses the route bandwidth and latency of a platform (the
LAN or the California–France WAN); the conversion terms use a per-host
"conversion operation rate" (``CONVERSION_RATE``) — how many bytes/second
of serialisation work a CPU of that era sustains — so that the resulting
milliseconds land in the same range as the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.gras.arch import ARCHITECTURES
from repro.gras.datadesc import DataDescription
from repro.platform.platform import Platform
from repro.wire.codec import Codec
from repro.wire.gras_codec import GrasCodec
from repro.wire.mpich_codec import MpichCodec
from repro.wire.omniorb_codec import OmniOrbCodec
from repro.wire.pbio_codec import PbioCodec
from repro.wire.xml_codec import XmlCodec

__all__ = ["ExchangeModel", "ExchangeResult", "all_codecs"]

#: Serialisation throughput of the endpoint CPUs, in bytes/second of
#: conversion work: ~60 MB/s matches the 2006-era workstations of the
#: paper well enough to land in the right millisecond range.
CONVERSION_RATE = 6e7


def all_codecs() -> List[Codec]:
    """The five stacks of the paper's tables, in their column order."""
    return [GrasCodec(), MpichCodec(), OmniOrbCodec(), PbioCodec(), XmlCodec()]


@dataclass
class ExchangeResult:
    """Outcome of one modelled message exchange."""

    codec: str
    sender_arch: str
    receiver_arch: str
    wire_bytes: float
    encode_time: float
    transfer_time: float
    decode_time: float
    available: bool = True

    @property
    def total_time(self) -> float:
        """End-to-end exchange time in seconds (inf when unavailable)."""
        if not self.available:
            return float("inf")
        return self.encode_time + self.transfer_time + self.decode_time


class ExchangeModel:
    """Computes exchange times over a platform route.

    Parameters
    ----------
    platform:
        The platform carrying the exchange (LAN or WAN topology).
    src_host / dst_host:
        Endpoints of the exchange; the route between them provides the
        bandwidth (bottleneck link) and latency (sum along the route).
    """

    def __init__(self, platform: Platform, src_host: str,
                 dst_host: str) -> None:
        self.platform = platform
        self.src_host = src_host
        self.dst_host = dst_host
        link_names = platform.route_links(src_host, dst_host)
        if link_names:
            self.bandwidth = min(platform.links[n].bandwidth
                                 for n in link_names)
            self.latency = sum(platform.links[n].latency for n in link_names)
        else:  # loopback
            self.bandwidth = float("inf")
            self.latency = 0.0

    # -- single exchange -----------------------------------------------------------------
    def exchange(self, codec: Codec, desc: DataDescription, value: Any,
                 sender_arch: str, receiver_arch: str) -> ExchangeResult:
        """Model one message exchange; unavailable pairs yield ``available=False``."""
        sender = ARCHITECTURES[sender_arch]
        receiver = ARCHITECTURES[receiver_arch]
        if not codec.supports(sender, receiver):
            return ExchangeResult(codec=codec.name, sender_arch=sender_arch,
                                  receiver_arch=receiver_arch, wire_bytes=0.0,
                                  encode_time=0.0, transfer_time=0.0,
                                  decode_time=0.0, available=False)
        wire_bytes = codec.wire_size(desc, value, sender, receiver)
        cost = codec.conversion_operations(desc, value, sender, receiver)
        encode_time = cost.sender_ops / CONVERSION_RATE
        decode_time = cost.receiver_ops / CONVERSION_RATE
        transfer_time = self.latency + wire_bytes / self.bandwidth
        return ExchangeResult(codec=codec.name, sender_arch=sender_arch,
                              receiver_arch=receiver_arch,
                              wire_bytes=wire_bytes,
                              encode_time=encode_time,
                              transfer_time=transfer_time,
                              decode_time=decode_time)

    # -- full table -----------------------------------------------------------------------
    def table(self, desc: DataDescription, value: Any,
              architectures: Optional[Sequence[str]] = None
              ) -> Dict[str, Dict[str, ExchangeResult]]:
        """Build the full (sender arch, receiver arch) -> codec table.

        Returns ``{f"{src}->{dst}": {codec_name: ExchangeResult}}``, which is
        exactly the structure of the paper's LAN and WAN tables.
        """
        archs = list(architectures or ("powerpc", "sparc", "x86"))
        codecs = all_codecs()
        table: Dict[str, Dict[str, ExchangeResult]] = {}
        for src in archs:
            for dst in archs:
                key = f"{src}->{dst}"
                table[key] = {
                    codec.name: self.exchange(codec, desc, value, src, dst)
                    for codec in codecs
                }
        return table
