"""Base class of the middleware wire-format comparators.

A :class:`Codec` answers two questions about sending a structured message
from one architecture to another (see its docstring for the methods).

The exchange model (:mod:`repro.wire.exchange`) turns those into a time by
charging the bytes to the network link and the conversion operations to the
endpoint CPUs, which is enough to reproduce the *ordering* and rough
*magnitudes* of the paper's tables (GRAS fastest, XML slowest, MPICH
unavailable across architectures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import SimGridError
from repro.gras.arch import Architecture
from repro.gras.datadesc import DataDescription

__all__ = ["Codec", "CodecUnavailableError", "ConversionCost"]


class CodecUnavailableError(SimGridError):
    """The middleware cannot exchange this pair of architectures.

    Used by the MPICH codec for heterogeneous pairs, which the paper's
    tables report as ``n/a``.
    """


@dataclass(frozen=True)
class ConversionCost:
    """Per-endpoint conversion work, expressed in *operations*.

    One operation corresponds to touching one byte once (copy, swap,
    format...).  The exchange model converts operations to seconds using a
    per-architecture operation rate.
    """

    sender_ops: float
    receiver_ops: float


class Codec:
    """One middleware's serialisation strategy.

    A codec supplies ``name`` and two methods, both taking
    ``(desc, value, sender, receiver)``: a data description, the value it
    describes and the two :class:`~repro.gras.arch.Architecture` objects.

    * ``wire_size(...) -> float``: how many bytes of one message end up on
      the wire;
    * ``conversion_operations(...) -> ConversionCost``: how many per-byte
      conversion operations the sender and the receiver perform (byte
      swapping, copying into aligned buffers, text formatting/parsing...).

    A codec that cannot connect two architectures overrides
    :meth:`supports`; its methods then call :meth:`check_supported`.
    """

    #: Short name used in tables ("GRAS", "MPICH", "OmniORB", "PBIO", "XML").
    name: str = "abstract"

    def supports(self, sender: Architecture, receiver: Architecture) -> bool:
        """Whether this middleware can connect the two architectures."""
        return True

    def check_supported(self, sender: Architecture,
                        receiver: Architecture) -> None:
        if not self.supports(sender, receiver):
            raise CodecUnavailableError(
                f"{self.name} cannot exchange {sender.name} -> {receiver.name}")

    # Shared helper: the native binary size of the payload on an architecture.
    @staticmethod
    def native_size(desc: DataDescription, value: Any,
                    arch: Architecture) -> float:
        return float(len(desc.encode(value, arch)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Codec {self.name}>"
