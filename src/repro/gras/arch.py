"""Architecture descriptors for cross-architecture data exchange.

The paper's GRAS tables exchange messages between **PowerPC**, **Sparc**
and **x86** hosts.  What makes that hard (and what GRAS automates) is that
those architectures disagree on byte order and on the size of C types.
An :class:`Architecture` records those two, and the data description
layer uses it to encode values in the *sender*'s byte order and type
sizes and convert on the *receiver* ("receiver makes right", GRAS's NDR
strategy).  Alignment and struct padding are not modelled: fields are
packed back to back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Architecture", "ARCHITECTURES", "LOCAL_ARCH"]


@dataclass(frozen=True)
class Architecture:
    """Byte order and C-type sizes of one machine family."""

    name: str
    byte_order: str                       # "little" or "big"
    type_sizes: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.byte_order not in ("little", "big"):
            raise ValueError("byte_order must be 'little' or 'big'")

    def size_of(self, type_name: str) -> int:
        """Size in bytes of a scalar type on this architecture."""
        return self.type_sizes[type_name]

    @property
    def struct_byteorder_char(self) -> str:
        """The :mod:`struct` byte-order prefix for this architecture."""
        return "<" if self.byte_order == "little" else ">"


_COMMON_32BIT_SIZES = {
    "int8": 1, "uint8": 1,
    "int16": 2, "uint16": 2,
    "int32": 4, "uint32": 4,
    "int64": 8, "uint64": 8,
    "int": 4, "uint": 4,
    "long": 4, "ulong": 4,
    "float": 4, "double": 8,
    "char": 1, "pointer": 4,
}

_COMMON_64BIT_SIZES = dict(_COMMON_32BIT_SIZES, long=8, ulong=8, pointer=8)

#: The three architectures of the paper's tables plus a modern 64-bit x86.
ARCHITECTURES: Dict[str, Architecture] = {
    "x86": Architecture("x86", "little", dict(_COMMON_32BIT_SIZES)),
    "x86_64": Architecture("x86_64", "little", dict(_COMMON_64BIT_SIZES)),
    "sparc": Architecture("sparc", "big", dict(_COMMON_32BIT_SIZES)),
    "powerpc": Architecture("powerpc", "big", dict(_COMMON_32BIT_SIZES)),
}

#: Descriptor used when none is specified (a 64-bit little-endian host).
LOCAL_ARCH = ARCHITECTURES["x86_64"]
