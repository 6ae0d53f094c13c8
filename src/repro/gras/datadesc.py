"""GRAS data descriptions: declare once, exchange across architectures.

The paper: *"Simple and cross-architecture communication of complex data
structures"* — the application declares the shape of its payloads
(``gras_datadesc_by_name("int")``, structure declarations...) and GRAS
handles the wire encoding, including byte-order and type-size conversion
between heterogeneous hosts.

The implementation follows GRAS's *NDR / receiver-makes-right* strategy:
the sender writes values in its native byte order and type sizes; the
receiver, knowing the sender's :class:`~repro.gras.arch.Architecture` from
the message header, converts only if needed.  This is what makes GRAS
faster than always-convert strategies like CDR (OmniORB) or text (XML) in
the paper's tables.
"""

from __future__ import annotations

import struct as _struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DataDescriptionError
from repro.gras.arch import ARCHITECTURES, Architecture, LOCAL_ARCH

__all__ = [
    "DataDescription", "ScalarDesc", "StringDesc", "ArrayDesc", "StructDesc",
    "datadesc_by_name", "declare_struct",
]

# ------------------------------------------------------------------------------------
# scalar formats
# ------------------------------------------------------------------------------------

_STRUCT_CODES = {
    # type_name: (signed struct code by size, unsigned struct code by size)
    "int8": "b", "uint8": "B",
    "int16": "h", "uint16": "H",
    "int32": "i", "uint32": "I",
    "int64": "q", "uint64": "Q",
    "float": "f", "double": "d",
    "char": "c",
}

_SIGNED_BY_SIZE = {1: "b", 2: "h", 4: "i", 8: "q"}
_UNSIGNED_BY_SIZE = {1: "B", 2: "H", 4: "I", 8: "Q"}


class DataDescription:
    """Base class of every data description."""

    name: str = ""

    def wire_size(self, value: Any, arch: Architecture = LOCAL_ARCH) -> int:
        """Number of bytes ``value`` occupies on the wire for ``arch``."""
        raise NotImplementedError

    def encode(self, value: Any, arch: Architecture = LOCAL_ARCH) -> bytes:
        """Encode ``value`` using ``arch``'s native representation."""
        raise NotImplementedError

    def decode(self, data: bytes, src_arch: Architecture,
               offset: int = 0) -> Tuple[Any, int]:
        """Decode a value written by ``src_arch``; returns (value, new offset)."""
        raise NotImplementedError

    # convenience ---------------------------------------------------------------------
    def roundtrip(self, value: Any, src_arch: Architecture,
                  dst_arch: Architecture) -> Any:
        """Encode on ``src_arch`` and decode on ``dst_arch`` (for tests)."""
        del dst_arch  # receiver-makes-right: decoding only needs the source
        data = self.encode(value, src_arch)
        decoded, consumed = self.decode(data, src_arch)
        if consumed != len(data):
            raise DataDescriptionError(
                f"{self.name}: {len(data) - consumed} trailing bytes")
        return decoded


class ScalarDesc(DataDescription):
    """A scalar C type (integers of various widths, float, double, char)."""

    def __init__(self, type_name: str) -> None:
        if type_name not in LOCAL_ARCH.type_sizes:
            raise DataDescriptionError(f"unknown scalar type {type_name!r}")
        self.name = type_name

    def _code_for(self, arch: Architecture) -> str:
        size = arch.size_of(self.name)
        if self.name in ("float", "double"):
            return "f" if size == 4 else "d"
        if self.name == "char":
            return "c"
        signed = not self.name.startswith("u")
        table = _SIGNED_BY_SIZE if signed else _UNSIGNED_BY_SIZE
        try:
            return table[size]
        except KeyError:
            raise DataDescriptionError(
                f"{self.name}: no wire format for size {size}") from None

    def wire_size(self, value: Any, arch: Architecture = LOCAL_ARCH) -> int:
        return arch.size_of(self.name)

    def encode(self, value: Any, arch: Architecture = LOCAL_ARCH) -> bytes:
        code = self._code_for(arch)
        if self.name == "char":
            if isinstance(value, str):
                value = value.encode("latin-1")[:1] or b"\x00"
            return _struct.pack(arch.struct_byteorder_char + "c", value)
        try:
            return _struct.pack(arch.struct_byteorder_char + code, value)
        except _struct.error as exc:
            raise DataDescriptionError(
                f"cannot encode {value!r} as {self.name}: {exc}") from None

    def decode(self, data: bytes, src_arch: Architecture,
               offset: int = 0) -> Tuple[Any, int]:
        code = self._code_for(src_arch)
        size = src_arch.size_of(self.name)
        try:
            (value,) = _struct.unpack_from(
                src_arch.struct_byteorder_char + code, data, offset)
        except _struct.error as exc:
            raise DataDescriptionError(
                f"cannot decode {self.name}: {exc}") from None
        if self.name == "char" and isinstance(value, bytes):
            value = value.decode("latin-1")
        return value, offset + size


class StringDesc(DataDescription):
    """A length-prefixed UTF-8 string (GRAS transports strings explicitly)."""

    name = "string"

    def wire_size(self, value: Any, arch: Architecture = LOCAL_ARCH) -> int:
        encoded = str(value).encode("utf-8")
        return 4 + len(encoded)

    def encode(self, value: Any, arch: Architecture = LOCAL_ARCH) -> bytes:
        encoded = str(value).encode("utf-8")
        prefix = _struct.pack(arch.struct_byteorder_char + "I", len(encoded))
        return prefix + encoded

    def decode(self, data: bytes, src_arch: Architecture,
               offset: int = 0) -> Tuple[Any, int]:
        (length,) = _struct.unpack_from(
            src_arch.struct_byteorder_char + "I", data, offset)
        offset += 4
        raw = data[offset:offset + length]
        if len(raw) != length:
            raise DataDescriptionError("truncated string payload")
        return raw.decode("utf-8"), offset + length


class ArrayDesc(DataDescription):
    """A homogeneous array, either fixed-size or length-prefixed."""

    def __init__(self, element: DataDescription,
                 fixed_length: Optional[int] = None,
                 name: str = "") -> None:
        self.element = element
        self.fixed_length = fixed_length
        self.name = name or f"array<{element.name}>"

    def _check_length(self, value: Sequence[Any]) -> None:
        if (self.fixed_length is not None
                and len(value) != self.fixed_length):
            raise DataDescriptionError(
                f"{self.name}: expected {self.fixed_length} elements, "
                f"got {len(value)}")

    def _bulk_format(self, arch: Architecture, count: int) -> Optional[str]:
        """One ``struct`` format for the whole payload, or None.

        Non-``char`` scalars have a fixed size and a plain pack/unpack, so
        ``count`` of them are one ``struct`` call producing the very bytes
        the per-element walk would (a 2 MB ``uint8`` probe payload is then
        one call, not two million).
        """
        element = self.element
        if not isinstance(element, ScalarDesc) or element.name == "char":
            return None
        return f"{arch.struct_byteorder_char}{count}{element._code_for(arch)}"

    def wire_size(self, value: Any, arch: Architecture = LOCAL_ARCH) -> int:
        self._check_length(value)
        header = 0 if self.fixed_length is not None else 4
        if isinstance(self.element, ScalarDesc):    # fixed-size elements
            return header + len(value) * arch.size_of(self.element.name)
        return header + sum(self.element.wire_size(v, arch) for v in value)

    def encode(self, value: Any, arch: Architecture = LOCAL_ARCH) -> bytes:
        self._check_length(value)
        chunks: List[bytes] = []
        if self.fixed_length is None:
            chunks.append(_struct.pack(arch.struct_byteorder_char + "I",
                                       len(value)))
        fmt = self._bulk_format(arch, len(value))
        if fmt is not None:
            try:
                chunks.append(_struct.pack(fmt, *value))
            except _struct.error:
                pass  # the per-element walk below names the bad value
            else:
                return b"".join(chunks)
        for item in value:
            chunks.append(self.element.encode(item, arch))
        return b"".join(chunks)

    def decode(self, data: bytes, src_arch: Architecture,
               offset: int = 0) -> Tuple[Any, int]:
        if self.fixed_length is None:
            (length,) = _struct.unpack_from(
                src_arch.struct_byteorder_char + "I", data, offset)
            offset += 4
        else:
            length = self.fixed_length
        fmt = self._bulk_format(src_arch, length)
        if fmt is not None:
            try:
                items = list(_struct.unpack_from(fmt, data, offset))
            except _struct.error:
                pass  # truncated: the per-element walk below reports it
            else:
                return items, offset + _struct.calcsize(fmt)
        items = []
        for _ in range(length):
            item, offset = self.element.decode(data, src_arch, offset)
            items.append(item)
        return items, offset


class StructDesc(DataDescription):
    """A C-struct-like record: named, ordered, typed fields.

    Values are plain dictionaries keyed by field name (the Python analogue
    of the C structs GRAS describes).
    """

    def __init__(self, name: str,
                 fields: Sequence[Tuple[str, DataDescription]]) -> None:
        if not fields:
            raise DataDescriptionError(f"struct {name!r} needs fields")
        self.name = name
        self.fields: List[Tuple[str, DataDescription]] = list(fields)

    def wire_size(self, value: Any, arch: Architecture = LOCAL_ARCH) -> int:
        return sum(desc.wire_size(self._field(value, fname), arch)
                   for fname, desc in self.fields)

    def encode(self, value: Any, arch: Architecture = LOCAL_ARCH) -> bytes:
        return b"".join(desc.encode(self._field(value, fname), arch)
                        for fname, desc in self.fields)

    def decode(self, data: bytes, src_arch: Architecture,
               offset: int = 0) -> Tuple[Any, int]:
        result: Dict[str, Any] = {}
        for fname, desc in self.fields:
            result[fname], offset = desc.decode(data, src_arch, offset)
        return result, offset

    @staticmethod
    def _field(value: Any, fname: str) -> Any:
        try:
            return value[fname]
        except (TypeError, KeyError):
            try:
                return getattr(value, fname)
            except AttributeError:
                raise DataDescriptionError(
                    f"value has no field {fname!r}") from None


# ------------------------------------------------------------------------------------
# the global registry (gras_datadesc_by_name)
# ------------------------------------------------------------------------------------

_REGISTRY: Dict[str, DataDescription] = {}


def _bootstrap_registry() -> None:
    for type_name in ("int8", "uint8", "int16", "uint16", "int32", "uint32",
                      "int64", "uint64", "float", "double", "char"):
        _REGISTRY[type_name] = ScalarDesc(type_name)
    # C-style aliases used by the paper's listings
    _REGISTRY["int"] = ScalarDesc("int32")
    _REGISTRY["unsigned int"] = ScalarDesc("uint32")
    _REGISTRY["long"] = ScalarDesc("int64")
    _REGISTRY["string"] = StringDesc()


_bootstrap_registry()


def datadesc_by_name(name: str) -> DataDescription:
    """Look up a data description by name (``gras_datadesc_by_name``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DataDescriptionError(f"unknown data description {name!r}") from None


def declare_struct(name: str,
                   fields: Sequence[Tuple[str, Any]]) -> StructDesc:
    """Declare (and register) a structure description.

    Field descriptions may be given by name (``"int"``) or as
    :class:`DataDescription` instances, which allows nesting::

        declare_struct("point", [("x", "double"), ("y", "double")])
        declare_struct("segment", [("a", datadesc_by_name("point")),
                                   ("b", datadesc_by_name("point"))])
    """
    resolved: List[Tuple[str, DataDescription]] = []
    for fname, desc in fields:
        if isinstance(desc, str):
            desc = datadesc_by_name(desc)
        if not isinstance(desc, DataDescription):
            raise DataDescriptionError(
                f"field {fname!r}: not a data description: {desc!r}")
        resolved.append((fname, desc))
    struct_desc = StructDesc(name, resolved)
    _REGISTRY[name] = struct_desc
    return struct_desc
