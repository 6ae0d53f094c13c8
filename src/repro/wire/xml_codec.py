"""XML wire format: fully textual encoding of the message."""

from __future__ import annotations

from typing import Any

from repro.gras.arch import Architecture
from repro.gras.datadesc import (
    ArrayDesc,
    DataDescription,
    ScalarDesc,
    StringDesc,
    StructDesc,
)
from repro.wire.codec import Codec, ConversionCost

__all__ = ["XmlCodec"]


class XmlCodec(Codec):
    """An XML-RPC-style text encoding (the paper's "XML" column).

    Every scalar becomes decimal text wrapped in element tags, so the wire
    size balloons (a 4-byte integer becomes ``<i>1234567890</i>``) and both
    sides pay text formatting / parsing over every byte.  Being pure text it
    is, of course, architecture independent.
    """

    name = "XML"

    HEADER_BYTES = 128.0          # HTTP-ish envelope + document prolog
    #: Average text bytes produced per scalar element (digits + tags).
    TAG_OVERHEAD = 9.0
    TEXT_EXPANSION = 2.6          # digits vs. binary bytes, on average
    FORMAT_FACTOR = 4.0           # printf/atoi cost per wire byte
    PARSE_FACTOR = 6.0            # XML parsing is costlier than formatting

    # -- size model -----------------------------------------------------------------
    def _text_size(self, desc: DataDescription, value: Any) -> float:
        if isinstance(desc, ScalarDesc):
            return self.TAG_OVERHEAD + 8.0 * self.TEXT_EXPANSION / 2.0
        if isinstance(desc, StringDesc):
            return self.TAG_OVERHEAD + float(len(str(value)))
        if isinstance(desc, ArrayDesc):
            return (self.TAG_OVERHEAD
                    + sum(self._text_size(desc.element, item)
                          for item in value))
        # the fourth and last description, a StructDesc
        return (self.TAG_OVERHEAD
                + sum(self._text_size(fdesc, StructDesc._field(value, fname))
                      for fname, fdesc in desc.fields))

    def wire_size(self, desc: DataDescription, value: Any,
                  sender: Architecture, receiver: Architecture) -> float:
        return self._text_size(desc, value) + self.HEADER_BYTES

    def conversion_operations(self, desc: DataDescription, value: Any,
                              sender: Architecture,
                              receiver: Architecture) -> ConversionCost:
        text = self._text_size(desc, value)
        return ConversionCost(sender_ops=text * self.FORMAT_FACTOR,
                              receiver_ops=text * self.PARSE_FACTOR)
