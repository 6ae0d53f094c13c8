"""The GRAS message-exchange tables (E2/E3).

The paper times the exchange of one Pastry message between PowerPC, Sparc
and x86 hosts, over a LAN and over a California–France WAN, for GRAS,
MPICH, OmniORB, PBIO and an XML encoding.  :mod:`repro.wire.payload`
builds that message; :mod:`repro.wire.exchange` holds one function per
stack (:data:`STACKS`) and the model that turns its bytes and conversion
work into an exchange time over a platform route.
"""

from repro.wire.payload import PASTRY_MESSAGE_DESC, make_pastry_message
from repro.wire.exchange import STACKS, ExchangeModel

__all__ = [
    "ExchangeModel",
    "PASTRY_MESSAGE_DESC",
    "STACKS",
    "make_pastry_message",
]
