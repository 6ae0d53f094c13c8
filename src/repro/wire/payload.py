"""The Pastry-like benchmark message of the GRAS tables.

The paper's tables measure the exchange of "one Pastry message".  Pastry is
a structured peer-to-peer overlay; its routing messages carry the sender's
nodeId, a leaf set, a neighbourhood set and a routing table of nodeIds (plus
a few scalars).  This module builds one instance of that message and its
GRAS data description, so every stack sends the *same* logical payload.

Sizes follow the classic FreePastry defaults: 128-bit nodeIds, a leaf set of
24 entries, a neighbourhood set of 32 entries and a quarter of a 40x16
routing table.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.gras.datadesc import (
    ArrayDesc,
    ScalarDesc,
    StringDesc,
    StructDesc,
)

__all__ = ["PASTRY_MESSAGE_DESC", "make_pastry_message",
           "NODEID_WORDS", "LEAF_SET_SIZE", "NEIGHBOUR_SET_SIZE",
           "ROUTING_ENTRIES"]

#: A 128-bit nodeId is carried as four 32-bit words.
NODEID_WORDS = 4
#: FreePastry defaults.
LEAF_SET_SIZE = 24
NEIGHBOUR_SET_SIZE = 32
#: Populated routing-table entries carried by the benchmark message.
ROUTING_ENTRIES = 160
#: Seed of the message's nodeIds, addresses and scalars.
MESSAGE_SEED = 1


_nodeid_desc = ArrayDesc(ScalarDesc("uint32"), fixed_length=NODEID_WORDS,
                         name="nodeid")

_route_entry_desc = StructDesc("route_entry", [
    ("nodeid", _nodeid_desc),
    ("proximity", ScalarDesc("int32")),
    ("address", StringDesc()),
])

PASTRY_MESSAGE_DESC = StructDesc("pastry_message", [
    ("msg_kind", ScalarDesc("int32")),
    ("hop_count", ScalarDesc("int32")),
    ("timestamp", ScalarDesc("double")),
    ("sender", _nodeid_desc),
    ("target_key", _nodeid_desc),
    ("leaf_set", ArrayDesc(_nodeid_desc, fixed_length=LEAF_SET_SIZE,
                           name="leaf_set")),
    ("neighbour_set", ArrayDesc(_nodeid_desc,
                                fixed_length=NEIGHBOUR_SET_SIZE,
                                name="neighbour_set")),
    ("routing_table", ArrayDesc(_route_entry_desc, name="routing_table")),
])


def _random_nodeid(rng: random.Random) -> List[int]:
    return [rng.getrandbits(32) for _ in range(NODEID_WORDS)]


def make_pastry_message() -> Dict:
    """Build the Pastry-like message (the same one at every call)."""
    rng = random.Random(MESSAGE_SEED)
    return {
        "msg_kind": 3,                      # JOIN_REQUEST-like
        "hop_count": rng.randint(0, 8),
        "timestamp": 1139900000.0 + rng.random() * 1000.0,
        "sender": _random_nodeid(rng),
        "target_key": _random_nodeid(rng),
        "leaf_set": [_random_nodeid(rng) for _ in range(LEAF_SET_SIZE)],
        "neighbour_set": [_random_nodeid(rng)
                          for _ in range(NEIGHBOUR_SET_SIZE)],
        "routing_table": [
            {
                "nodeid": _random_nodeid(rng),
                "proximity": rng.randint(1, 500),
                "address": f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}."
                           f"{rng.randint(1, 254)}:{rng.randint(1024, 65535)}",
            }
            for _ in range(ROUTING_ENTRIES)
        ],
    }
