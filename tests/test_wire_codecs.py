"""Tests for the five middleware stacks of the GRAS tables (E2/E3)."""

import hashlib
import math

import pytest

from benchmarks.bench_gras_lan import ARCHS, build_lan_model
from benchmarks.bench_gras_wan import build_wan_model
from repro.gras.arch import ARCHITECTURES
from repro.platform import make_star, make_two_site_grid
from repro.wire import (
    ExchangeModel,
    PASTRY_MESSAGE_DESC,
    STACKS,
    make_pastry_message,
)
from repro.wire import exchange, payload

X86 = ARCHITECTURES["x86"]
MESSAGE = make_pastry_message()


def wan_model():
    platform = make_two_site_grid(hosts_per_site=1, wan_bandwidth=1.25e6,
                                  wan_latency=80e-3)
    return ExchangeModel(platform, "siteA-0", "siteB-0")


class TestPayload:
    def test_pastry_message_is_deterministic(self):
        assert make_pastry_message() == MESSAGE

    def test_message_seed_picks_the_message(self, monkeypatch):
        monkeypatch.setattr(payload, "MESSAGE_SEED", payload.MESSAGE_SEED + 1)
        other = make_pastry_message()
        assert other != MESSAGE
        assert make_pastry_message() == other

    def test_pastry_message_encodes_with_gras_datadesc(self):
        encoded = PASTRY_MESSAGE_DESC.encode(MESSAGE, X86)
        decoded, _ = PASTRY_MESSAGE_DESC.decode(encoded, X86)
        assert decoded["sender"] == MESSAGE["sender"]
        assert len(decoded["routing_table"]) == len(MESSAGE["routing_table"])

    def test_pastry_message_follows_the_freepastry_defaults(self):
        """128-bit nodeIds, 24 leaves, 32 neighbours and a quarter of a
        40x16 routing table."""
        nodeids = [MESSAGE["sender"], MESSAGE["target_key"],
                   *MESSAGE["leaf_set"], *MESSAGE["neighbour_set"],
                   *(entry["nodeid"] for entry in MESSAGE["routing_table"])]
        assert all(len(nodeid) == 4 and max(nodeid) < 2**32
                   for nodeid in nodeids)
        assert len(MESSAGE["leaf_set"]) == 24
        assert len(MESSAGE["neighbour_set"]) == 32
        assert len(MESSAGE["routing_table"]) * 4 == 40 * 16

    def test_pastry_message_has_nontrivial_size(self):
        size = len(PASTRY_MESSAGE_DESC.encode(MESSAGE, X86))
        assert 2_000 < size < 50_000     # a few KB, like a real Pastry message


def lan_exchange(stack, sender="x86", receiver="x86"):
    return build_lan_model().exchange(stack, PASTRY_MESSAGE_DESC, MESSAGE,
                                      sender, receiver)


class TestStacks:
    def test_xml_is_much_larger_than_binary(self):
        assert (lan_exchange("XML").wire_bytes
                > 1.5 * lan_exchange("GRAS").wire_bytes)

    def test_omniorb_padding_overhead(self):
        assert (lan_exchange("OmniORB").wire_bytes
                > lan_exchange("GRAS").wire_bytes)

    def test_pbio_unavailable_exactly_with_powerpc(self):
        for sender in ARCHS:
            for receiver in ARCHS:
                assert (lan_exchange("PBIO", sender, receiver).available
                        == ("powerpc" not in (sender, receiver)))

    def test_gras_receiver_pays_conversion_only_when_needed(self):
        homo = lan_exchange("GRAS", "x86", "x86")
        hetero = lan_exchange("GRAS", "sparc", "x86")
        assert homo.decode_time < hetero.decode_time
        assert homo.encode_time == hetero.encode_time
        assert homo.decode_time == homo.encode_time    # one copy each


class TestExchangeModel:
    def test_mpich_unavailable_exactly_on_heterogeneous_pairs(self):
        model = build_lan_model()
        table = model.table(PASTRY_MESSAGE_DESC, MESSAGE)
        assert table["x86->x86"]["MPICH"].available
        assert table["sparc->sparc"]["MPICH"].available
        assert table["sparc->powerpc"]["MPICH"].available  # both 32-bit BE
        assert not table["x86->sparc"]["MPICH"].available
        assert not table["powerpc->x86"]["MPICH"].available
        assert math.isinf(table["x86->sparc"]["MPICH"].total_time)

    def test_lan_times_land_in_the_paper_millisecond_range(self):
        """The paper's LAN GRAS numbers are 2.3-6.3 ms; ours must be low-ms."""
        model = build_lan_model()
        result = model.exchange("GRAS", PASTRY_MESSAGE_DESC, MESSAGE,
                                "x86", "sparc")
        assert 1e-4 < result.total_time < 2e-2

    def test_wan_is_much_slower_than_lan(self):
        """The paper's WAN numbers are ~1 s vs a few ms on the LAN."""
        lan = build_lan_model().exchange("GRAS", PASTRY_MESSAGE_DESC,
                                         MESSAGE, "x86", "x86")
        wan = wan_model().exchange("GRAS", PASTRY_MESSAGE_DESC, MESSAGE,
                                   "x86", "x86")
        assert wan.total_time > 10 * lan.total_time

    def test_wan_ordering_still_holds(self):
        model = wan_model()
        table = model.table(PASTRY_MESSAGE_DESC, MESSAGE,
                            architectures=("x86",))
        row = table["x86->x86"]
        assert row["GRAS"].total_time <= row["OmniORB"].total_time
        assert row["GRAS"].total_time <= row["XML"].total_time

    def test_table_covers_all_nine_pairs_and_five_stacks(self):
        table = build_lan_model().table(PASTRY_MESSAGE_DESC, MESSAGE)
        assert len(table) == 9
        assert all(len(row) == 5 for row in table.values())

    def test_stacks_in_the_paper_column_order(self):
        assert list(STACKS) == ["GRAS", "MPICH", "OmniORB", "PBIO", "XML"]

    def test_loopback_exchange_has_no_transfer_term(self):
        platform = make_star(num_hosts=2)
        model = ExchangeModel(platform, "leaf-0", "leaf-0")
        result = model.exchange("GRAS", PASTRY_MESSAGE_DESC, MESSAGE,
                                "x86", "x86")
        assert result.transfer_time == 0.0

    def test_conversion_times_scale_with_conversion_rate(self, monkeypatch):
        """``CONVERSION_RATE`` sets the encode and decode terms alone."""
        def exchange_once():
            return wan_model().exchange("GRAS", PASTRY_MESSAGE_DESC,
                                        MESSAGE, "x86", "sparc")
        base = exchange_once()
        monkeypatch.setattr(exchange, "CONVERSION_RATE",
                            2 * exchange.CONVERSION_RATE)
        fast = exchange_once()
        assert base.encode_time > 0 and base.decode_time > 0
        assert fast.encode_time == pytest.approx(base.encode_time / 2)
        assert fast.decode_time == pytest.approx(base.decode_time / 2)
        assert fast.transfer_time == base.transfer_time


class TestTablePins:
    """The E2/E3 tables to the bit, not just their orderings."""

    def test_lan_and_wan_cells_are_pinned(self):
        """sha256 over ``(table, pair, stack, wire_bytes, total_time)`` of
        all 90 cells (LAN and WAN x 9 architecture pairs x 5 stacks), the
        floats as ``float.hex``."""
        digest = hashlib.sha256()
        cells = 0
        for label, model in (("lan", build_lan_model()),
                             ("wan", build_wan_model())):
            table = model.table(PASTRY_MESSAGE_DESC, MESSAGE,
                                architectures=ARCHS)
            for pair in sorted(table):
                for name, result in table[pair].items():
                    fields = (label, pair, name, result.wire_bytes.hex(),
                              result.total_time.hex())
                    digest.update(repr(fields).encode() + b"\n")
                    cells += 1
        assert cells == 90
        assert digest.hexdigest() == (
            "0772df7e8b5b6f9b6233dd48b1266b77e2177ea0489448e5a4deaef781b22756")
