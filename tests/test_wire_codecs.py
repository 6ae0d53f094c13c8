"""Tests for the middleware wire-format comparators (GRAS tables E2/E3)."""

import math

import pytest

from benchmarks.bench_gras_lan import build_lan_model
from repro.gras.arch import ARCHITECTURES
from repro.platform import make_star, make_two_site_grid
from repro.wire import (
    ExchangeModel,
    GrasCodec,
    MpichCodec,
    OmniOrbCodec,
    PASTRY_MESSAGE_DESC,
    PbioCodec,
    XmlCodec,
    all_codecs,
    make_pastry_message,
)
from repro.wire.codec import CodecUnavailableError

X86 = ARCHITECTURES["x86"]
SPARC = ARCHITECTURES["sparc"]
POWERPC = ARCHITECTURES["powerpc"]
MESSAGE = make_pastry_message()


def wan_model():
    platform = make_two_site_grid(hosts_per_site=1, wan_bandwidth=1.25e6,
                                  wan_latency=80e-3)
    return ExchangeModel(platform, "siteA-0", "siteB-0")


class TestPayload:
    def test_pastry_message_is_deterministic(self):
        assert make_pastry_message(seed=3) == make_pastry_message(seed=3)
        assert make_pastry_message(seed=3) != make_pastry_message(seed=4)

    def test_pastry_message_encodes_with_gras_datadesc(self):
        size = PASTRY_MESSAGE_DESC.wire_size(MESSAGE, X86)
        encoded = PASTRY_MESSAGE_DESC.encode(MESSAGE, X86)
        assert len(encoded) == size
        decoded, _ = PASTRY_MESSAGE_DESC.decode(encoded, X86)
        assert decoded["sender"] == MESSAGE["sender"]
        assert len(decoded["routing_table"]) == len(MESSAGE["routing_table"])

    def test_pastry_message_has_nontrivial_size(self):
        size = PASTRY_MESSAGE_DESC.wire_size(MESSAGE, X86)
        assert 2_000 < size < 50_000     # a few KB, like a real Pastry message


class TestCodecSizes:
    def test_xml_is_much_larger_than_binary(self):
        gras = GrasCodec().wire_size(PASTRY_MESSAGE_DESC, MESSAGE, X86, X86)
        xml = XmlCodec().wire_size(PASTRY_MESSAGE_DESC, MESSAGE, X86, X86)
        assert xml > 1.5 * gras

    def test_omniorb_padding_overhead(self):
        gras = GrasCodec().wire_size(PASTRY_MESSAGE_DESC, MESSAGE, X86, X86)
        orb = OmniOrbCodec().wire_size(PASTRY_MESSAGE_DESC, MESSAGE, X86, X86)
        assert orb > gras

    def test_mpich_refuses_heterogeneous_pairs(self):
        codec = MpichCodec()
        assert not codec.supports(X86, SPARC)
        with pytest.raises(CodecUnavailableError):
            codec.wire_size(PASTRY_MESSAGE_DESC, MESSAGE, X86, SPARC)
        assert codec.supports(SPARC, POWERPC)   # both 32-bit big-endian

    def test_pbio_refuses_powerpc(self):
        codec = PbioCodec()
        assert not codec.supports(POWERPC, X86)
        assert codec.supports(SPARC, X86)

    def test_gras_receiver_pays_conversion_only_when_needed(self):
        codec = GrasCodec()
        homo = codec.conversion_operations(PASTRY_MESSAGE_DESC, MESSAGE,
                                           X86, X86)
        hetero = codec.conversion_operations(PASTRY_MESSAGE_DESC, MESSAGE,
                                             SPARC, X86)
        assert homo.receiver_ops < hetero.receiver_ops
        assert homo.sender_ops == hetero.sender_ops


class TestExchangeModel:
    def test_mpich_unavailable_exactly_on_heterogeneous_pairs(self):
        model = build_lan_model()
        table = model.table(PASTRY_MESSAGE_DESC, MESSAGE)
        assert table["x86->x86"]["MPICH"].available
        assert table["sparc->sparc"]["MPICH"].available
        assert not table["x86->sparc"]["MPICH"].available
        assert not table["powerpc->x86"]["MPICH"].available
        assert math.isinf(table["x86->sparc"]["MPICH"].total_time)

    def test_lan_times_land_in_the_paper_millisecond_range(self):
        """The paper's LAN GRAS numbers are 2.3-6.3 ms; ours must be low-ms."""
        model = build_lan_model()
        result = model.exchange(GrasCodec(), PASTRY_MESSAGE_DESC, MESSAGE,
                                "x86", "sparc")
        assert 1e-4 < result.total_time < 2e-2

    def test_wan_is_much_slower_than_lan(self):
        """The paper's WAN numbers are ~1 s vs a few ms on the LAN."""
        lan = build_lan_model().exchange(GrasCodec(), PASTRY_MESSAGE_DESC,
                                         MESSAGE, "x86", "x86")
        wan = wan_model().exchange(GrasCodec(), PASTRY_MESSAGE_DESC, MESSAGE,
                                   "x86", "x86")
        assert wan.total_time > 10 * lan.total_time

    def test_wan_ordering_still_holds(self):
        model = wan_model()
        table = model.table(PASTRY_MESSAGE_DESC, MESSAGE,
                            architectures=("x86",))
        row = table["x86->x86"]
        assert row["GRAS"].total_time <= row["OmniORB"].total_time
        assert row["GRAS"].total_time <= row["XML"].total_time

    def test_table_covers_all_nine_pairs_and_five_codecs(self):
        table = build_lan_model().table(PASTRY_MESSAGE_DESC, MESSAGE)
        assert len(table) == 9
        assert all(len(row) == 5 for row in table.values())

    def test_all_codecs_order(self):
        names = [codec.name for codec in all_codecs()]
        assert names == ["GRAS", "MPICH", "OmniORB", "PBIO", "XML"]

    def test_loopback_exchange_has_no_transfer_term(self):
        platform = make_star(num_hosts=2)
        model = ExchangeModel(platform, "leaf-0", "leaf-0")
        result = model.exchange(GrasCodec(), PASTRY_MESSAGE_DESC, MESSAGE,
                                "x86", "x86")
        assert result.transfer_time == 0.0

    def test_invalid_conversion_rate_rejected(self):
        platform = make_star(num_hosts=2)
        with pytest.raises(ValueError):
            ExchangeModel(platform, "leaf-0", "leaf-1", conversion_rate=0.0)
