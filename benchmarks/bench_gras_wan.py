"""Experiment E3 — the paper's WAN table.

*"Average time to exchange one Pastry message on a WAN (in seconds) ...
(WAN: California - France)"* — the paper reports the x86 row, with times
around one second instead of milliseconds on the LAN.

The harness uses the two-site grid platform with a transatlantic-like link
(80 ms one-way latency, ~1 MB/s of usable bandwidth for a single short
message exchange) and checks that the WAN/LAN separation and the codec
ordering match the paper.
"""

from benchmarks.bench_gras_lan import ARCHS, CODE_NAMES, build_lan_model
from benchmarks.bench_util import print_table
from repro.platform import make_two_site_grid
from repro.wire import ExchangeModel, PASTRY_MESSAGE_DESC, make_pastry_message


def build_wan_model():
    platform = make_two_site_grid(hosts_per_site=1, lan_bandwidth=12.5e6,
                                  lan_latency=5e-5, wan_bandwidth=1.25e6,
                                  wan_latency=80e-3, name="california-france")
    # conversion rate unchanged; only the network differs from E2
    return ExchangeModel(platform, "siteA-0", "siteB-0")


def compute_tables():
    message = make_pastry_message()
    wan = build_wan_model().table(PASTRY_MESSAGE_DESC, message,
                                  architectures=ARCHS)
    lan = build_lan_model().table(PASTRY_MESSAGE_DESC, message,
                                  architectures=ARCHS)
    return wan, lan


def test_e3_wan_pastry_exchange_table():
    wan, lan = compute_tables()

    rows = []
    for dst in ARCHS:                      # the paper shows the x86 sender row
        pair = f"x86->{dst}"
        results = wan[pair]
        cells = [f"{results[name].total_time * 1e3:.1f}ms"
                 if results[name].available else "n/a"
                 for name in CODE_NAMES]
        rows.append((pair, *cells))
    print_table("E3: WAN (California-France) Pastry message exchange",
                ("pair", *CODE_NAMES), rows)

    for pair, results in wan.items():
        gras_wan = results["GRAS"].total_time
        gras_lan = lan[pair]["GRAS"].total_time
        # The WAN exchange is dominated by latency: well above the LAN time
        # (the paper's WAN numbers are ~1 s vs a few ms on the LAN).
        assert gras_wan > 10 * gras_lan
        assert gras_wan > 50e-3              # at least the one-way latency
        # ordering is preserved on the WAN too
        for name in CODE_NAMES[1:]:
            if results[name].available:
                assert gras_wan <= results[name].total_time
        # latency dominates, so available stacks are within ~4x of each other
        available = [results[name].total_time for name in CODE_NAMES
                     if results[name].available]
        assert max(available) / min(available) < 4.0
