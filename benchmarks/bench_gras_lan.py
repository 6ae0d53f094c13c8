"""Experiment E2 — the paper's LAN table.

*"Average time to exchange one Pastry message on a LAN (in seconds) for
MPICH, OmniORB, PBIO, and XML-based communication, between PowerPC, Sparc,
and x86 architectures"* — with GRAS as the fifth (and fastest) column.

The harness regenerates the full 3x3 architecture matrix over a simulated
100 Mb/s / 50 us LAN and checks the orderings the paper's bar charts show:
GRAS is the fastest stack everywhere, XML the slowest, MPICH is unavailable
across heterogeneous pairs, and every time lands in the millisecond range.
"""

from benchmarks.bench_util import print_table
from repro.platform import make_star
from repro.wire import ExchangeModel, PASTRY_MESSAGE_DESC, make_pastry_message

ARCHS = ("powerpc", "sparc", "x86")
CODE_NAMES = ("GRAS", "MPICH", "OmniORB", "PBIO", "XML")


def build_lan_model():
    platform = make_star(num_hosts=2, link_bandwidth=12.5e6,
                         link_latency=5e-5, name="lan")
    return ExchangeModel(platform, "leaf-0", "leaf-1")


def compute_table():
    model = build_lan_model()
    message = make_pastry_message()
    return model.table(PASTRY_MESSAGE_DESC, message, architectures=ARCHS)


def test_e2_lan_pastry_exchange_table():
    table = compute_table()

    rows = []
    for pair, results in sorted(table.items()):
        cells = []
        for name in CODE_NAMES:
            result = results[name]
            cells.append(f"{result.total_time * 1e3:.2f}ms"
                         if result.available else "n/a")
        rows.append((pair, *cells))
    print_table("E2: LAN Pastry message exchange time", ("pair", *CODE_NAMES),
                rows)

    for pair, results in table.items():
        src, dst = pair.split("->")
        gras = results["GRAS"].total_time
        # GRAS wins every supported comparison (paper: fastest everywhere)
        for name in CODE_NAMES[1:]:
            if results[name].available:
                assert gras <= results[name].total_time, (pair, name)
        # XML is the slowest available stack (paper: 12.8 - 55.7 ms vs 2-6 ms)
        xml = results["XML"].total_time
        assert all(xml >= results[name].total_time
                   for name in CODE_NAMES if results[name].available)
        # MPICH is n/a exactly for heterogeneous byte-order/size pairs
        homogeneous = (src == dst) or {src, dst} <= {"powerpc", "sparc"}
        assert results["MPICH"].available == homogeneous
        # PBIO is n/a whenever PowerPC is involved (as in the paper's table)
        assert results["PBIO"].available == ("powerpc" not in (src, dst))
        # the LAN exchange is millisecond-scale
        assert 1e-4 < gras < 5e-2
