"""Experiment E4 — the paper's Gantt chart figure.

*"Gantt chart for an execution of the above code for 2 servers and 3
clients.  Dark portions denote computations, light portions denote
communications.  Concurrent communications interfere with each other as the
TCP flows share network links."*

The harness drives ``examples/client_server_gantt.py`` (30 MFlop / 3.2 MB
requests, 10.5 MFlop local tasks, 10 KB acks, 3 clients and 2 servers on
the hub/switch/router/Internet platform), which prints the Gantt rows, and
asserts the figure's qualitative features, then pins every simulated
total to the bit.
"""

import hashlib

from examples.client_server_gantt import run


def table_digest(summary, makespan, single_makespan):
    """sha256 over each host's compute, comm and idle time and both
    makespans, the floats as ``float.hex``."""
    digest = hashlib.sha256()
    for host, totals in sorted(summary.items()):
        fields = (host, totals["compute"].hex(), totals["comm"].hex(),
                  totals["idle"].hex())
        digest.update(repr(fields).encode() + b"\n")
    fields = ("makespan", makespan.hex(), single_makespan.hex())
    digest.update(repr(fields).encode() + b"\n")
    return digest.hexdigest()


def test_e4_client_server_gantt_chart():
    makespan, recorder = run()
    summary = recorder.summary()
    servers = ("server-0", "server-1")
    clients = ("client-0", "client-1", "client-2")
    # every client and server appears on the chart
    assert set(summary) == {*servers, *clients}
    # dark portions: every server computed; every client computed locally
    assert all(summary[host]["compute"] > 0 for host in servers + clients)
    # light portions dominate (the 3.2 MB transfers cross a slow hub link)
    assert all(totals["comm"] > totals["compute"]
               for totals in summary.values())
    # the figure's headline: concurrent communications interfere
    assert recorder.overlapping_comms() > 0
    # interference check: with a single client (no sharing), each request
    # round is faster than the average round of the contended run
    single_makespan, _ = run(num_clients=1, num_servers=1, verbose=False)
    assert makespan > single_makespan
    # the whole table, to the bit
    assert table_digest(summary, makespan, single_makespan) == (
        "e713f154bd4361a66f59e70bd355d31558a35d0bd0328ad1b31fc0a74db922e5")
