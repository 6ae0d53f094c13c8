#!/usr/bin/env python
"""Experiment E4: the Gantt chart of the paper's client/server application.

The paper shows a Gantt chart for *"an execution of the above code for 2
servers and 3 clients"* on a hub/switch/router/Internet topology: dark
portions are computations, light portions are communications, and the
concurrent client flows visibly interfere because they share links.

This script reproduces that scenario on the canonical s4u API — requests
travel as plain payloads with an explicit ``size``, no task wrappers —
prints the per-host busy/idle summary and renders the chart as ASCII art
(``#`` = computation, ``-`` = communication, ``.`` = idle).

Run with::

    python examples/client_server_gantt.py
"""

from dataclasses import dataclass

from repro import Engine, Recorder
from repro.platform import make_client_server_lan
from repro.tracing import render_ascii_gantt

MFLOP = 1e6
MBYTE = 1e6

PORT_REQUEST = 22
PORT_ACK = 23
REQUESTS_PER_CLIENT = 3


@dataclass
class WorkRequest:
    """One remote-computation request (the paper's "Remote" task)."""

    name: str
    flops: float
    reply_box: str


def client(actor, server_name, client_index):
    """Send requests to its server, compute locally, wait for the ack."""
    engine = actor.engine
    request_box = engine.mailbox(f"{server_name}:{PORT_REQUEST}")
    ack_box = engine.mailbox(f"{actor.host.name}:{PORT_ACK}")
    for round_idx in range(REQUESTS_PER_CLIENT):
        name = f"Remote-c{client_index}-r{round_idx}"
        remote = WorkRequest(name, 30.0 * MFLOP, ack_box.name)
        yield request_box.put(remote, size=3.2 * MBYTE, name=name)
        yield actor.execute(10.50 * MFLOP,
                            name=f"Local-c{client_index}-r{round_idx}")
        yield ack_box.get()


def server(actor, expected_requests):
    """Serve computation requests and acknowledge them."""
    engine = actor.engine
    inbox = engine.mailbox(f"{actor.host.name}:{PORT_REQUEST}")
    for _ in range(expected_requests):
        request = yield inbox.get()
        yield actor.execute(request.flops, name=request.name)
        yield engine.mailbox(request.reply_box).put(
            "ack", size=0.01 * MBYTE, name=f"Ack-{request.name}")


def run(num_clients=3, num_servers=2, verbose=True):
    platform = make_client_server_lan(num_clients=num_clients,
                                      num_servers=num_servers)
    recorder = Recorder()
    engine = Engine(platform, recorder=recorder)

    # each client talks to server (index mod num_servers)
    requests_per_server = [0] * num_servers
    for c in range(num_clients):
        requests_per_server[c % num_servers] += REQUESTS_PER_CLIENT
    for s in range(num_servers):
        engine.add_actor(f"server-{s}", f"server-{s}", server,
                         requests_per_server[s])
    for c in range(num_clients):
        engine.add_actor(f"client-{c}", f"client-{c}", client,
                         f"server-{c % num_servers}", c)

    final_time = engine.run()

    if verbose:
        print(f"Simulated {num_clients} clients / {num_servers} servers, "
              f"makespan = {final_time:.3f} s\n")
        print(render_ascii_gantt(recorder, width=70))
        print("\nPer-host busy time (s):")
        for host, totals in sorted(recorder.summary().items()):
            print(f"  {host:12s} compute={totals['compute']:7.3f}  "
                  f"comm={totals['comm']:7.3f}  idle={totals['idle']:7.3f}")
        print(f"\nOverlapping communication pairs: "
              f"{recorder.overlapping_comms()} "
              "(flows interfere on shared links)")
    return final_time, recorder


if __name__ == "__main__":
    run()
