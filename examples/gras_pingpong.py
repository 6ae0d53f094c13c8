#!/usr/bin/env python
"""GRAS ping-pong: the same code in simulation mode and in real-world mode.

This is the paper's GRAS listing (client sends a ``ping`` carrying an int,
the server's callback benchmarks a computation and replies with a ``pong``)
run twice with the *same* process functions:

1. inside the simulator, on a two-host platform with simulated architectures
   (an x86 client talking to a SPARC server, exercising the
   receiver-makes-right conversion);
2. for real, over localhost TCP sockets and OS threads.

The simulation charges the server's computation from a record measured
once, before it starts (:func:`benchmark`); in real-world mode the block
simply runs.

Run with::

    python examples/gras_pingpong.py
"""

import functools

from repro.gras import BenchRecorder, RlWorld, SimWorld
from repro.platform import make_star

PORT = 4000


def server_work():
    """Some computation whose duration should be simulated."""
    total = 0
    for i in range(20000):
        total += i * i
    return total


@functools.lru_cache(maxsize=None)
def benchmark():
    """The benchmark phase, run once per process: time ``server_work`` on
    this machine."""
    record = BenchRecorder()
    record.measure("server-work", server_work)
    return record


def ping_callback(proc, source, payload):
    """Server-side callback for 'ping' messages (the paper's listing)."""
    msg = payload
    with proc.bench_always("server-work"):
        server_work()
    # Send data back as payload of the pong message to the ping's source.
    reply_socket = proc.socket_client(source.host, source.port)
    proc.msg_send(reply_socket, "pong", msg)


def server(proc, port=PORT):
    proc.msgtype_declare("ping", "int")
    proc.msgtype_declare("pong", "int")
    proc.cb_register("ping", ping_callback)
    proc.socket_server(port)
    # wait for the next message (up to 600s) and handle it
    proc.msg_handle(600.0)
    proc.exit()


def client(proc, server_host, port=PORT):
    ping, expected_pong = 1234, 1234
    proc.os_sleep(1)  # wait for the server startup
    proc.msgtype_declare("ping", "int")
    proc.msgtype_declare("pong", "int")
    proc.socket_server(port + 1)           # reply endpoint
    peer = proc.socket_client(server_host, port)
    start = proc.os_time()
    proc.msg_send(peer, "ping", ping)
    _, pong = proc.msg_wait(60.0, "pong")
    rtt = proc.os_time() - start
    assert pong == expected_pong, f"bad pong: {pong}"
    print(f"    ping-pong completed: payload={pong}, round-trip={rtt:.6f} s")
    proc.exit()


def run_simulation():
    print("[simulation mode] x86 client <-> sparc server on a simulated LAN")
    platform = make_star(num_hosts=1, center_name="server-host",
                         prefix="client-host",
                         link_bandwidth=12.5e6, link_latency=5e-4)
    world = SimWorld(platform, arch_by_host={"client-host-0": "x86",
                                             "server-host": "sparc"})
    world.bench_record.update(benchmark())
    world.add_process("server", "server-host", server)
    world.add_process("client", "client-host-0", client, "server-host")
    final = world.run()
    print(f"    simulated time: {final:.6f} s")
    return final


def run_real_life():
    print("[real-world mode] the same functions over localhost TCP")
    world = RlWorld()
    world.add_process("server", server, 4200, arch="x86_64")
    world.add_process("client", client, "127.0.0.1", 4200, arch="x86_64")
    world.run(timeout=30.0)
    print("    real-world run completed")


if __name__ == "__main__":
    run_simulation()
    run_real_life()
