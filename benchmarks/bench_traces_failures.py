"""Experiment E8 — trace-driven availability variation and transient failures.

The SURF feature panel shows a timeline with *CPU availability*, *Network
bandwidth* and a *Transient failure* window.  This harness reproduces that
timeline: a long computation and a long transfer run while an availability
trace throttles the CPU, a bandwidth trace throttles the link, and a
transient failure interrupts a host — and checks each consequence against
its closed form: the computation ends at 25 s instead of 20 s, the
transfer at 27.5 s instead of 20 s, and the transfer crossing the failing
host dies with it at 4 s, on both of its sides.
"""

import hashlib

import pytest

from benchmarks.bench_util import print_table
from repro.exceptions import ProcessKilledError, TransferFailureError
from repro.platform import Platform
from repro.s4u import Engine
from repro.surf.trace import Trace


def build_platform(with_traces: bool) -> Platform:
    platform = Platform("volatile" if with_traces else "stable")
    cpu_trace = Trace([(0.0, 1.0), (5.0, 0.5)], period=10.0) if with_traces else None
    bw_trace = Trace([(0.0, 1.0), (10.0, 0.25)], period=20.0) if with_traces else None
    platform.add_host("worker", 1e9, availability_trace=cpu_trace)
    platform.add_host("peer", 1e9)
    platform.add_host("victim", 1e9,
                      state_trace=(Trace([(4.0, 0.0), (9.0, 1.0)])
                                   if with_traces else None))
    platform.add_link("wire", 1e6, 1e-3, bandwidth_trace=bw_trace)
    platform.connect("worker", "peer", "wire")
    platform.add_link("victim-wire", 1e6, 1e-3)
    platform.connect("victim", "peer", "victim-wire")
    return platform


def simulate(with_traces: bool):
    engine = Engine(build_platform(with_traces))
    outcome = {}

    def computer(actor):
        yield actor.execute(20e9)         # 20 s at full speed
        outcome["compute_end"] = actor.now

    def sender(actor):
        yield actor.engine.mailbox("bulk").put("bulk", size=20e6)  # 20 s at 1 MB/s
        outcome["transfer_end"] = actor.now

    def receiver(actor):
        yield actor.engine.mailbox("bulk").get()

    def doomed(actor):
        # The sender lives on the failing host: the engine kills it along
        # with its transfer, and the kill surfaces in the body.
        try:
            yield actor.engine.mailbox("doomed").put("doomed", size=50e6)
            outcome["victim_transfer"] = "completed"
        except ProcessKilledError:
            outcome["victim_transfer"] = ("failed", actor.now)

    def doomed_receiver(actor):
        try:
            yield actor.engine.mailbox("doomed").get()
        except TransferFailureError:
            outcome["receiver_saw"] = ("TransferFailureError", actor.now)

    engine.add_actor("computer", "worker", computer)
    engine.add_actor("sender", "worker", sender)
    engine.add_actor("receiver", "peer", receiver)
    engine.add_actor("doomed", "victim", doomed)
    engine.add_actor("doomed-recv", "peer", doomed_receiver)
    engine.run()
    return outcome


def outcome_digest(stable, volatile):
    """sha256 over ``compute_end``, ``transfer_end`` and the victim's
    failure date of both runs, the floats as ``float.hex``."""
    digest = hashlib.sha256()
    for label, outcome in (("stable", stable), ("volatile", volatile)):
        victim = outcome["victim_transfer"]
        if not isinstance(victim, str):
            victim = (victim[0], victim[1].hex())
        fields = (label, outcome["compute_end"].hex(),
                  outcome["transfer_end"].hex(), victim)
        digest.update(repr(fields).encode() + b"\n")
    return digest.hexdigest()


def test_e8_traces_and_transient_failures():
    stable = simulate(with_traces=False)
    volatile = simulate(True)

    rows = [
        ("20 Gflop computation", f"{stable['compute_end']:.2f}s",
         f"{volatile['compute_end']:.2f}s"),
        ("20 MB transfer", f"{stable['transfer_end']:.2f}s",
         f"{volatile['transfer_end']:.2f}s"),
        ("transfer from the failing host", str(stable["victim_transfer"]),
         str(volatile["victim_transfer"])),
    ]
    print_table("E8: effect of availability traces and transient failures",
                ("activity", "stable platform", "trace-driven platform"),
                rows)

    # Without traces everything runs at full speed.
    assert stable["compute_end"] == pytest.approx(20.0, rel=0.01)
    assert stable["transfer_end"] == pytest.approx(20.0, rel=0.05)
    assert stable["victim_transfer"] == "completed"

    # CPU availability halves every other 5 s window: 7.5 Gflop per 10 s,
    # so 15 Gflop by t=20 s and the last 5 Gflop at full speed -- 25 s,
    # 25 % slower.
    assert volatile["compute_end"] > stable["compute_end"] * 1.2
    assert volatile["compute_end"] == pytest.approx(25.0, abs=0.01)
    # Bandwidth drops to 25% over t=10..20 s: 10 MB ship in the first
    # 10 s, 2.5 MB while throttled, and the last 7.5 MB after the periodic
    # trace restores full speed -- 27.5 s in total.
    assert volatile["transfer_end"] == pytest.approx(27.5, abs=0.01)
    # The transient failure at t=4 s kills the victim's transfer: its
    # sender dies with the host, its receiver is told the transfer failed.
    assert volatile["victim_transfer"][0] == "failed"
    assert volatile["victim_transfer"][1] == pytest.approx(4.0, abs=0.01)
    assert volatile["receiver_saw"] == (
        "TransferFailureError", pytest.approx(4.0, abs=0.01))
    assert "receiver_saw" not in stable
    # Both timelines, to the bit.
    assert outcome_digest(stable, volatile) == (
        "45752366206fa6559da4eacc2ecb4a5bd3a639cd078bfae612809ab593680874")
