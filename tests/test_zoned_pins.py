"""Flat-kernel pins of the zoned scenarios, to the bit.

``tests/test_sharded_engine.py`` checks the sharded kernel against the
flat one on these scenarios; this file pins the flat event logs on their
own, so the cross-zone churn, trace-dip and same-date-burst coverage
holds with or without a second kernel to compare against.  Each log is
hashed with every float (dates, speeds) written as ``float.hex``.

Every route latency in these platforms is the same double under a plain
left-to-right sum and under ``math.fsum``, so the pins do not depend on
whether the interpreter's float ``sum`` is compensated (it is since 3.12).
"""

import hashlib

import pytest

from zoned_scenarios import (
    run_burst_workload,
    run_churn_workload,
    run_exchange_workload,
    run_modulated_workload,
)


def log_digest(log):
    """sha256 over the log entries, floats as ``float.hex``."""
    digest = hashlib.sha256()
    for entry in log:
        fields = tuple(value.hex() if isinstance(value, float) else value
                       for value in entry)
        digest.update(repr(fields).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("run, entries, pin", [
    (run_exchange_workload, 17,
     "d16a7f2273c6463d6f20bfe94e21a234d7228084a3bbc3fd1263d203ea045553"),
    (run_churn_workload, 26,
     "212e824a4d907d027d7a8c04fd254a8f209587799a068ab049cfb6535695c268"),
    (run_modulated_workload, 43,
     "d56f6ac5930c4ef738b7758a419bd9cd3b5815202cde28d7ffbe651c4a18ef7a"),
], ids=["exchange", "churn", "modulated"])
def test_flat_log_is_pinned(run, entries, pin):
    log, _ = run(sharded=False)
    assert len(log) == entries
    assert log_digest(log) == pin


@pytest.mark.parametrize("num_sites, hosts_per_site, crossing, entries, pin", [
    (2, 3, 1, 13,
     "cb44953d5a6188cb17fd5623afb11a93450a4e24c4662ef0db860b726999d7fc"),
    (3, 4, 2, 28,
     "14cb10c840c517328038d53aa4f00d0c9b4faa2795c61f38dcfcb1cfff5ad59c"),
    (5, 6, 3, 76,
     "8a999fe4a7fb9ae78ad7dc6ca7edf57a04c75829625c6b1be293641fe7d597d6"),
])
def test_flat_burst_log_is_pinned(num_sites, hosts_per_site, crossing,
                                  entries, pin):
    log, _ = run_burst_workload(num_sites, hosts_per_site, crossing,
                                sharded=False)
    dates = [entry[0] for entry in log]
    assert len(set(dates)) < len(dates)   # same-date bursts happened
    assert len(log) == entries
    assert log_digest(log) == pin
