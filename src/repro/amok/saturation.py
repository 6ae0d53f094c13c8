"""Link saturation experiments (AMOK's ``amok_bw_saturate_*``).

AMOK's saturation module floods a path with traffic while another pair of
processes measures the bandwidth they still obtain — that is how the
original tool detects which measurement pairs *interfere*, i.e. share a
bottleneck.  The simulated version reproduces this on an s4u engine: the
saturating flow and the measured flow run as actors exchanging raw payloads
with explicit sizes, and the drop in measured bandwidth quantifies the
interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.s4u.engine import Engine

__all__ = ["SaturationExperiment", "SaturationResult"]

#: Bytes of the measured probe transfer.
PROBE_BYTES = 10e6
#: Bytes of the saturating flow: far more than the probe, so it lasts
#: the whole saturated measurement.
SATURATION_BYTES = 1e9


@dataclass
class SaturationResult:
    """Bandwidths measured without and with the saturating flow."""

    measured_pair: Tuple[str, str]
    saturating_pair: Tuple[str, str]
    baseline_bandwidth: float
    saturated_bandwidth: float


class SaturationExperiment:
    """Measure how much a saturating flow degrades a measured flow."""

    def _timed_transfer(self, platform_factory, src: str, dst: str,
                        saturate: Optional[Tuple[str, str]] = None) -> float:
        """Simulate one probe transfer; returns its duration."""
        platform = platform_factory()
        engine = Engine(platform)
        finished: Dict[str, float] = {}

        def sender(actor, mailbox, size, label):
            yield engine.mailbox(mailbox).put(label, size=size, name=label)

        def receiver(actor, mailbox):
            start = actor.now
            yield engine.mailbox(mailbox).get()
            finished["duration"] = actor.now - start

        def sink(actor, mailbox):
            yield engine.mailbox(mailbox).get()

        engine.add_actor("probe-send", src, sender, "amok:probe",
                         PROBE_BYTES, "probe")
        engine.add_actor("probe-recv", dst, receiver, "amok:probe")
        if saturate is not None:
            sat_src, sat_dst = saturate
            engine.add_actor("sat-send", sat_src, sender, "amok:sat",
                             SATURATION_BYTES, "saturation", daemon=True)
            engine.add_actor("sat-recv", sat_dst, sink, "amok:sat",
                             daemon=True)
        engine.run()
        return finished.get("duration", float("inf"))

    def run(self, platform_factory, measured_pair: Tuple[str, str],
            saturating_pair: Tuple[str, str]) -> SaturationResult:
        """Run the baseline and the saturated probe on fresh platforms.

        ``platform_factory`` is a zero-argument callable returning a *new*
        :class:`Platform` each time (platforms cannot be realized twice).
        """
        baseline_duration = self._timed_transfer(platform_factory,
                                                 *measured_pair)
        saturated_duration = self._timed_transfer(platform_factory,
                                                  *measured_pair,
                                                  saturate=saturating_pair)
        return SaturationResult(
            measured_pair=measured_pair,
            saturating_pair=saturating_pair,
            baseline_bandwidth=PROBE_BYTES / baseline_duration,
            saturated_bandwidth=PROBE_BYTES / saturated_duration,
        )
