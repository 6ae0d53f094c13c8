"""AMOK — the Grid Application Toolbox (paper section "Grid Application Toolbox").

The paper lists the toolbox built on top of GRAS: *"Platform monitoring
(CPU and network)"* and *"Network topology discovery"*.  This package
provides those services as GRAS applications that run, like any GRAS code,
either in simulation or in real-life mode:

* :mod:`repro.amok.bandwidth` — active bandwidth and RTT measurement
  between two GRAS processes;
* :mod:`repro.amok.saturation` — saturate a path to measure interference;
* :mod:`repro.amok.topology` — infer the platform interconnect structure
  from pairwise bandwidth measurements (clustering hosts that share a
  bottleneck).
"""

from repro.amok.bandwidth import BandwidthMeter, MeasurementResult
from repro.amok.saturation import SaturationExperiment
from repro.amok.topology import TopologyInference

__all__ = [
    "BandwidthMeter",
    "MeasurementResult",
    "SaturationExperiment",
    "TopologyInference",
]
