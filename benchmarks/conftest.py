"""Shared configuration for the benchmark harness.

Every benchmark prints the rows/series of the paper artefact it regenerates
(`-s` shows them); pytest-benchmark additionally records the wall-clock cost
of the simulation itself.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

