"""Tiered Hypothesis settings profiles for property tests.

Tiers, by examples per property:

- ``DETERMINISM``: 500 — the scheduled deep run;
- ``STATE_MACHINE``: 200 — stateful machines;
- ``STANDARD``: 100 — regular property tests;
- ``SLOW``: 50 — properties whose examples run whole simulations;
- ``QUICK``: 20 — tier-1, the default.

The environment variable ``HYPOTHESIS_PROFILE`` picks the tier; a test
opts in by decorating itself with :data:`PROFILE`.  Every tier is
derandomized, so a tier runs the same examples on every machine, and none
has a deadline, since simulated work varies with the example.  No profile
is loaded globally: a test with its own ``@settings`` keeps them.

    HYPOTHESIS_PROFILE=DETERMINISM PYTHONPATH=src python -m pytest -q \\
        tests/test_heartbeat_floor.py
"""

import os

from hypothesis import settings

EXAMPLES = {
    "DETERMINISM": 500,
    "STATE_MACHINE": 200,
    "STANDARD": 100,
    "SLOW": 50,
    "QUICK": 20,
}

for _name, _examples in EXAMPLES.items():
    settings.register_profile(_name, max_examples=_examples,
                              derandomize=True, deadline=None)

#: The settings of the tier ``HYPOTHESIS_PROFILE`` names (``QUICK`` if unset).
PROFILE = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "QUICK"))
