"""One repetition of one workload, in this (fresh) process.

``run.py`` starts this file as a subprocess — one at a time — and reads
the JSON object it prints as its last line.  Three kinds of repetition:

* ``timed``   — nothing but two ``perf_counter`` reads around set-up and
  around the timed region; the only kind end-to-end metrics come from;
* ``traced``  — the same with :mod:`perfbench.trace` wrappers installed;
* ``counted`` — the timed region under ``cProfile``: Python calls per
  event, total and per layer.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import sys
from time import perf_counter

KINDS = ("timed", "traced", "counted")


def _layer_of(filename: str) -> str:
    """The module under ``src/repro`` a profiled function belongs to."""
    _, marker, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    if not marker:
        return "other"
    if tail in ("surf/lmm.py", "surf/shard.py"):
        return tail[len("surf/"):-len(".py")]
    return tail.split("/")[0]


def run_rep(workload: str, seed: int, scale: float, kind: str,
            flat: bool = False) -> dict:
    start = perf_counter()
    import repro  # noqa: F401  (imported here so that it can be timed)
    from perfbench import workloads
    from perfbench.trace import Tracer
    from repro.campaign import default_campaign_workers
    from repro.surf.shard import default_workers
    import_s = perf_counter() - start

    build = workloads.WORKLOADS[workload]
    options = {"sharded": False} if flat else {}
    tracer = Tracer()
    if kind == "traced":
        tracer.install()
    try:
        start = perf_counter()
        with tracer.span("setup"):
            prepared = build(seed, scale, **options)
        setup_s = perf_counter() - start
        setup_spans = tracer.drain()

        gc.collect()
        profile = cProfile.Profile() if kind == "counted" else None
        if profile is not None:
            profile.enable()
        start = perf_counter()
        with tracer.span("run"):
            final = prepared.run()
        run_s = perf_counter() - start
        if profile is not None:
            profile.disable()
        run_spans = tracer.drain()
    finally:
        tracer.uninstall()

    result = {
        "workload": workload, "seed": seed, "scale": scale, "kind": kind,
        "import_s": import_s, "setup_s": setup_s, "run_s": run_s,
        "events": prepared.events, "final_date": float(final).hex(),
        "broken": prepared.broken(), "counts": prepared.counts(),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # What the pinned environment resolved to: both pools must be off.
        "pools": {"REPRO_PARALLEL": default_workers(),
                  "REPRO_CAMPAIGN_WORKERS": default_campaign_workers()},
    }
    if kind == "traced":
        result["spans"] = {"setup": setup_spans, "run": run_spans}
        result["raw_spans"] = tracer.raw
    if profile is not None:
        stats = pstats.Stats(profile)
        by_layer: dict = {}
        for (filename, _, _), (primitive, *_) in stats.stats.items():
            layer = _layer_of(filename)
            by_layer[layer] = by_layer.get(layer, 0) + primitive
        result["calls"] = {"total": stats.prim_calls, "by_layer": by_layer}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--kind", choices=KINDS, default="timed")
    parser.add_argument("--flat", action="store_true",
                        help="fleet_zoned on the flat kernel (regold only)")
    args = parser.parse_args(argv)
    result = run_rep(args.workload, args.seed, args.scale, args.kind,
                     args.flat)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
