#!/usr/bin/env python3
"""Compare two perfbench result files: ``compare.py OLD.json NEW.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles and 95 % interval, the ratio NEW/OLD with its base, the metric's
bound and a verdict:

* ``unresolved`` — the 95 % interval of either side's median, as a share
  of that median, is wider than the bound: the runs cannot tell, make more
  repetitions (the quartiles of single repetitions do not narrow with more
  of them; the interval of their median does);
* ``worse`` / ``better`` — NEW's median is worse / better than OLD's by
  more than the bound (a share of OLD's median);
* ``same`` — anything else.

``better`` is not a gain claim — that takes paired runs, see the README.
Exact per-layer counts that differ are listed too: they are functions of
the inputs alone, so a difference is a change of behaviour, not of speed.

Exits 1 on any ``worse`` row or when NEW fails a larger share of its
repetitions than OLD.
"""

from __future__ import annotations

import json
import sys


def verdict(old: dict, new: dict) -> str:
    """Verdict for one metric from its two ``spread`` rows."""
    bound = old["bound"]
    for side in (old, new):
        if (side["ci_high"] - side["ci_low"]) / side["median"] > bound:
            return "unresolved"
    change = (new["median"] - old["median"]) / old["median"]
    if old["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(old: dict, new: dict) -> tuple:
    """``(rows, moved_counts, more_failures)`` for two result documents."""
    rows, moved, more_failures = [], [], []
    for name, old_section in old["workloads"].items():
        new_section = new["workloads"].get(name)
        if new_section is None:
            continue
        for metric, old_row in old_section["end_to_end"].items():
            new_row = new_section["end_to_end"].get(metric)
            if new_row is not None:
                rows.append((name, metric, old_row, new_row,
                             verdict(old_row, new_row)))
        for metric, old_row in old_section["per_layer"].items():
            new_row = new_section["per_layer"].get(metric)
            if (new_row is not None and old_row["exact"] and new_row["exact"]
                    and old_row["value"] != new_row["value"]):
                moved.append((name, metric, old_row["value"],
                              new_row["value"]))
        if (new_section["ops_failed"] * old_section["ops_attempted"]
                > old_section["ops_failed"] * new_section["ops_attempted"]):
            more_failures.append(
                (name, old_section["ops_failed"],
                 old_section["ops_attempted"], new_section["ops_failed"],
                 new_section["ops_attempted"]))
    return rows, moved, more_failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, moved, more_failures = compare(*documents)

    header = "median [q1..q3] (95 % interval) n"
    print(f"{'workload':<14} {'metric':<13} {'OLD ' + header:<48} "
          f"{'NEW ' + header:<48} {'NEW/OLD':<24} {'bound':<6} verdict")
    for name, metric, old, new, outcome in rows:
        def cell(row):
            return (f"{row['median']:.4g} [{row['q1']:.4g}..{row['q3']:.4g}]"
                    f" ({row['ci_low']:.4g}..{row['ci_high']:.4g})"
                    f" {row['n']}")
        ratio = (f"{new['median'] / old['median']:.3f} of "
                 f"{old['median']:.4g} {old['unit']}")
        print(f"{name:<14} {metric:<13} {cell(old):<48} {cell(new):<48} "
              f"{ratio:<24} {old['bound']:<6} {outcome}")
    print(f"\nexact per-layer counts that differ: {len(moved)}")
    for name, metric, before, after in moved:
        print(f"  {name} {metric}: {before} -> {after}")
    for name, old_failed, old_tried, new_failed, new_tried in more_failures:
        print(f"MORE FAILURES on {name}: {old_failed}/{old_tried} -> "
              f"{new_failed}/{new_tried}")
    outcomes = [row[-1] for row in rows]
    print(f"\n{len(rows)} rows: " + ", ".join(
        f"{outcomes.count(kind)} {kind}"
        for kind in ("same", "better", "worse", "unresolved")))
    return 1 if "worse" in outcomes or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
