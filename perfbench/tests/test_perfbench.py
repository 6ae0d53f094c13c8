"""Self-tests of the benchmark (collected by tier-1; a few seconds in all).

They check the benchmark, not the simulator's speed: tiny-scale goldens,
the declaration in ``BENCHMARK.json``, the tracer's bookkeeping, failure
accounting, ``compare.py`` verdicts and that nothing is left behind.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import compare, rep as rep_module, run
from perfbench.trace import TARGETS
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def declared():
    return run.declaration()


@pytest.fixture(scope="module", autouse=True)
def one_kernel_pass():
    """Steady timings are not what these tests are about."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "KERNEL_PASSES", 1)
        yield


@pytest.fixture(scope="module")
def tiny_reps():
    """One timed repetition of every workload at the self-test scale."""
    reps = run.measure(list(WORKLOADS), 1, run.TEST_SCALE, ["timed"],
                       rounds=1)
    return {name: only for name, (only,) in reps.items()}


def test_declaration_meets_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["perfbench"]
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    runs = 4 + 22 * len(declared["workloads"])
    # Each run overshoots --seconds by its last repetition and start-up.
    assert runs * (declared["run_seconds"] + 5) < 3420
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all("bound" not in m for m in declared["per_layer"])


def test_every_workload_matches_its_tiny_golden(tiny_reps, declared):
    goldens = run.load_goldens()
    for name, rep in tiny_reps.items():
        assert run.golden_key(name, 1, run.TEST_SCALE) in goldens
        section = run.summarize(name, [rep], goldens, declared)
        assert section["failures"] == []
        assert (section["ops_attempted"], section["ops_failed"]) == (1, 0)
        assert rep["pools"] == {"REPRO_PARALLEL": 0,
                                "REPRO_CAMPAIGN_WORKERS": 0}


def test_a_wrong_golden_is_one_failed_operation(tiny_reps, declared):
    rep = dict(tiny_reps["fleet_star"])
    key = run.golden_key("fleet_star", 1, run.TEST_SCALE)
    wrong = dict(run.load_goldens()[key], final_date=(1.0).hex())
    section = run.summarize("fleet_star", [rep], {key: wrong}, declared)
    assert section["ops_failed"] == 1
    assert "final_date" in section["failures"][0]
    assert section["end_to_end"] == {}     # a failed rep gives no timing


def test_a_crash_is_a_failed_operation(declared):
    reps = run.measure(["fleet_star"], 1, 1.0, ["no-such-kind"], rounds=1)
    section = run.summarize("fleet_star", reps["fleet_star"], {}, declared)
    assert (section["ops_attempted"], section["ops_failed"]) == (1, 1)


def test_suite_emits_exactly_the_declared_metrics(tmp_path, declared,
                                                  capsys):
    output = tmp_path / "result.json"
    code = run.main(["--only", "replay_ft", "--scale", str(run.TEST_SCALE),
                     "--reps", "1", "--output", str(output)])
    assert code == 0
    result = json.loads(output.read_text())
    assert list(result)[-1] == "claim" and result["claim"] is None
    section = result["workloads"]["replay_ft"]
    assert section["ops_failed"] == 0
    assert list(section["end_to_end"]) == [
        m["name"] for m in declared["end_to_end"]]
    assert list(section["per_layer"]) == [
        m["name"] for m in declared["per_layer"]]
    # The counted run repeated exactly, so the call counts are counts.
    assert section["per_layer"]["py.calls_per_event"]["exact"]
    assert section["per_layer"]["kernel.timers_fired"]["value"] > 0
    fingerprint = result["fingerprint"]
    assert {"nproc", "python", "platform", "pinned_env", "resolved_pools",
            "loadavg_1min_start", "loadavg_1min_end", "seed", "git_commit",
            "wall_s"} <= set(fingerprint)
    assert fingerprint["resolved_pools"] == {"REPRO_PARALLEL": 0,
                                             "REPRO_CAMPAIGN_WORKERS": 0}
    # Every metric is printed by name with its unit.
    printed = capsys.readouterr().out
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s.*"
                         rf"{re.escape(metric['unit'])}", printed, re.M)
    line = json.loads(run.contract_line(section, 1))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in declared["per_layer"]}


def test_tracer_restores_every_patch_and_self_times_add_up():
    before = [vars(owner)[attribute] for owner, attribute, _ in TARGETS]
    rep = rep_module.run_rep("campaign_fork", 1, run.TEST_SCALE, "traced")
    after = [vars(owner)[attribute] for owner, attribute, _ in TARGETS]
    assert all(a is b for a, b in zip(before, after))
    for phase in ("setup", "run"):
        spans = rep["spans"][phase]
        root = spans[phase]["total_s"]
        assert sum(s["self_s"] for s in spans.values()) == pytest.approx(
            root, rel=0.01)
    assert rep["spans"]["run"]["campaign.restore"]["count"] == 2
    assert rep["raw_spans"][0][0] == "setup"
    assert all(parent is None or parent < index for index, (_, _, _, parent)
               in enumerate(rep["raw_spans"]))


def test_median_interval_narrows_with_repetitions():
    assert run.spread(range(7))["ci_low"] == 0          # 7: min..max
    ten = run.spread(range(10))
    assert (ten["ci_low"], ten["ci_high"]) == (1, 8)     # 10: 2nd..9th
    wide = run.spread(range(30))
    assert (wide["ci_low"], wide["ci_high"]) == (9, 20)
    assert run.spread([3.0])["median"] == 3.0


def test_compare_verdicts():
    def row(median, iqr, better="lower"):
        return {"n": 7, "min": median,
                "q1": median - iqr / 4, "median": median,
                "q3": median + iqr / 4, "max": median,
                "ci_low": median - iqr / 2, "ci_high": median + iqr / 2,
                "unit": "s", "better": better, "bound": 0.1}
    assert compare.verdict(row(1.0, 0.02), row(1.05, 0.02)) == "same"
    assert compare.verdict(row(1.0, 0.02), row(1.2, 0.02)) == "worse"
    assert compare.verdict(row(1.0, 0.02), row(0.8, 0.02)) == "better"
    assert compare.verdict(row(1.0, 0.3), row(1.5, 0.02)) == "unresolved"
    assert compare.verdict(row(100, 2, "higher"),
                           row(80, 2, "higher")) == "worse"

    def document(failed):
        return {"workloads": {"w": {
            "ops_attempted": 7, "ops_failed": failed,
            "end_to_end": {"total_s": row(1.0, 0.02)},
            "per_layer": {"surf.steps": {"value": 5 + failed, "exact": True,
                                         "unit": "count"}}}}}
    rows, moved, more_failures = compare.compare(document(0), document(1))
    assert [r[-1] for r in rows] == ["same"]
    assert moved == [("w", "surf.steps", 5, 6)]
    assert more_failures == [("w", 0, 7, 1, 7)]


def test_exits_nonzero_where_there_is_no_program(tmp_path):
    """The contract: only BENCHMARK.json + perfbench/ means no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.
                    ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_star",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _children():
    """Pids whose parent is this process (running or zombie)."""
    found = set()
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue        # gone since the glob
        if int(fields[1]) == os.getpid():
            found.add(int(stat.split("/")[2]))
    return found


def test_nothing_is_left_behind():
    children, segments = _children(), set(glob.glob("/dev/shm/*"))
    rep = run.spawn_rep("fleet_zoned", 1, run.TEST_SCALE, "traced")
    assert "crash" not in rep
    assert _children() == children
    assert set(glob.glob("/dev/shm/*")) == segments
