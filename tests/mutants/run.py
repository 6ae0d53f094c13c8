"""Mutant runner: re-introduce each fixed defect and see which tests kill it.

Run it from the repository root::

    python tests/mutants/run.py
    python tests/mutants/run.py --deselect tests/test_tracing.py

Each entry of :data:`MUTANTS` is ``(file, exact old text, new text,
killing test)``: the patch that brings a defect back, and the regression
test that must fail on it.  The runner copies the tree once to a
temporary directory, so later edits of the checkout do not reach a run in
progress.  For each mutant it copies that copy, applies the patch there
(never in the checkout), runs the killing test, then tier-1 (``pytest
-q``, with every ``--deselect`` passed on), and prints the test files
that fail and how long each step took.

Before anything runs, every old text must occur exactly once in its file,
and every killing test must pass on the unpatched tree; otherwise the
entry is an error and the exit status is 2.  A mutant is killed when its
killing test is reported ``FAILED`` (pytest exit 1) or hangs; any other
failing exit (2 for a patch that breaks collection, 4 or 5 for a test id
that matches nothing) is an error too, since no assertion ran.  The exit
status is 1 when a mutant survives its killing test, and 0 when each one
is killed.  A defect fixed from now on adds its patch here.  This file is
not collected by tier-1: ``pytest.ini`` collects ``test_*.py`` and
``bench_*.py`` only.
"""

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

_S4U_API = "tests/test_s4u_api.py"
_RUN = _S4U_API + "::TestRunContract::"

#: name -> (file, exact old text, new text, killing test).
MUTANTS = {
    # A zone-level connect that neither refuses a realized platform nor
    # drops the memoized routes.
    "stale-zone-routes": (
        "src/repro/platform/routing.py",
        "        platform._change_topology()\n"
        "        self._check_vertex(vertex_a)\n",
        "        self._check_vertex(vertex_a)\n",
        "tests/test_routing_zones.py::TestRouteCaches::"
        "test_zone_connect_invalidates_cached_routes"),
    # A deadlocked run next to a periodic availability trace runs on.
    "periodic-trace-hang": (
        "src/repro/s4u/engine.py",
        "                and (math.isinf(self.surf.next_trace_event_date())\n"
        "                     or not self.surf.has_pending_state_events())):\n",
        "                and math.isinf(self.surf.next_trace_event_date())):\n",
        _RUN + "test_a_periodic_trace_does_not_outlive_a_deadlock"),
    # A suspended action counts as running, so nothing ever deadlocks.
    "suspended-action-hang": (
        "src/repro/surf/engine.py",
        "                    if not action._suspended:\n"
        "                        return True\n",
        "                    return True\n",
        _RUN + "test_an_exec_suspended_by_a_peer_that_ends_deadlocks_the_run"),
    # Cancelling a transfer does nothing.
    "noop-comm-cancel": (
        "src/repro/s4u/activity.py",
        "        self.mailbox._engine._abort_activity("
        "self, ActivityState.CANCELLED)\n",
        "        return None\n",
        _S4U_API + "::TestActivityFutures::test_cancel_wakes_waiter[comm]"),
    # The Gantt scale line is one cell wider than the rows.
    "gantt-scale-overhang": (
        "src/repro/tracing.py",
        "|0{label:>{width - 1}}|",
        "|0{label:>{width}}|",
        "tests/test_tracing.py::TestExports::"
        "test_ascii_gantt_renders_rows_and_marks"),
    # A makespan label too wide for the chart is drawn past its edge.
    "gantt-label-overhang": (
        "src/repro/tracing.py",
        "    label = label if len(label) < width else \"\"\n",
        "",
        "tests/test_tracing.py::TestExports::"
        "test_every_line_of_the_gantt_has_one_width"),
    # A dead actor keeps its suspension and its parked answer.
    "dead-actor-stays-suspended": (
        "src/repro/s4u/engine.py",
        "        actor._suspended = False\n"
        "        actor._parked_resume = None\n",
        "",
        _S4U_API + "::TestActorLifecycle::"
        "test_an_actor_killed_while_suspended_keeps_no_suspension"),
    # Observing the run keeps a deadlocked one going.
    "observer-in-deadlock-rule": (
        "src/repro/s4u/engine.py",
        "                     or not self.surf.has_pending_state_events())):\n",
        "                     or (not self._observers\n"
        "                         and not self.surf.has_pending_state_events()"
        "))):\n",
        "tests/test_observe.py::test_watching_changes_no_outcome"),
}

#: Seconds one pytest run may take before it counts as hung.
PYTEST_TIMEOUT = 1800

#: Not copied: version control, caches and benchmark output.
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                  ".pytest_cache", "*.egg-info")
_FAILED = re.compile(r"^(?:FAILED|ERROR) ([^:\s]+)", re.M)


def check_corpus(tree):
    """Every old text occurs exactly once; returns the errors."""
    errors = []
    for name, (path, old, _new, _test) in MUTANTS.items():
        count = (tree / path).read_text().count(old)
        if count != 1:
            errors.append(f"{name}: old text found {count} times in {path}")
    return errors


def pytest(tree, *args):
    """Run pytest in ``tree``; returns (exit code, output, seconds).

    DeprecationWarnings are not escalated here: reporting a failing
    Hypothesis example imports ``libcst``, whose warning would otherwise
    end the session in INTERNALERROR and hide the other failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", "-W", "ignore::DeprecationWarning",
             *args],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=PYTEST_TIMEOUT)
        code, output = done.returncode, done.stdout + done.stderr
    except subprocess.TimeoutExpired as exc:
        code, output = -1, f"timed out after {exc.timeout} s"
    return code, output, time.perf_counter() - start


def killing_files(output):
    return sorted(set(_FAILED.findall(output)))


def verdict(test, code, output):
    """``"killed"``, ``"survived"`` or ``"error"`` for one run of a
    mutant's killing test."""
    if code == -1 or (code == 1 and re.search(
            rf"^FAILED {re.escape(test)}", output, re.M)):
        return "killed"
    return "survived" if code == 0 else "error"


def run_mutant(pristine, name, deselect):
    """Apply one mutant to a copy of ``pristine`` and report; returns the
    :func:`verdict` of its killing test."""
    path, old, new, test = MUTANTS[name]
    tree = pristine.parent / name
    shutil.copytree(pristine, tree)
    try:
        target = tree / path
        target.write_text(target.read_text().replace(old, new))
        code, output, seconds = pytest(tree, test)
        result = verdict(test, code, output)
        print(f"{name}: {result} ({test}, exit {code}, {seconds:.1f} s)",
              flush=True)
        if result == "error":
            print(output[-500:], flush=True)
        code, output, seconds = pytest(
            tree, *(f"--deselect={item}" for item in deselect))
        files = killing_files(output)
        if code == -1:
            files.append("(tier-1 timed out)")
        print(f"    tier-1 ({seconds:.1f} s): "
              + (", ".join(files) if files else "survived"), flush=True)
    finally:
        shutil.rmtree(tree)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deselect", action="append", default=[],
                        help="test id or file left out of the tier-1 pass "
                             "(repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        pristine = pathlib.Path(scratch) / "pristine"
        shutil.copytree(ROOT, pristine, ignore=_IGNORED)
        shutil.rmtree(pristine / "perfbench" / "out", ignore_errors=True)
        errors = check_corpus(pristine)
        code, output, _ = pytest(
            pristine, *sorted({test for *_, test in MUTANTS.values()}))
        if code != 0:
            errors.append("a killing test fails on the unpatched tree: "
                          + ", ".join(killing_files(output)
                                      or [output[-500:]]))
        for error in errors:
            print(f"error: {error}")
        if errors:
            return 2
        results = [run_mutant(pristine, name, args.deselect)
                   for name in MUTANTS]
    print(f"{results.count('killed')} of {len(MUTANTS)} mutants killed "
          "by their tests")
    if "error" in results:
        return 2
    return 1 if "survived" in results else 0


if __name__ == "__main__":
    sys.exit(main())
