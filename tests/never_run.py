"""Never-run guard: every function under ``src/repro`` is entered by tier-1.

Run it from the repository root::

    PYTHONPATH=src python tests/never_run.py

It runs the tier-1 suite (``pytest -x -q``) with a profile hook installed
on every thread (``sys.setprofile`` + ``threading.setprofile``) that
records each code object entered.  Then it walks every ``def`` under
``src/repro`` and prints ``path::qualname`` for each one whose code object
was never entered.  The exit status is 1 if any function was never
entered or if pytest failed, 0 otherwise.

A function nobody runs is either surface that nobody needs (delete it) or
surface that a paper layer promises and nobody checks (test it: SMPI's
``waitall`` hung on the textbook symmetric exchange until it was run).

Exemptions are mechanical, never by judgement:

* ``__repr__`` and ``__str__`` (debugging aids);
* :data:`FORK_ONLY`, functions that run only in a forked child, where the
  parent's hook cannot see them.

Functions entered only while a test holds its own profile hook (the
call-count tests swap ``sys.setprofile`` for a moment) count as not
entered; the hook is re-installed before every test.  This file is not
collected by tier-1: ``pytest.ini`` collects ``test_*.py`` and
``bench_*.py`` only.
"""

import ast
import contextlib
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPRO = ROOT / "src" / "repro"

#: Functions that only a forked child runs, as ``path::qualname``.
FORK_ONLY = frozenset({"campaign/runner.py::_worker_main"})

#: Method names exempt by name.
EXEMPT_NAMES = frozenset({"__repr__", "__str__"})


def functions(path):
    """Yield ``(qualname, first_line, node)`` for every def in ``path``.

    ``first_line`` is the line a code object reports as
    ``co_firstlineno``: the first decorator's line if there is one.
    """
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                yield qualname, first, child
                yield from walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(), str(path)), "")


def _exemption(name, node):
    """Why ``node`` may stay never entered, or None."""
    if node.name in EXEMPT_NAMES:
        return node.name
    if name in FORK_ONLY:
        return "fork-only"
    return None


def never_entered(entered):
    """Every def whose code object is not in ``entered`` (a set of
    ``(realpath, co_firstlineno, co_name)``), as ``path::qualname``.

    Returns ``(missing, exempt)``: the non-exempt ones, and a count of the
    exempt ones per exemption.
    """
    missing = []
    exempt = {}
    for path in sorted(REPRO.rglob("*.py")):
        real = os.path.realpath(path)
        rel = path.relative_to(REPRO).as_posix()
        for qualname, first, node in functions(path):
            if (real, first, node.name) in entered:
                continue
            name = f"{rel}::{qualname}"
            why = _exemption(name, node)
            if why is None:
                missing.append(name)
            else:
                exempt[why] = exempt.get(why, 0) + 1
    return missing, exempt


def run_tier1(args=("-x", "-q")):
    """Run ``pytest args`` (tier-1 by default) under the profile hook;
    return (exit code, entered)."""
    import pytest

    codes = set()

    class Reinstall:
        """Put the hook back before each test: a profiler (cProfile, a
        call-count test) that ran in an earlier test may have replaced
        or cleared it."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.setprofile(hook)

    # The hook slows the suite about 2.5x; give each test room under the
    # conftest.py hang watchdog.
    os.environ.setdefault("REPRO_TEST_TIMEOUT", "150")
    os.chdir(ROOT)
    with profiled(codes) as hook:
        status = pytest.main([*args, "-p", "no:cacheprovider"],
                             plugins=[Reinstall()])
    return int(status), entered_of(codes)


@contextlib.contextmanager
def profiled(codes):
    """Add every code object entered on any thread inside the block to
    ``codes``; the block gets the hook."""
    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield hook
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def entered_of(codes):
    """``codes`` as the ``(realpath, co_firstlineno, co_name)`` set that
    :func:`never_entered` takes."""
    return {(os.path.realpath(code.co_filename), code.co_firstlineno,
             code.co_name) for code in codes}


def main():
    status, entered = run_tier1()
    missing, exempt = never_entered(entered)
    for name in missing:
        print(f"never run: {name}")
    if status != 0:
        print(f"never_run: pytest exited {status}")
    exempted = ", ".join(f"{count} {why}"
                         for why, count in sorted(exempt.items()))
    print(f"never_run: {len(missing)} function(s) under src/repro never "
          f"entered by tier-1 (exempt and never entered: {exempted})")
    return 1 if (missing or status != 0) else 0


if __name__ == "__main__":
    sys.exit(main())
