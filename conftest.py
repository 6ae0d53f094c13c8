"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (offline environments without a working editable install), and
arms a per-test hang watchdog: a simulation that stops advancing time but
keeps spinning (a zero-delta engine loop, a lost wakeup...) would otherwise
freeze the whole suite.  The watchdog injects a ``TestHangError`` into the
test thread after ``REPRO_TEST_TIMEOUT`` seconds (default 30) and dumps all
thread stacks with :mod:`faulthandler` so the wedge point is visible.
It also fails a passing test that leaves a ``sim-process`` thread (a
thread context's body) alive for ``THREAD_GRACE`` seconds after it
returns: a lost wakeup in the kernel/process handoff shows up in the
test that lost it, not as a daemon thread nobody joins.
"""

import ctypes
import faulthandler
import os
import sys
import threading
import time
import traceback

import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Per-test wall-clock budget in seconds (0 disables the watchdog).
TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "30"))

#: Seconds a test's simulated-process threads get to end after it returns.
THREAD_GRACE = 1.0


class TestHangError(Exception):
    """Raised inside a test that exceeded the per-test wall-clock budget."""


def _arm_watchdog(target_thread_id, timeout, fired, done):
    """Start a timer that asynchronously raises TestHangError in the test."""

    def _fire():
        # A test that finished right at the boundary must not get a stray
        # async exception injected into its teardown (an async exc cannot
        # be revoked once set).  ``done`` is re-checked right before the
        # injection because the stack dump takes a moment; the remaining
        # window is a few bytecodes — best effort by nature.
        if done:
            return
        fired.append(True)
        # sys.__stderr__ bypasses pytest's capture, which would otherwise
        # swallow the dump of a test that never returns.
        err = sys.__stderr__ or sys.stderr
        err.write(f"\n=== repro watchdog: test exceeded {timeout:g}s, "
                  f"dumping all stacks ===\n")
        faulthandler.dump_traceback(file=err)
        err.flush()
        if done:
            return
        # Inject the exception into the (pure-Python) simulation loop.  An
        # async exception only lands in a thread executing bytecode, never
        # in one blocked in C: target the test's main thread (generator-
        # context spins) and every simulated-process thread (thread-context
        # spins — the main thread is then parked in a lock acquire, and
        # the spinning body ends with the error and hands the turn back).
        targets = [target_thread_id]
        targets.extend(t.ident for t in threading.enumerate()
                       if t.name == "sim-process" and t.ident is not None)
        for tid in targets:
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(tid), ctypes.py_object(TestHangError))

    timer = threading.Timer(timeout, _fire)
    timer.daemon = True
    timer.start()
    return timer


def _process_threads():
    return [t for t in threading.enumerate() if t.name == "sim-process"]


def _outliving(before):
    """The ``sim-process`` threads not in ``before`` still alive after
    joining them for up to ``THREAD_GRACE`` seconds in all."""
    deadline = time.monotonic() + THREAD_GRACE
    alive = []
    for thread in _process_threads():
        if thread not in before:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                alive.append(thread)
    return alive


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    before = set(_process_threads())
    if TEST_TIMEOUT <= 0:
        result = yield
    else:
        fired = []
        done = []
        timer = _arm_watchdog(threading.get_ident(), TEST_TIMEOUT, fired,
                              done)
        try:
            result = yield
        finally:
            done.append(True)
            timer.cancel()
            if fired:
                item.add_report_section(
                    "call", "watchdog",
                    f"test killed by the repro hang watchdog after "
                    f"{TEST_TIMEOUT:g}s")
    alive = _outliving(before)
    if alive:
        frames = sys._current_frames()
        pytest.fail("\n".join(
            f"sim-process thread {t.ident} outlived the test by "
            f"{THREAD_GRACE:g}s, at:\n"
            + "".join(traceback.format_stack(frames.get(t.ident)))
            for t in alive), pytrace=False)
    return result
