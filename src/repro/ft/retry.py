"""Seeded retry policies: bounded attempts, exponential backoff, jitter.

A :class:`RetryPolicy` wraps any activity-producing callable executed
inside an actor body.  Like :class:`~repro.s4u.failure.FailureInjector`,
it owns a private seeded :class:`random.Random` for its backoff jitter,
so a fixed seed replays bit-identical retry dates — and the RNG pickles
with its full Mersenne state, so a policy restored from an
``engine.snapshot()`` blob continues the exact jitter stream the
never-snapshotted run would have drawn.

Usage, inside a generator actor body::

    policy = RetryPolicy(max_attempts=4, base_delay=0.2, seed=7)

    def body(actor):
        # retry an exec until it survives the churn
        yield from policy.run(lambda: actor.exec_async(1e9))
        # retry a blocking receive (per-call timeouts stay the caller's
        # business for blocking calls; async activities use the policy's
        # per-attempt timeout)
        job = yield from policy.run(lambda: inbox.get(timeout=0.5))

The callable may return an :class:`~repro.s4u.activity.Activity` (async
calls — the policy ``wait()``-s it with ``attempt_timeout``), a blocking
simcall (its result is returned as-is) or a plain value.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple, Type

from repro.exceptions import (
    CancelledError,
    HostFailureError,
    SimGridError,
    SimTimeoutError,
    TransferFailureError,
)
from repro.kernel.simcall import Simcall
from repro.s4u import this_actor
from repro.s4u.activity import Activity

__all__ = ["RetryError", "RetryPolicy", "DEFAULT_RETRY_ON"]

#: The activity failures a policy retries by default: everything the
#: kernel raises when a host/link/peer died or a wait timed out.
DEFAULT_RETRY_ON: Tuple[Type[BaseException], ...] = (
    HostFailureError, TransferFailureError, SimTimeoutError, CancelledError)


class RetryError(SimGridError):
    """Every attempt of a :meth:`RetryPolicy.run` failed; the last
    underlying failure is chained as ``__cause__``."""


class RetryPolicy:
    """Deterministic bounded retry with seeded exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts (first try included); must be >= 1.
    base_delay / factor / max_delay:
        The backoff before attempt ``k+1`` is
        ``min(max_delay, base_delay * factor**(k-1))``, then jittered.
    jitter:
        Relative jitter amplitude in ``[0, 1)``: the delay is scaled by a
        seeded uniform draw from ``[1-jitter, 1+jitter]``.  ``0`` disables
        jitter (and draws nothing from the RNG, keeping seed streams
        comparable across configurations).
    seed:
        Seed of the private RNG; the whole jitter stream is a pure
        function of it.
    attempt_timeout:
        Per-attempt ``wait()`` timeout applied when the factory returned
        an async :class:`Activity`; ``None`` waits forever.

    Only the kernel's failure exceptions (``DEFAULT_RETRY_ON``) trigger a
    retry; anything else propagates immediately.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.1,
                 factor: float = 2.0, max_delay: float = 60.0,
                 jitter: float = 0.5, seed: int = 0,
                 attempt_timeout: Optional[float] = None) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.factor = float(factor)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = seed
        self.attempt_timeout = attempt_timeout
        self._rng = random.Random(seed)
        #: Counters: attempts started, retries performed (= backoffs
        #: slept), calls that exhausted every attempt.
        self.attempts = 0
        self.retries = 0
        self.giveups = 0

    def backoff(self, attempt: int) -> float:
        """The (jittered) delay slept after failed attempt ``attempt``.

        Draws from the policy's seeded RNG when jitter is enabled, so
        calling it advances the deterministic jitter stream.
        """
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        delay = min(self.max_delay,
                    self.base_delay * self.factor ** (attempt - 1))
        if self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def run(self, factory):
        """Drive ``factory`` with retries; use as ``yield from policy.run(f)``.

        ``factory()`` is invoked once per attempt and may return an async
        :class:`Activity` (the policy waits on it with
        ``attempt_timeout``), a blocking simcall (the call's own result
        is returned) or a plain value.  On a ``DEFAULT_RETRY_ON`` failure
        the policy sleeps the seeded backoff and tries again; when the last
        attempt fails, :class:`RetryError` is raised with the final
        failure chained.
        """
        # No failure outlives its ``except`` clause (no ``last``; the
        # backoff sleeps outside it): its traceback holds this frame, so
        # keeping it here would leave a cycle per call that ever failed.
        for attempt in range(1, self.max_attempts + 1):
            self.attempts += 1
            try:
                outcome = factory()
                if isinstance(outcome, Simcall):
                    outcome = yield outcome
                if isinstance(outcome, Activity):
                    outcome = yield outcome.wait(timeout=self.attempt_timeout)
                return outcome
            except DEFAULT_RETRY_ON as exc:
                if attempt == self.max_attempts:
                    self.giveups += 1
                    raise RetryError(
                        f"gave up after {self.max_attempts} attempts: "
                        f"{type(exc).__name__}: {exc}") from exc
            self.retries += 1
            delay = self.backoff(attempt)
            if delay > 0:
                yield this_actor.sleep_for(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"seed={self.seed}, attempts={self.attempts}, "
                f"retries={self.retries}, giveups={self.giveups})")
