"""Declarative retry and timeout policies for benchmark campaigns.

The paper's end-to-end evaluation runs hundreds of (estimator, query)
pairs per campaign; at that scale run management — not estimator code —
dominates reliability.  This module provides the two policy objects the
benchmark driver threads through inference, planning and execution:

- :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic jitter.  ``None`` everywhere means "one attempt, no
  retry", which keeps no-fault runs byte-identical to the historical
  behaviour.
- :class:`TimeoutPolicy` — the per-execution, per-query and
  per-campaign deadlines; the benchmark takes every deadline, the
  execution timeout included, from this one object.

Both are frozen dataclasses so they can be shared across forked worker
processes without synchronization.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.obs import events as obs_events
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retrying entirely.  Backoff before attempt ``k`` (k >= 2) is
    ``backoff_seconds * multiplier**(k - 2)`` capped at
    ``max_backoff_seconds``, then jittered by up to
    ``jitter_fraction`` of itself.  Jitter is drawn from a
    ``random.Random(seed)`` stream created per retried call, so runs
    are reproducible.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_for(self, attempt: int, rng: random.Random | None = None) -> float:
        """Sleep before retry ``attempt`` (2-based; attempt 1 never sleeps)."""
        if attempt <= 1:
            return 0.0
        base = self.backoff_seconds * self.backoff_multiplier ** (attempt - 2)
        base = min(base, self.max_backoff_seconds)
        if rng is not None and self.jitter_fraction > 0:
            base += base * self.jitter_fraction * rng.random()
        return base

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Single attempt — the historical (pre-resilience) behaviour."""
        return cls(max_attempts=1)


@dataclass(frozen=True)
class TimeoutPolicy:
    """Deadlines at the three campaign granularities.

    - ``execution_seconds`` — wall-clock budget of one plan execution
      (the executor's abort deadline).
    - ``per_query_seconds`` — budget for one (estimator, query) pair
      across inference + planning + execution.  Inference checks it
      cooperatively between sub-plan estimates; the execution deadline
      shrinks to whatever budget remains.
    - ``campaign_seconds`` — budget for a whole ``run()``; queries that
      cannot start before it expires are recorded as ``failed`` (never
      silently dropped), so the result set stays complete.

    ``None`` disables the corresponding deadline.
    """

    execution_seconds: float | None = 120.0
    per_query_seconds: float | None = None
    campaign_seconds: float | None = None


class Deadline:
    """A wall-clock deadline with remaining-budget arithmetic."""

    __slots__ = ("_at",)

    def __init__(self, at: float | None):
        self._at = at

    @classmethod
    def after(cls, seconds: float | None, clock=time.perf_counter) -> "Deadline":
        return cls(None if seconds is None else clock() + seconds)

    @classmethod
    def unbounded(cls) -> "Deadline":
        return cls(None)

    @classmethod
    def earliest(cls, *deadlines: "Deadline | None") -> "Deadline":
        """The tightest of several deadlines (``None`` entries ignored)."""
        instants = [d._at for d in deadlines if d is not None and d._at is not None]
        return cls(min(instants)) if instants else cls(None)

    @property
    def expired(self) -> bool:
        return self._at is not None and time.perf_counter() >= self._at

    def remaining(self) -> float | None:
        """Seconds left (>= 0), or ``None`` for an unbounded deadline."""
        if self._at is None:
            return None
        return max(0.0, self._at - time.perf_counter())

    def tightest(self, seconds: float | None) -> float | None:
        """Combine with a static budget: the smaller of the two, or None."""
        remaining = self.remaining()
        if remaining is None:
            return seconds
        if seconds is None:
            return remaining
        return min(seconds, remaining)


def call_with_retry(
    fn,
    policy: RetryPolicy | None,
    *,
    non_retryable: tuple[type[BaseException], ...] = (),
    deadline: Deadline | None = None,
    sleep=time.sleep,
    on_retry=None,
):
    """Run ``fn()`` under ``policy``; return ``(value, attempts)``.

    Retries on any :class:`Exception` except ``non_retryable`` ones.
    A ``None`` policy means one attempt.  An expired ``deadline`` stops
    further attempts.  When every attempt fails the *last* exception is
    re-raised with an ``attempts`` attribute set, so callers report how
    hard the call was tried.  ``on_retry(attempt, exc)`` is invoked
    before each backoff sleep (metrics hook).

    When a tracer is active, every attempt past the first runs inside a
    child ``retry`` span carrying ``attempt`` and the ``backoff_seconds``
    slept before it, so retried calls stay connected to their query in
    ``repro trace`` output.  The first attempt takes the historical,
    span-free path.
    """
    attempts_allowed = 1 if policy is None else policy.max_attempts
    rng = (
        random.Random(policy.seed)
        if policy is not None and policy.jitter_fraction > 0
        else None
    )
    attempt = 0
    backoff_slept = 0.0
    while True:
        attempt += 1
        try:
            if attempt == 1:
                return fn(), attempt
            with obs_trace.span(
                "retry",
                attempt=attempt,
                backoff_seconds=round(backoff_slept, 6),
            ):
                return fn(), attempt
        except Exception as exc:
            retryable = not isinstance(exc, non_retryable)
            out_of_budget = deadline is not None and deadline.expired
            if not retryable or attempt >= attempts_allowed or out_of_budget:
                exc.attempts = attempt
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            pause = policy.backoff_for(attempt + 1, rng)
            if pause > 0 and deadline is not None:
                budget = deadline.remaining()
                if budget is not None:
                    pause = min(pause, budget)
            obs_events.emit(
                "retry",
                level="warning",
                attempt=attempt + 1,
                backoff_seconds=round(pause, 6),
                error=f"{type(exc).__name__}: {exc}",
            )
            backoff_slept = pause
            if pause > 0:
                sleep(pause)
