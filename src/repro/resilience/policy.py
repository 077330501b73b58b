"""Deadline policy for benchmark campaigns and serving requests.

The paper's end-to-end evaluation runs hundreds of (estimator, query)
pairs per campaign; at that scale run management — not estimator code —
dominates reliability.  This module holds the deadlines the benchmark
driver and the estimation service thread through inference, planning
and execution:

- :class:`TimeoutPolicy` — the per-execution, per-query and
  per-campaign deadlines; the benchmark takes every deadline, the
  execution timeout included, from this one object.
- :class:`Deadline` — one wall-clock instant with remaining-budget
  arithmetic.

Nothing is retried: every call these deadlines bound (estimation,
planning, execution) is deterministic, so a second attempt could only
fail the same way.  A failure is isolated to its query or request
instead, and a failed estimate is served by the fallback.

``TimeoutPolicy`` is a frozen dataclass so it can be shared across
forked worker processes without synchronization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


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

