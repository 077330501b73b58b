"""Fault injection for resilience testing.

Deterministic wrappers that make an estimator or executor fail, stall,
flake, or kill its worker process on demand.  They exist so the test
suite can *prove* the fault-tolerance properties the benchmark claims —
failure isolation, fallback estimates, worker-crash requeue, checkpoint
resume — rather than assert them on faith.  Nothing here is random:
faults trigger on query names, call counts, or filesystem markers.
"""

from __future__ import annotations

import os
import time

from repro.engine.database import Database
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator


class InjectedFault(RuntimeError):
    """The error raised by the failing wrappers (recognizable in logs)."""


class EstimatorFaultWrapper(CardinalityEstimator):
    """Delegating base: behaves exactly like the wrapped estimator.

    Keeps the inner estimator's ``name`` so checkpoint keys, metrics
    and reports are unchanged by wrapping.
    """

    def __init__(self, inner: CardinalityEstimator):
        super().__init__()
        self._inner = inner
        self.name = inner.name

    def _fit(self, database: Database) -> None:
        self._inner.fit(database)

    def estimate(self, query: Query) -> float:
        return self._inner.estimate(query)

    def model_size_bytes(self) -> int:
        return self._inner.model_size_bytes()


class FailingEstimator(EstimatorFaultWrapper):
    """Raises :class:`InjectedFault` for selected queries.

    ``fail_queries`` matches ``query.name`` (sub-plan queries inherit
    their parent's name, so one entry fails a whole query's inference);
    ``None`` fails every call.
    """

    def __init__(self, inner: CardinalityEstimator, fail_queries=None):
        super().__init__(inner)
        self._fail_queries = None if fail_queries is None else set(fail_queries)

    def estimate(self, query: Query) -> float:
        if self._fail_queries is None or query.name in self._fail_queries:
            raise InjectedFault(f"injected estimator failure on {query.name!r}")
        return self._inner.estimate(query)


class FlakyEstimator(EstimatorFaultWrapper):
    """Fails the first ``failures`` calls per sub-plan, then succeeds.

    Keyed by the sub-plan's table set, so each sub-plan estimate flakes
    independently: a flake fails the one call it hits, and nothing
    retries it.
    """

    def __init__(self, inner: CardinalityEstimator, failures: int = 1):
        super().__init__(inner)
        self._failures = failures
        self._calls: dict[tuple[str, frozenset[str]], int] = {}

    def estimate(self, query: Query) -> float:
        key = (query.name, frozenset(query.tables))
        seen = self._calls.get(key, 0)
        self._calls[key] = seen + 1
        if seen < self._failures:
            raise InjectedFault(
                f"injected flake {seen + 1}/{self._failures} on {query.name!r}"
            )
        return self._inner.estimate(query)


class SlowEstimator(EstimatorFaultWrapper):
    """Sleeps ``delay_seconds`` before every estimate (deadline tests)."""

    def __init__(self, inner: CardinalityEstimator, delay_seconds: float):
        super().__init__(inner)
        self._delay = delay_seconds

    def estimate(self, query: Query) -> float:
        time.sleep(self._delay)
        return self._inner.estimate(query)


class WorkerKillingEstimator(EstimatorFaultWrapper):
    """Kills the hosting process (``os._exit``) for selected queries.

    With a ``marker_path`` the kill happens only once across processes:
    the first matching call atomically creates the marker, then dies;
    every later call (e.g. the requeued attempt in a fresh worker) sees
    the marker and estimates normally.  Without a marker every matching
    call kills its process — the unrecoverable-crash case.
    """

    def __init__(
        self,
        inner: CardinalityEstimator,
        kill_queries,
        marker_path: str | os.PathLike | None = None,
        exit_code: int = 13,
    ):
        super().__init__(inner)
        self._kill_queries = set(kill_queries)
        self._marker = None if marker_path is None else os.fspath(marker_path)
        self._exit_code = exit_code

    def estimate(self, query: Query) -> float:
        if query.name in self._kill_queries:
            if self._marker is None:
                os._exit(self._exit_code)
            try:
                fd = os.open(self._marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass  # already crashed once; behave normally now
            else:
                os.close(fd)
                os._exit(self._exit_code)
        return self._inner.estimate(query)


class FaultyExecutor:
    """Executor wrapper whose every ``execute`` call raises.

    Drop-in for :class:`repro.engine.executor.Executor` where the
    benchmark only calls ``execute``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def execute(self, plan, collect_stats: bool = False, **kwargs):
        self.calls += 1
        raise InjectedFault(f"injected executor failure (call {self.calls})")
