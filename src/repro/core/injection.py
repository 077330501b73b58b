"""Sub-plan query space and cardinality injection.

Section 4.2 of the paper: for a query joining tables ``A, B, C`` the
*sub-plan query space* contains the queries on every connected subset
(``A``, ``B``, ``C``, ``A ⋈ B``, ...), each with the filter predicates
that fall inside the subset.  The built-in planner needs a cardinality
for each of them; the benchmark captures the space, asks a CardEst
method for every estimate, and injects the results back — here, as the
``cards`` mapping consumed by :class:`repro.engine.planner.Planner`.

Estimation is **batched**: :func:`price_sub_plans`, the one function
behind the benchmark driver, the serving ``/subplans`` route and
:func:`estimate_sub_plans`, prices the whole sub-plan space with one
:meth:`~repro.estimators.base.CardinalityEstimator.estimate_batch`
call, so vectorised estimators (LW-NN, MSCN, LW-XGB, ...) pay one
forward pass per query instead of one per sub-plan.  Estimates are
clamped to at least one row (PostgreSQL's behaviour), the batch latency
is recorded once on the ``inference`` span, and the
``inference.latency_seconds.<estimator>`` histogram receives one
*amortised* observation per sub-plan so its count keeps meaning
"sub-plans priced" and its total "seconds spent in inference".

Given a ``fallback`` the pass is **failure-isolated**: a failed batch
call (any exception, or a malformed result) and a *bounded* per-query
deadline (a batch call is indivisible, so only a loop can check the
budget between sub-plans) price one sub-plan at a time instead.  Each
``estimator.estimate`` call runs once — estimators are deterministic
per query, so a second attempt could only fail the same way — and a
sub-plan whose estimate fails (or whose deadline has expired) is served
by the fallback instead of aborting the query: the query is *marked
failed* by the caller, but the campaign keeps moving.  The batch path
only ever serves complete, successful passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.query import Query
from repro.engine.subsets import connected_subsets
from repro.estimators.base import CardinalityEstimator, EstimationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.resilience.policy import Deadline


def sub_plan_sets(query: Query) -> list[frozenset[str]]:
    """All connected table subsets of ``query``, smallest first.

    Connectivity is evaluated over the query's own join edges.  The
    result is deterministic (sorted by size, then lexicographically).
    Delegates to the shared, per-shape-memoized
    :mod:`repro.engine.subsets` space, so the planner, the injection
    pass and the true-cardinality service enumerate the subset space
    exactly once per join template.
    """
    return connected_subsets(query)


def sub_plan_queries(query: Query) -> dict[frozenset[str], Query]:
    """The sub-plan query for every connected subset of ``query``."""
    return {subset: query.subquery(subset) for subset in sub_plan_sets(query)}


def record_batch_inference(
    estimator_name: str, batch_size: int, elapsed_seconds: float
) -> None:
    """Feed one batched inference call into the campaign metrics.

    Keeps the pre-batching metric contract intact: the
    ``injection.sub_plans_estimated`` counter advances by the batch
    size and ``inference.latency_seconds.<estimator>`` receives one
    amortised observation per sub-plan (count == sub-plans priced,
    total == wall seconds spent).  The batch itself is recorded in
    ``inference.batch_size.<estimator>`` so dashboards can tell a
    100-sub-plan batch from 100 singleton calls.
    """
    if batch_size <= 0:
        return
    registry = obs_metrics.registry()
    amortised = elapsed_seconds / batch_size
    histogram = registry.histogram(f"inference.latency_seconds.{estimator_name}")
    for _ in range(batch_size):
        histogram.observe(amortised)
    registry.histogram(f"inference.batch_size.{estimator_name}").observe(
        float(batch_size)
    )
    registry.counter("injection.sub_plans_estimated").inc(batch_size)


@dataclass
class InferenceOutcome:
    """Result of pricing one query's sub-plan space."""

    #: per-sub-plan cardinalities (clamped to >= 1), fallbacks included.
    cards: dict[frozenset[str], float] = field(default_factory=dict)
    #: sub-plans whose estimator call failed, with the error text.
    failures: dict[frozenset[str], str] = field(default_factory=dict)
    #: sub-plans skipped because the per-query deadline expired.
    deadline_skipped: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.failures) or self.deadline_skipped > 0

    @property
    def fallback_count(self) -> int:
        """Sub-plans served by the fallback (failed + deadline-skipped)."""
        return len(self.failures) + self.deadline_skipped

    def error_summary(self) -> str | None:
        """Human-readable first error (plus a count when there are more)."""
        parts = []
        if self.failures:
            subset, error = next(iter(self.failures.items()))
            label = "+".join(sorted(subset))
            parts.append(f"inference failed on {label}: {error}")
            if len(self.failures) > 1:
                parts.append(f"(+{len(self.failures) - 1} more sub-plans)")
        if self.deadline_skipped:
            parts.append(
                f"{self.deadline_skipped} sub-plan estimates skipped: "
                "per-query deadline exceeded"
            )
        return " ".join(parts) if parts else None


def clamped_batch(
    estimator_name: str, estimates: list[float], queries: list[Query]
) -> list[float]:
    """``estimates`` of ``queries`` clamped to at least one row.

    Raises :class:`~repro.estimators.base.EstimationError` unless the
    batch holds exactly one estimate per query.
    """
    if len(estimates) != len(queries):
        raise EstimationError(
            f"{estimator_name}.estimate_batch returned "
            f"{len(estimates)} estimates for {len(queries)} queries"
        )
    return [max(1.0, float(estimate)) for estimate in estimates]


def price_sub_plans(
    estimator: CardinalityEstimator,
    query: Query,
    *,
    fallback=None,
    deadline: Deadline | None = None,
) -> InferenceOutcome:
    """Ask ``estimator`` for the cardinality of every sub-plan of ``query``.

    This is the benchmark's injection step: ``.cards`` of the result is
    handed directly to the planner.  The whole sub-plan space is priced
    with a single ``estimate_batch`` call; estimates are clamped to at
    least one row.

    Without a ``fallback`` any failure propagates to the caller.  With
    one (any object with ``estimate(query) -> float``; see
    :class:`~repro.resilience.fallback.PostgresDefaultFallback`) a
    failed batch call, or a ``deadline`` with a bounded budget, prices
    each sub-plan on its own, once, and serves failed or skipped
    sub-plans from the fallback; ``deadline`` has no effect without it.

    When a tracer is active the pass is wrapped in an ``inference``
    span carrying the batch latency, and the per-sub-plan metrics keep
    their historical meaning (see :func:`record_batch_inference`); with
    tracing off only the estimator calls run.
    """
    sub_queries = sub_plan_queries(query)
    estimator_name = estimator.name
    with obs_trace.span(
        "inference", estimator=estimator_name, sub_plans=len(sub_queries)
    ) as span:
        # A batch call is indivisible, so only the per-sub-plan loop —
        # which checks the deadline between sub-plans — can honour a
        # bounded budget.
        bounded_deadline = (
            fallback is not None
            and deadline is not None
            and deadline.remaining() is not None
        )
        if not bounded_deadline:
            started = time.perf_counter()
            try:
                queries = list(sub_queries.values())
                estimates = clamped_batch(
                    estimator_name, estimator.estimate_batch(queries), queries
                )
                cards = dict(zip(sub_queries, estimates))
            except Exception as exc:
                if fallback is None:
                    raise
                obs_metrics.registry().counter(
                    "resilience.batch_inference_degraded"
                ).inc()
                obs_events.emit(
                    "inference.batch_degraded",
                    level="warning",
                    reason=f"{type(exc).__name__}: {exc}",
                    sub_plans=len(sub_queries),
                )
            else:
                elapsed = time.perf_counter() - started
                if obs_trace.is_active():
                    span.set(batch_seconds=elapsed)
                    record_batch_inference(estimator_name, len(sub_queries), elapsed)
                return InferenceOutcome(cards=cards)
        return _price_one_by_one(
            estimator, estimator_name, sub_queries, fallback, deadline
        )


def _price_one_by_one(
    estimator,
    estimator_name: str,
    sub_queries: dict[frozenset[str], Query],
    fallback,
    deadline: Deadline | None,
) -> InferenceOutcome:
    """The degraded pass: per-sub-plan estimate, deadline check and fallback."""
    outcome = InferenceOutcome()
    registry = obs_metrics.registry()

    def serve_fallback(subset, subquery, reason: str) -> float:
        value = float(fallback.estimate(subquery))
        registry.counter("resilience.fallback_estimates").inc()
        obs_events.emit(
            "inference.fallback", level="warning", tables=sorted(subset), reason=reason
        )
        return value

    histogram = (
        registry.histogram(f"inference.latency_seconds.{estimator_name}")
        if obs_trace.is_active()
        else None
    )
    for subset, subquery in sub_queries.items():
        if deadline is not None and deadline.expired:
            outcome.deadline_skipped += 1
            outcome.cards[subset] = max(
                1.0, serve_fallback(subset, subquery, "per-query deadline exceeded")
            )
            continue
        started = time.perf_counter()
        try:
            value = float(estimator.estimate(subquery))
        except Exception as exc:
            outcome.failures[subset] = f"{type(exc).__name__}: {exc}"
            value = serve_fallback(subset, subquery, outcome.failures[subset])
        if histogram is not None:
            histogram.observe(time.perf_counter() - started)
        outcome.cards[subset] = max(1.0, value)
    if obs_trace.is_active():
        registry.counter("injection.sub_plans_estimated").inc(len(sub_queries))
    return outcome


def estimate_sub_plans(estimator, query: Query) -> dict[frozenset[str], float]:
    """``price_sub_plans(estimator, query).cards``: failures propagate."""
    return price_sub_plans(estimator, query).cards
