"""CardEst quality metrics: Q-Error and the paper's proposed P-Error.

Q-Error (Moerkotte et al.) measures per-(sub-plan-)query relative
error; Section 7 of the paper shows it cannot rank estimators by the
query plans they produce.  P-Error fixes this by costing the plan an
estimator *actually* induces under the true cardinalities:

    P-Error = PPC(P(C_est), C_true) / PPC(P(C_true), C_true)

where ``P(C)`` is the plan the optimizer picks when fed cardinalities
``C`` and ``PPC`` is the cost model's estimate of a plan's cost under
the injected cardinalities — our engine's analog of the PostgreSQL
plan cost the paper computes through ``pg_hint_plan``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.planner import Planner
from repro.engine.plans import PlanNode
from repro.engine.query import Query


def q_error(estimate: float, true_cardinality: float) -> float:
    """max(est/true, true/est), both clamped to >= 1 row.

    **Documented divergence from raw ratios** (verified by the
    differential oracle in :mod:`repro.check`): the engine and the
    SQLite reference both report a *raw* count of 0 for empty results,
    but this metric clamps both operands to one row, so a true
    cardinality of 0 yields ``q_error(est, 0) == max(est, 1)`` rather
    than an infinite/undefined ratio.  This matches the paper's (and
    PostgreSQL's) convention of treating relations as never smaller
    than one row, and keeps percentile aggregates finite.
    """
    estimate = max(float(estimate), 1.0)
    true_cardinality = max(float(true_cardinality), 1.0)
    return max(estimate / true_cardinality, true_cardinality / estimate)


def misestimate(estimate: float, true_cardinality: float) -> tuple[float, str]:
    """:func:`q_error` and its direction: ``under``, ``over`` or ``exact``."""
    estimate = max(float(estimate), 1.0)
    true_cardinality = max(float(true_cardinality), 1.0)
    if estimate == true_cardinality:
        return 1.0, "exact"
    direction = "under" if estimate < true_cardinality else "over"
    return q_error(estimate, true_cardinality), direction


def true_plan_cost(
    planner: Planner,
    query: Query,
    true_cards: dict[frozenset[str], float],
) -> float:
    """``PPC(P(C_true), C_true)``, P-Error's denominator.

    A function of the query and its labels alone, so whoever scores
    many estimators on one labelled query computes it once.
    """
    true_plan = planner.plan(query, true_cards).plan
    return planner.cost_model.plan_cost(true_plan, true_cards)


def p_error(
    planner: Planner,
    query: Query,
    estimated_cards: dict[frozenset[str], float],
    true_cards: dict[frozenset[str], float],
    *,
    estimated_plan: PlanNode | None = None,
    true_cost: float | None = None,
) -> float:
    """P-Error of one query given full sub-plan cardinality maps.

    A caller that already holds ``planner.plan(query,
    estimated_cards).plan`` or :func:`true_plan_cost` passes them in
    place of having them recomputed.
    """
    if estimated_plan is None:
        estimated_plan = planner.plan(query, estimated_cards).plan
    if true_cost is None:
        true_cost = true_plan_cost(planner, query, true_cards)
    cost_of_estimated = planner.cost_model.plan_cost(estimated_plan, true_cards)
    # P-Error >= 1 by construction: the true-cardinality plan is
    # PPC-optimal over the same sub-plan space, so the estimator-induced
    # plan can never genuinely cost less under the true cardinalities.
    # Ratios below 1 are cost-model tie-breaking / floating-point
    # artifacts; left unclamped they skew percentile aggregates.
    return max(cost_of_estimated / max(true_cost, 1e-12), 1.0)


def percentiles(
    values: list[float],
    points: tuple[int, ...] = (50, 90, 99),
) -> dict[int, float]:
    """Selected percentiles of a metric distribution."""
    if not values:
        return {p: float("nan") for p in points}
    array = np.asarray(values, dtype=np.float64)
    return {p: float(np.percentile(array, p)) for p in points}


def rank_correlation(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation between two metric series.

    The Pearson correlation of the two series' ranks, a tie group
    sharing its average rank (``scipy.stats.spearmanr``'s statistic).
    NaN for fewer than three pairs, a constant series or a NaN value.
    Used for the paper's O14: P-Error percentiles correlate with
    execution time far better than Q-Error percentiles do.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 3 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return float("nan")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their mean rank."""
    _, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
    below = np.cumsum(counts) - counts
    return ((below + 1) + (counts - 1) / 2)[codes]
