"""Graceful-degradation cardinality estimates.

When an estimator raises (or runs out of its deadline) on a sub-plan
query, the benchmark must still hand the planner *some* cardinality for
that sub-plan — losing the whole campaign over one inference failure is
exactly the failure mode this subsystem removes.  The fallback mirrors
what PostgreSQL does when it has no usable statistics: table row counts
scaled by the planner's default selectivity constants.

The constants are PostgreSQL's (``selfuncs.h``):

- ``DEFAULT_EQ_SEL = 0.005`` for equality / IN predicates,
- ``DEFAULT_INEQ_SEL = 1/3`` for one-sided range predicates,
- ``DEFAULT_RANGE_SEL = 0.005`` for two-sided ranges,
- equi-joins use ``DEFAULT_EQ_SEL`` per join edge (the ``1/max(nd)``
  rule with the default ``nd = 200``).

Deterministic, stat-free, and intentionally crude: a query served by
the fallback is still *marked failed* in its :class:`QueryRun`; the
fallback only keeps the plan-inject-execute pipeline moving.
"""

from __future__ import annotations

import math

from repro.engine.database import Database
from repro.engine.predicates import Predicate
from repro.engine.query import Query

DEFAULT_EQ_SEL = 0.005
DEFAULT_INEQ_SEL = 1.0 / 3.0
DEFAULT_RANGE_SEL = 0.005


def default_clause_selectivity(predicate: Predicate) -> float:
    """PostgreSQL's no-stats selectivity for one filter clause."""
    values = predicate.value_set()
    if values is not None:
        return min(1.0, DEFAULT_EQ_SEL * max(1, len(values)))
    low, high = predicate.interval()
    if math.isfinite(low) and math.isfinite(high):
        return DEFAULT_RANGE_SEL
    return DEFAULT_INEQ_SEL


class PostgresDefaultFallback:
    """Stat-free estimator used when the real estimator fails.

    Implements the same ``estimate(query) -> float`` contract as a
    :class:`~repro.estimators.base.CardinalityEstimator`, but needs no
    fitting beyond knowing the database's row counts, so it can never
    itself fail for data-dependent reasons.
    """

    name = "pg-default-fallback"

    def __init__(self, database: Database):
        self._rows = {
            name: float(table.num_rows) for name, table in database.tables.items()
        }

    def estimate(self, query: Query) -> float:
        estimate = 1.0
        for table in sorted(query.tables):
            selectivity = 1.0
            for predicate in query.predicates_on(table):
                selectivity *= default_clause_selectivity(predicate)
            estimate *= self._rows.get(table, 1.0) * selectivity
        for _ in query.join_edges:
            estimate *= DEFAULT_EQ_SEL
        return max(estimate, 1.0)
