"""The TrueCard oracle baseline.

Injects exact cardinalities for every sub-plan query.  With an
accurate cost model this yields the optimal plan, so its end-to-end
time is the target every real estimator is measured against.
"""

from __future__ import annotations

from repro.core.truecards import TrueCardinalityService
from repro.engine.database import Database
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator


class TrueCardEstimator(CardinalityEstimator):
    """Oracle estimator backed by :class:`TrueCardinalityService`.

    When a workload provides pre-computed sub-plan cardinalities (the
    normal case — they are part of workload labelling), lookups are
    instant; otherwise the query is executed exactly once and cached.
    """

    name = "TrueCard"

    def __init__(self, service: TrueCardinalityService | None = None):
        super().__init__()
        self._service = service
        self._known: dict[tuple, int] = {}

    def _fit(self, database: Database) -> None:
        if self._service is None or self._service.database is not database:
            self._service = TrueCardinalityService(database)

    def preload_labeled(self, labeled) -> None:
        """Register the sub-plan cardinalities of a labelled query."""
        for subset, count in labeled.sub_plan_true_cards.items():
            self._known[labeled.query.subquery(subset).key()] = count

    def estimate(self, query: Query) -> float:
        key = query.key()
        if key in self._known:
            return float(self._known[key])
        if self._service is None:
            raise RuntimeError("TrueCardEstimator used before fit()")
        return float(self._service.cardinality(query))

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows) -> None:
        self._known.clear()
        if self._service is not None:
            self._service.invalidate()
