"""LW-XGB: lightweight gradient-boosted-tree regression (method 7).

Same featurization as LW-NN with a from-scratch histogram GBDT (the
XGBoost stand-in) as the regressor.
"""

from __future__ import annotations

import numpy as np

from repro.engine.database import Database
from repro.engine.query import Query
from repro.estimators.base import QueryDrivenEstimator
from repro.estimators.ml.gbdt import GradientBoostedTrees
from repro.estimators.queryd.features import QueryFeaturizer, from_log, log_cardinality


class LWXGBEstimator(QueryDrivenEstimator):
    """Gradient-boosted trees over flat query features."""

    name = "LW-XGB"

    def __init__(
        self,
        num_trees: int = 120,
        learning_rate: float = 0.15,
        max_depth: int = 5,
        use_baseline: bool = True,
    ):
        super().__init__()
        self._num_trees = num_trees
        self._learning_rate = learning_rate
        self._max_depth = max_depth
        #: feed the PostgreSQL baseline's log-estimate as a feature
        #: (Dutt et al.'s "heuristic estimator output" feature).
        self._use_baseline = use_baseline
        self._featurizer: QueryFeaturizer | None = None
        self._model: GradientBoostedTrees | None = None

    def _fit(self, database: Database) -> None:
        baseline = None
        if self._use_baseline:
            from repro.estimators.postgres import PostgresEstimator

            baseline = PostgresEstimator().fit(database)
        self._featurizer = QueryFeaturizer(database, baseline=baseline)

    def _fit_queries(self, examples: list[tuple[Query, int]]) -> None:
        assert self._featurizer is not None, "fit() must run before fit_queries()"
        features = self._featurizer.flat_batch([q for q, _ in examples])
        targets = np.array([log_cardinality(c) for _, c in examples])
        self._model = GradientBoostedTrees(
            num_trees=self._num_trees,
            learning_rate=self._learning_rate,
            max_depth=self._max_depth,
        ).fit(features, targets)

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """One ``GBT.predict`` over the stacked feature matrix — every
        tree routes the whole batch instead of one row at a time."""
        assert self._featurizer is not None and self._model is not None
        if not queries:
            return []
        features = self._featurizer.flat_batch(queries)
        logs = self._model.predict(features)
        return [
            min(
                max(from_log(float(log)), 1.0),
                self._featurizer.max_cardinality(query),
            )
            for query, log in zip(queries, logs)
        ]

    def model_size_bytes(self) -> int:
        return self._model.nbytes() if self._model is not None else 0
