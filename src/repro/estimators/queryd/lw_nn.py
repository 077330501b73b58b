"""LW-NN: lightweight neural-network regression (method 8).

Dutt et al.'s lightweight models regress query features to
log-selectivities with a small fully connected network; following the
paper's remark, the single-table formulation is extended to joins by
feeding the join structure (table/edge one-hots) into the same
network.
"""

from __future__ import annotations

import numpy as np

from repro.engine.database import Database
from repro.engine.query import Query
from repro.estimators.base import QueryDrivenEstimator
from repro.estimators.ml.nn import MLP, train_regressor
from repro.estimators.queryd.features import QueryFeaturizer, from_log, log_cardinality


class LWNNEstimator(QueryDrivenEstimator):
    """Small MLP over flat query features."""

    name = "LW-NN"

    def __init__(
        self,
        hidden: tuple[int, ...] = (64, 32),
        epochs: int = 60,
        use_baseline: bool = True,
        seed: int = 11,
    ):
        super().__init__()
        self._hidden = hidden
        self._epochs = epochs
        #: feed the PostgreSQL baseline's log-estimate as a feature
        #: (Dutt et al.'s "heuristic estimator output" feature).
        self._use_baseline = use_baseline
        self._seed = seed
        self._featurizer: QueryFeaturizer | None = None
        self._model: MLP | None = None

    def _fit(self, database: Database) -> None:
        baseline = None
        if self._use_baseline:
            from repro.estimators.postgres import PostgresEstimator

            baseline = PostgresEstimator().fit(database)
        self._featurizer = QueryFeaturizer(database, baseline=baseline)

    def _fit_queries(self, examples: list[tuple[Query, int]]) -> None:
        assert self._featurizer is not None, "fit() must run before fit_queries()"
        rng = np.random.default_rng(self._seed)
        features = self._featurizer.flat_batch([q for q, _ in examples])
        targets = np.array([log_cardinality(c) for _, c in examples])
        sizes = [self._featurizer.flat_dim, *self._hidden, 1]
        self._model = MLP(rng, sizes)
        train_regressor(self._model, features, targets, rng, epochs=self._epochs)

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """One stacked forward pass over every query's flat features."""
        assert self._featurizer is not None and self._model is not None
        if not queries:
            return []
        features = self._featurizer.flat_batch(queries)
        logs = self._model.forward(features)[:, 0]
        return [
            min(
                max(from_log(float(log)), 1.0),
                self._featurizer.max_cardinality(query),
            )
            for query, log in zip(queries, logs)
        ]

    def model_size_bytes(self) -> int:
        return self._model.nbytes() if self._model is not None else 0
