"""UAE-Q: query-driven deep auto-regression (method 9).

The original UAE-Q trains a deep auto-regressive (MADE-style) model
*from queries* via differentiable progressive sampling
(Gumbel-softmax).  Without a differentiable-sampling stack, this
reproduction substitutes the closest numpy equivalent that preserves
the method's observable profile (documented in DESIGN.md): a deep MLP
regressor trained on query supervision, whose inference runs a
Monte-Carlo ensemble of dropout-perturbed forward passes — the numpy
analog of the model's progressive-sampling inference, giving UAE-Q
the high per-estimate latency the paper measures (Table 3's 356-645s
planning times) with query-driven accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.engine.database import Database
from repro.engine.query import Query
from repro.estimators.base import QueryDrivenEstimator, stable_hash
from repro.estimators.ml.nn import MLP, train_regressor
from repro.estimators.queryd.features import QueryFeaturizer, from_log, log_cardinality


class UAEQEstimator(QueryDrivenEstimator):
    """Deep query regressor with Monte-Carlo sampling inference."""

    name = "UAE-Q"

    def __init__(
        self,
        hidden: tuple[int, ...] = (128, 128, 64, 64),
        epochs: int = 50,
        inference_samples: int = 64,
        dropout: float = 0.1,
        use_baseline: bool = True,
        seed: int = 19,
    ):
        super().__init__()
        self._hidden = hidden
        self._epochs = epochs
        self._inference_samples = inference_samples
        self._dropout = dropout
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
        features = np.stack([self._featurizer.flat(q) for q, _ in examples])
        targets = np.array([log_cardinality(c) for _, c in examples])
        self._model = MLP(rng, [self._featurizer.flat_dim, *self._hidden, 1])
        train_regressor(self._model, features, targets, rng, epochs=self._epochs)

    def estimate(self, query: Query) -> float:
        assert self._featurizer is not None and self._model is not None
        rng = np.random.default_rng(self._seed + stable_hash(query.key()) % 65536)
        base = self._featurizer.flat(query)
        # Monte-Carlo ensemble: many forward passes with jittered
        # predicate bounds, averaged in log space (the numpy stand-in
        # for progressive-sampling inference).  Only the interval
        # features are perturbed — the query's structure (table/join
        # one-hots) is certain and must stay intact.
        structural = self._featurizer.num_tables + self._featurizer.num_edges
        # The trailing baseline log-estimate (when present) is not an
        # interval feature and must not be jittered or clipped to [0,1].
        end = len(base) - (1 if self._use_baseline else 0)
        predictions = []
        for _ in range(self._inference_samples):
            perturbed = base.copy()
            jitter = rng.normal(1.0, self._dropout, size=end - structural)
            perturbed[structural:end] = np.clip(
                perturbed[structural:end] * jitter, 0.0, 1.0
            )
            predictions.append(float(self._model.forward(perturbed[None, :])[0, 0]))
        predicted = from_log(float(np.mean(predictions)))
        return float(np.clip(predicted, 1.0, self._featurizer.max_cardinality(query)))

    def model_size_bytes(self) -> int:
        return self._model.nbytes() if self._model is not None else 0
