"""MSCN: multi-set convolutional network (method 6).

Kipf et al.'s architecture: three two-layer MLP modules embed the
query's table set, join set and predicate set element-wise; each set
is average-pooled, the pooled vectors are concatenated and a final
MLP regresses the log-cardinality.  Implemented with explicit
backpropagation through the average pooling.
"""

from __future__ import annotations

import numpy as np

from repro.engine.database import Database
from repro.engine.query import Query
from repro.estimators.base import QueryDrivenEstimator
from repro.estimators.ml.nn import MLP, AdamOptimizer
from repro.estimators.queryd.features import (
    QueryFeaturizer,
    SetFeatures,
    from_log,
    log_cardinality,
)


class MSCNEstimator(QueryDrivenEstimator):
    """Set-module network with mean pooling."""

    name = "MSCN"

    def __init__(
        self,
        hidden: int = 32,
        epochs: int = 40,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed: int = 13,
    ):
        super().__init__()
        self._hidden = hidden
        self._epochs = epochs
        self._batch_size = batch_size
        self._lr = lr
        self._seed = seed
        self._featurizer: QueryFeaturizer | None = None
        self._modules: dict[str, MLP] = {}
        self._head: MLP | None = None

    def _fit(self, database: Database) -> None:
        self._featurizer = QueryFeaturizer(database)

    def _fit_queries(self, examples: list[tuple[Query, int]]) -> None:
        assert self._featurizer is not None, "fit() must run before fit_queries()"
        rng = np.random.default_rng(self._seed)
        h = self._hidden
        self._modules = {
            "tables": MLP(rng, [self._featurizer.num_tables, h, h]),
            "joins": MLP(rng, [self._featurizer.num_edges, h, h]),
            "predicates": MLP(rng, [self._featurizer.predicate_dim, h, h]),
        }
        self._head = MLP(rng, [3 * h, 2 * h, 1])

        featurized = [self._featurizer.sets(q) for q, _ in examples]
        targets = np.array([log_cardinality(c) for _, c in examples])

        parameters = [
            p for m in self._modules.values() for p in m.parameters
        ] + self._head.parameters
        optimizer = AdamOptimizer(parameters, lr=self._lr)

        n = len(examples)
        for _ in range(self._epochs):
            order = rng.permutation(n)
            for start in range(0, n, self._batch_size):
                batch = order[start : start + self._batch_size]
                self._train_batch(
                    [featurized[i] for i in batch], targets[batch], optimizer
                )

    # -- forward / backward ---------------------------------------------------------

    def _pooled_forward(self, sets: list[SetFeatures]) -> tuple[np.ndarray, dict]:
        """Pooled module outputs for a batch of set features.

        Elements of every query are stacked per module; the context
        records each query's element slice for backprop through the
        mean pooling.
        """
        assert self._head is not None
        context: dict = {"slices": {}, "stacked": {}}
        pooled: dict[str, np.ndarray] = {}
        for key in ("tables", "joins", "predicates"):
            elements = [getattr(s, key) for s in sets]
            lengths = [len(e) for e in elements]
            stacked = np.concatenate(elements, axis=0)
            hidden = self._modules[key].forward(stacked)
            boundaries = np.concatenate([[0], np.cumsum(lengths)])
            pooled_rows = np.stack(
                [
                    hidden[boundaries[i] : boundaries[i + 1]].mean(axis=0)
                    for i in range(len(sets))
                ]
            )
            pooled[key] = pooled_rows
            context["slices"][key] = boundaries
            context["stacked"][key] = len(stacked)
        concatenated = np.concatenate(
            [pooled["tables"], pooled["joins"], pooled["predicates"]], axis=1
        )
        output = self._head.forward(concatenated)
        return output, context

    def _train_batch(
        self,
        sets: list[SetFeatures],
        targets: np.ndarray,
        optimizer: AdamOptimizer,
    ) -> None:
        assert self._head is not None
        output, context = self._pooled_forward(sets)
        error = output[:, 0] - targets
        grad_output = (2.0 * error / len(sets))[:, None]
        grad_concat = self._head.backward(grad_output)

        h = self._hidden
        offsets = {"tables": 0, "joins": h, "predicates": 2 * h}
        for key, module in self._modules.items():
            grad_pooled = grad_concat[:, offsets[key] : offsets[key] + h]
            boundaries = context["slices"][key]
            grad_elements = np.zeros((context["stacked"][key], h))
            for i in range(len(sets)):
                lo, hi = boundaries[i], boundaries[i + 1]
                grad_elements[lo:hi] = grad_pooled[i] / max(hi - lo, 1)
            module.backward(grad_elements)

        gradients = [
            g for m in self._modules.values() for g in m.gradients
        ] + self._head.gradients
        optimizer.step(gradients)

    # -- estimation --------------------------------------------------------------------

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """One padded set-conv pass: every query's sets are stacked per
        module and pooled in a single forward through the network."""
        assert self._featurizer is not None and self._head is not None
        if not queries:
            return []
        output, _ = self._pooled_forward(
            [self._featurizer.sets(query) for query in queries]
        )
        return [
            float(
                np.clip(
                    from_log(float(log)),
                    1.0,
                    self._featurizer.max_cardinality(query),
                )
            )
            for query, log in zip(queries, output[:, 0])
        ]

    def model_size_bytes(self) -> int:
        total = sum(m.nbytes() for m in self._modules.values())
        if self._head is not None:
            total += self._head.nbytes()
        return total
