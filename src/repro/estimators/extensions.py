"""Future-work estimators from the paper's Section 8.

The paper closes with research directions; two of them are concrete
enough to prototype on this platform:

- **RD2** ("combining different models together to adjust the
  estimation accuracy and inference cost to fit different settings"):
  :class:`AdaptiveEstimator` routes each sub-plan query to a cheap or
  an accurate model based on the number of joined tables — cheap
  estimates where plans are insensitive, accurate ones where they
  matter.

- **RD3** ("optimizing CardEst methods towards the end-to-end
  performance ... fine-tuning the estimation quality on important,
  possibly large, sub-plan queries"):
  :class:`SafeguardedEstimator` combines an accurate but occasionally
  under-estimating model with a never-under-estimating bound
  (PessEst): whenever the model's estimate falls far below the bound's
  implied floor, the estimate is lifted — suppressing exactly the
  catastrophic under-estimations that flip plans to nested loops.
"""

from __future__ import annotations

import math

from repro.engine.database import Database
from repro.engine.query import Query
from repro.engine.table import Table
from repro.estimators.base import CardinalityEstimator
from repro.estimators.datad.bayescard import BayesCardEstimator
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator


class AdaptiveEstimator(CardinalityEstimator):
    """RD2 prototype: route by query complexity.

    Sub-plans up to ``threshold`` tables go to the cheap model (fast
    inference, fine for scan/early-join choices); larger sub-plans go
    to the accurate model whose estimates dominate plan quality (O5).
    """

    name = "Adaptive"

    def __init__(
        self,
        cheap: CardinalityEstimator | None = None,
        accurate: CardinalityEstimator | None = None,
        threshold: int = 2,
    ):
        super().__init__()
        self.cheap = cheap or PostgresEstimator()
        self.accurate = accurate or BayesCardEstimator()
        self._threshold = threshold

    def _fit(self, database: Database) -> None:
        self.cheap.fit(database)
        self.accurate.fit(database)

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Split the batch by route, price each side in one call."""
        cheap_idx = [
            i for i, q in enumerate(queries) if q.num_tables <= self._threshold
        ]
        accurate_idx = [
            i for i, q in enumerate(queries) if q.num_tables > self._threshold
        ]
        estimates: list[float] = [0.0] * len(queries)
        if cheap_idx:
            for i, value in zip(
                cheap_idx, self.cheap.estimate_batch([queries[i] for i in cheap_idx])
            ):
                estimates[i] = value
        if accurate_idx:
            for i, value in zip(
                accurate_idx,
                self.accurate.estimate_batch([queries[i] for i in accurate_idx]),
            ):
                estimates[i] = value
        return estimates

    @property
    def supports_update(self) -> bool:
        return self.cheap.supports_update and self.accurate.supports_update

    def update(self, new_rows: dict[str, Table]) -> None:
        self.cheap.update(new_rows)
        self.accurate.update(new_rows)

    def model_size_bytes(self) -> int:
        return self.cheap.model_size_bytes() + self.accurate.model_size_bytes()


class SafeguardedEstimator(CardinalityEstimator):
    """RD3 prototype: bound-guarded estimation.

    The base model's estimate is kept unless it is more than
    ``tolerance_decades`` orders of magnitude below the pessimistic
    upper bound, in which case it is lifted to
    ``bound / 10^tolerance_decades``.  Because the bound never
    under-estimates, the lift can only correct true large-cardinality
    sub-plans (the ones observation O5 says dominate plan quality) and
    never inflates genuinely small ones beyond the bound itself.
    """

    name = "Safeguarded"

    def __init__(
        self,
        base: CardinalityEstimator | None = None,
        bound: PessimisticEstimator | None = None,
        tolerance_decades: float = 3.0,
    ):
        super().__init__()
        self.base = base or BayesCardEstimator()
        self.bound = bound or PessimisticEstimator()
        self._tolerance = tolerance_decades

    def _fit(self, database: Database) -> None:
        self.base.fit(database)
        self.bound.fit(database)

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """One batched pass through the base model and one through the
        bound, combined with the scalar guard per query."""
        base = self.base.estimate_batch(queries)
        bound = self.bound.estimate_batch(queries)
        guarded = []
        for model_estimate, bound_estimate in zip(base, bound):
            estimate = max(model_estimate, 1.0)
            upper = max(bound_estimate, 1.0)
            floor = upper / (10.0 ** self._tolerance)
            guarded.append(floor if estimate < floor else min(estimate, upper))
        return guarded

    @property
    def supports_update(self) -> bool:
        return self.base.supports_update

    def update(self, new_rows: dict[str, Table]) -> None:
        self.base.update(new_rows)
        self.bound.update(new_rows)

    def model_size_bytes(self) -> int:
        return self.base.model_size_bytes() + self.bound.model_size_bytes()


def guard_decades_for(query: Query) -> float:
    """Heuristic tolerance: deeper joins leave more room for the bound
    to be loose, so the guard relaxes logarithmically with join count."""
    return 2.0 + math.log2(max(query.num_tables, 1))
