"""Tests for the Section-8 future-work estimators."""

import pytest

from repro.core.metrics import q_error
from repro.engine.query import Query
from repro.estimators.extensions import (
    AdaptiveEstimator,
    SafeguardedEstimator,
    guard_decades_for,
)
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator


class _ConstantEstimator(PostgresEstimator):
    """A deliberately terrible base model for safeguard tests."""

    name = "Constant"

    def estimate_batch(self, queries):
        return [1.0] * len(queries)


class TestAdaptive:
    def test_routes_by_join_count(self, stats_db, stats_workload):
        adaptive = AdaptiveEstimator(threshold=2).fit(stats_db)
        small = Query(tables=frozenset({"users"}), name="s")
        assert adaptive.estimate(small) == adaptive.cheap.estimate(small)
        heavy = max(stats_workload.queries, key=lambda q: q.query.num_tables).query
        assert adaptive.estimate(heavy) == adaptive.accurate.estimate(heavy)

    def test_update_propagates(self, stats_db):
        adaptive = AdaptiveEstimator().fit(stats_db)
        assert adaptive.supports_update
        adaptive.update({})  # must not raise

    def test_size_is_sum(self, stats_db):
        adaptive = AdaptiveEstimator().fit(stats_db)
        assert adaptive.model_size_bytes() == (
            adaptive.cheap.model_size_bytes() + adaptive.accurate.model_size_bytes()
        )


class TestSafeguarded:
    def test_never_exceeds_bound(self, stats_db, stats_workload):
        guarded = SafeguardedEstimator().fit(stats_db)
        bound = guarded.bound
        for labeled in stats_workload.queries[:10]:
            assert guarded.estimate(labeled.query) <= bound.estimate(labeled.query) * (
                1 + 1e-9
            )

    def test_lifts_catastrophic_underestimates(self, stats_db, stats_workload):
        """RD3's point: guarding a terrible model against the bound
        repairs the large-cardinality sub-plans that matter (O5)."""
        terrible = _ConstantEstimator()
        guarded = SafeguardedEstimator(base=terrible, tolerance_decades=2.0).fit(
            stats_db
        )
        heavy = max(stats_workload.queries, key=lambda q: q.true_cardinality)
        raw_error = q_error(1.0, heavy.true_cardinality)
        guarded_error = q_error(guarded.estimate(heavy.query), heavy.true_cardinality)
        assert guarded_error < raw_error

    def test_keeps_good_estimates(self, stats_db, stats_workload):
        guarded = SafeguardedEstimator(tolerance_decades=6.0).fit(stats_db)
        labeled = stats_workload.queries[0]
        base_estimate = guarded.base.estimate(labeled.query)
        bound_estimate = guarded.bound.estimate(labeled.query)
        if base_estimate >= bound_estimate / 10**6 and base_estimate <= bound_estimate:
            assert guarded.estimate(labeled.query) == pytest.approx(base_estimate)

    def test_guard_decades_grows_with_joins(self):
        assert guard_decades_for(Query(tables=frozenset({"a"}))) < guard_decades_for(
            Query(
                tables=frozenset({"a", "b"}),
                join_edges=(
                    __import__("repro.engine.catalog", fromlist=["JoinEdge"]).JoinEdge(
                        "a", "x", "b", "y"
                    ),
                ),
            )
        )
