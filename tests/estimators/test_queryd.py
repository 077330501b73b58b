"""Per-method tests for the query-driven estimators."""

import numpy as np
import pytest

from repro.core.metrics import q_error
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.queryd import (
    LWNNEstimator,
    LWXGBEstimator,
    MSCNEstimator,
    UAEQEstimator,
)
from repro.estimators.queryd.features import (
    OPERATORS,
    QueryFeaturizer,
    from_log,
    log_cardinality,
)


@pytest.fixture(scope="module")
def featurizer(stats_db):
    return QueryFeaturizer(stats_db)


@pytest.fixture(scope="module")
def sample_query(stats_db):
    edge = stats_db.join_graph.edges_between("users", "posts")[0]
    return Query(
        tables=frozenset({"users", "posts"}),
        join_edges=(edge,),
        predicates=(
            Predicate("users", "Reputation", ">=", 10),
            Predicate("posts", "Score", "between", (0, 20)),
        ),
        name="feat-test",
    )


class TestFeaturizer:
    def test_flat_dimension(self, featurizer):
        expected = (
            featurizer.num_tables + featurizer.num_edges + 3 * featurizer.num_columns
        )
        assert featurizer.flat_dim == expected

    def test_flat_marks_tables_and_edges(self, featurizer, sample_query):
        vector = featurizer.flat_batch([sample_query])[0]
        assert vector[: featurizer.num_tables].sum() == 2
        edge_block = vector[
            featurizer.num_tables : featurizer.num_tables + featurizer.num_edges
        ]
        assert edge_block.sum() == 1

    def test_flat_unfiltered_columns_full_range(self, featurizer, stats_db):
        query = Query(tables=frozenset({"users"}), name="bare")
        vector = featurizer.flat_batch([query])[0]
        offset = featurizer.num_tables + featurizer.num_edges
        for i, _ in enumerate(featurizer.columns):
            assert vector[offset + 3 * i] == 0.0
            assert vector[offset + 3 * i + 2] == 1.0

    def test_flat_deterministic(self, featurizer, sample_query):
        first, second = featurizer.flat_batch([sample_query, sample_query])
        assert np.array_equal(first, second)
        assert np.array_equal(first, featurizer.flat_batch([sample_query])[0])

    def test_sets_shapes(self, featurizer, sample_query):
        sets = featurizer.sets(sample_query)
        assert sets.tables.shape == (2, featurizer.num_tables)
        assert sets.joins.shape == (1, featurizer.num_edges)
        assert sets.predicates.shape == (2, featurizer.predicate_dim)

    def test_sets_empty_predicates_padded(self, featurizer, stats_db):
        query = Query(tables=frozenset({"users"}), name="bare")
        sets = featurizer.sets(query)
        assert sets.predicates.shape[0] == 1
        assert sets.predicates.sum() == 0.0

    def test_operator_one_hot(self, featurizer, sample_query):
        sets = featurizer.sets(sample_query)
        op_block = sets.predicates[:, featurizer.num_columns : featurizer.num_columns + len(OPERATORS)]
        assert (op_block.sum(axis=1) == 1).all()

    def test_intervals_intersected(self, featurizer, stats_db):
        query = Query(
            tables=frozenset({"users"}),
            predicates=(
                Predicate("users", "Reputation", ">=", 10),
                Predicate("users", "Reputation", "<=", 100),
            ),
        )
        intervals = featurizer.query_intervals(query)
        assert intervals[("users", "Reputation")] == (10.0, 100.0)

    def test_log_round_trip(self):
        assert from_log(log_cardinality(12345.0)) == pytest.approx(12345.0, rel=1e-9)
        assert log_cardinality(0) == 0.0

    def test_max_cardinality_clamp(self, featurizer, sample_query, stats_db):
        expected = (
            stats_db.tables["users"].num_rows * stats_db.tables["posts"].num_rows
        )
        assert featurizer.max_cardinality(sample_query) == expected


FACTORIES = [
    lambda: MSCNEstimator(epochs=15),
    lambda: LWNNEstimator(epochs=40),
    lambda: LWXGBEstimator(num_trees=60),
    lambda: UAEQEstimator(epochs=30, inference_samples=8),
]


@pytest.fixture(scope="module", params=FACTORIES, ids=["mscn", "lw-nn", "lw-xgb", "uae-q"])
def trained(request, stats_db, training_examples):
    estimator = request.param().fit(stats_db)
    estimator.fit_queries(training_examples)
    return estimator


class TestQueryDrivenMethods:
    def test_fits_training_distribution(self, trained, training_examples):
        """In-distribution accuracy: median Q-error on the training
        examples themselves must be small."""
        errors = sorted(
            q_error(trained.estimate(q), c) for q, c in training_examples[:300]
        )
        assert errors[len(errors) // 2] < 6.0, trained.name

    def test_workload_shift_hurts(self, trained, training_examples, eval_pairs):
        """Observation O1: accuracy degrades on the differently
        distributed (hand-picked) evaluation workload."""
        train_errors = sorted(
            q_error(trained.estimate(q), c) for q, c in training_examples[:300]
        )
        eval_errors = sorted(q_error(trained.estimate(q), c) for q, c in eval_pairs)
        assert eval_errors[len(eval_errors) // 2] >= train_errors[len(train_errors) // 2] * 0.8

    def test_estimates_clamped_to_plausible_range(self, trained, eval_pairs):
        for query, _ in eval_pairs[:50]:
            estimate = trained.estimate(query)
            assert estimate >= 1.0
            assert np.isfinite(estimate)

    def test_requires_fit_queries(self, stats_db):
        estimator = LWNNEstimator().fit(stats_db)
        with pytest.raises(AssertionError):
            estimator.estimate(Query(tables=frozenset({"users"})))
