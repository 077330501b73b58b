"""Tests for the UAE hybrid estimator."""

import math

import pytest

from repro.estimators.datad.uae import UAEEstimator


@pytest.fixture(scope="module")
def fitted(stats_db, training_examples):
    estimator = UAEEstimator(
        neurocard_kwargs={"num_samples": 1_000, "epochs": 2, "max_trees": 2},
        uae_q_kwargs={"epochs": 10, "inference_samples": 4},
    )
    estimator.fit(stats_db)
    estimator.fit_queries(training_examples[:400])
    return estimator


class TestBlend:
    def test_estimate_between_components(self, fitted, stats_workload):
        """The log-space blend lies between the two component models."""
        query = stats_workload.queries[0].query
        data_est = max(fitted._data_model.estimate(query), 1.0)
        query_est = max(fitted._query_model.estimate(query), 1.0)
        blended = fitted.estimate(query)
        low, high = sorted((data_est, query_est))
        assert low * 0.99 <= blended <= high * 1.01

    def test_weight_extremes(self, stats_db, stats_workload, training_examples):
        query = stats_workload.queries[0].query
        pure_data = UAEEstimator(
            data_weight=1.0,
            neurocard_kwargs={"num_samples": 500, "epochs": 1, "max_trees": 1},
            uae_q_kwargs={"epochs": 2, "inference_samples": 2},
        )
        pure_data.fit(stats_db)
        pure_data.fit_queries(training_examples[:100])
        assert pure_data.estimate(query) == pytest.approx(
            max(pure_data._data_model.estimate(query), 1.0), rel=1e-6
        )

    def test_size_and_time_aggregate_components(self, fitted):
        assert fitted.model_size_bytes() == (
            fitted._data_model.model_size_bytes()
            + fitted._query_model.model_size_bytes()
        )
        assert fitted.training_seconds == pytest.approx(
            fitted._data_model.training_seconds
            + fitted._query_model.training_seconds
        )

    def test_positive_and_finite(self, fitted, stats_workload):
        for labeled in stats_workload.queries[:5]:
            value = fitted.estimate(labeled.query)
            assert value >= 1.0 and math.isfinite(value)
