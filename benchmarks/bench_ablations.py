"""Ablation benchmarks for the design choices DESIGN.md calls out.

- joint vs independent fan-out expectations in the data-driven join
  decomposition (DESIGN.md §4.3),
- key-bucket resolution of the shared discretizer,
- MADE wildcard skipping (variable skipping) at inference time,
- PessEst sketch resolution.

Each ablation prints its comparison and asserts the direction that
justified the design choice.
"""

import time

import numpy as np
import pytest

from repro.core.metrics import q_error
from repro.estimators.datad import BayesCardEstimator
from repro.estimators.ml.made import MadeModel
from repro.estimators.pessest import PessimisticEstimator


@pytest.fixture(scope="module")
def eval_pairs(context):
    workload = context.workload("stats-ceb")
    pairs = []
    for labeled in workload.queries:
        for subset, count in labeled.sub_plan_true_cards.items():
            if len(subset) >= 3:  # ablations target multi-join behaviour
                pairs.append((labeled.query.subquery(subset), count))
    return pairs


def median_q(estimator, pairs):
    errors = sorted(q_error(estimator.estimate(q), c) for q, c in pairs)
    return errors[len(errors) // 2]


def signed_bias(estimator, pairs):
    logs = [
        np.log(max(estimator.estimate(q), 1.0) / max(c, 1.0)) for q, c in pairs
    ]
    return float(np.mean(logs))


class TestFanoutJointness:
    def test_joint_fanout_removes_underestimation_bias(self, context, eval_pairs):
        database = context.database("stats")
        joint = BayesCardEstimator(joint_fanout=True).fit(database)
        independent = BayesCardEstimator(joint_fanout=False).fit(database)

        joint_bias = signed_bias(joint, eval_pairs)
        independent_bias = signed_bias(independent, eval_pairs)
        print(
            f"\nAblation (fan-out expectations): joint bias {joint_bias:+.2f} "
            f"vs independent bias {independent_bias:+.2f} (log scale)"
        )
        # Correlated fan-outs: the independent variant under-estimates.
        assert independent_bias < joint_bias
        assert abs(joint_bias) < abs(independent_bias) + 0.2


class TestKeyBucketResolution:
    def test_more_buckets_do_not_hurt_accuracy(self, context, eval_pairs):
        database = context.database("stats")
        coarse = BayesCardEstimator(key_buckets=4).fit(database)
        fine = BayesCardEstimator(key_buckets=32).fit(database)

        coarse_q, fine_q = median_q(coarse, eval_pairs), median_q(fine, eval_pairs)
        print(f"\nAblation (key buckets): 4 -> q50 {coarse_q:.2f}, 32 -> q50 {fine_q:.2f}")
        assert fine_q <= coarse_q * 1.3


class TestWildcardSkipping:
    def test_skipping_cuts_inference_latency(self):
        rng = np.random.default_rng(0)
        columns = 16
        data = rng.integers(0, 8, size=(4_000, columns))
        model = MadeModel([8] * columns, hidden_sizes=(32, 32), seed=1)
        model.fit(data, epochs=2)

        constrained = [None] * columns
        cov = np.zeros(8)
        cov[:4] = 1.0
        constrained[2] = cov  # one constrained column

        everything = [cov.copy() for _ in range(columns)]

        started = time.perf_counter()
        model.prob(constrained, num_samples=64)
        skipped = time.perf_counter() - started
        started = time.perf_counter()
        model.prob(everything, num_samples=64)
        full = time.perf_counter() - started
        print(
            f"\nAblation (wildcard skipping): 1 constrained col {skipped * 1000:.1f}ms "
            f"vs all constrained {full * 1000:.1f}ms"
        )
        assert skipped < full


class TestPessEstResolution:
    def test_more_buckets_tighten_bound(self, context, eval_pairs):
        database = context.database("stats")
        coarse = PessimisticEstimator(num_buckets=2).fit(database)
        fine = PessimisticEstimator(num_buckets=64).fit(database)

        pairs = eval_pairs[:150]
        coarse_over = float(np.mean([coarse.estimate(q) / max(c, 1) for q, c in pairs]))
        fine_over = float(np.mean([fine.estimate(q) / max(c, 1) for q, c in pairs]))
        print(
            f"\nAblation (PessEst buckets): 2 -> mean over-estimation {coarse_over:.1f}x, "
            f"64 -> {fine_over:.1f}x"
        )
        assert fine_over <= coarse_over
