"""Workload-shift ablation for the query-driven methods.

The paper's explanation for O1 includes "the well-known workload
shift issue": a query-driven model trained on one workload does not
transfer to a differently distributed one.  This benchmark trains
MSCN on the generated training workload and compares its Q-Error on
(a) held-out queries from the *same* generator and (b) the hand-style
evaluation workload — the shifted target.
"""

import numpy as np
import pytest

from repro.core.metrics import q_error
from repro.estimators.queryd import MSCNEstimator
from repro.workloads.training import build_training_workload, flatten_to_examples


@pytest.fixture(scope="module")
def shift_setup(context):
    database = context.database("stats")
    in_distribution = build_training_workload(
        database,
        num_queries=context.config.training_queries,
        max_cardinality=context.config.max_cardinality,
        cache_dir=context.config.workload_cache_dir,
    )
    examples = flatten_to_examples(in_distribution)
    # Shuffle before splitting: flattening preserves template order, so
    # a positional split would hold out only the heaviest templates.
    order = np.random.default_rng(7).permutation(len(examples))
    examples = [examples[i] for i in order]
    split = int(0.8 * len(examples))
    train, held_out = examples[:split], examples[split:]

    estimator = MSCNEstimator(epochs=context.config.query_model_epochs)
    estimator.fit(database)
    estimator.fit_queries(train)

    shifted = [
        (labeled.query.subquery(subset), count)
        for labeled in context.workload("stats-ceb").queries
        for subset, count in labeled.sub_plan_true_cards.items()
    ]
    return estimator, held_out, shifted


def median_q(estimator, pairs):
    errors = sorted(q_error(estimator.estimate(q), c) for q, c in pairs)
    return errors[len(errors) // 2]


def test_workload_shift_degrades_accuracy(shift_setup):
    estimator, held_out, shifted = shift_setup
    in_dist, out_dist = median_q(estimator, held_out), median_q(estimator, shifted)
    print(
        f"\nWorkload shift (MSCN): held-out same-generator q50 {in_dist:.2f} "
        f"vs evaluation-workload q50 {out_dist:.2f}"
    )
    # The shifted workload must not be *easier* than the training one.
    assert out_dist >= in_dist * 0.8


def test_tail_errors_grow_under_shift(shift_setup):
    estimator, held_out, shifted = shift_setup
    held_tail = np.percentile(
        [q_error(estimator.estimate(q), c) for q, c in held_out], 95
    )
    shifted_tail = np.percentile(
        [q_error(estimator.estimate(q), c) for q, c in shifted], 95
    )
    print(f"\np95 Q-Error: held-out {held_tail:.1f} vs shifted {shifted_tail:.1f}")
    assert shifted_tail >= held_tail * 0.5  # directional, noise-tolerant
