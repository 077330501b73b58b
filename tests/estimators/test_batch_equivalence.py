"""The batch contract, swept over every registered estimator family.

``estimate_batch`` is the one inference path (``estimate(q)`` is a
batch of one unless a family has only a per-query path), and the
injection step and the serving micro-batcher rely on two properties of
it, held here with ``==`` on real STATS-CEB sub-plan queries:

- a sub-plan priced alone gets what the full batch gives it;
- composition: ``estimate_batch(a + b)[len(a):] == estimate_batch(b)``.

MSCN and LW-NN are the two exceptions.  Each dense layer is one matmul
per batch, and BLAS picks its kernel by shape, so a row of a stacked
product can differ from the same row priced alone in the last few ulps
(<= 5.3e-15 relative measured on the quick STATS-CEB pool).  Those two
are held to ``DENSE_MATMUL_RTOL``; DESIGN.md records why their forward
stays a matmul.  Fuzzed-database coverage lives in the ``batch``
invariant of ``repro check``.
"""

from __future__ import annotations

import math

import pytest

from repro.core.injection import sub_plan_queries
from repro.estimators.base import CardinalityEstimator
from repro.estimators.datad import (
    BayesCardEstimator,
    DeepDBEstimator,
    FlatEstimator,
    NeuroCardEstimator,
)
from repro.estimators.extensions import AdaptiveEstimator, SafeguardedEstimator
from repro.estimators.multihist import MultiHistEstimator
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.queryd import (
    LWNNEstimator,
    LWXGBEstimator,
    MSCNEstimator,
    UAEQEstimator,
)
from repro.estimators.unisample import UniSampleEstimator
from repro.estimators.wjsample import WanderJoinEstimator

#: Families whose batch agrees with a batch of one only to the last few
#: ulps (stacked matmul), and the relative tolerance they are held to.
DENSE_MATMUL_FAMILIES = ("MSCN", "LW-NN")
DENSE_MATMUL_RTOL = 1e-12

DATA_DRIVEN_FACTORIES = [
    PostgresEstimator,
    MultiHistEstimator,
    UniSampleEstimator,
    WanderJoinEstimator,
    PessimisticEstimator,
    BayesCardEstimator,
    DeepDBEstimator,
    FlatEstimator,
    lambda: NeuroCardEstimator(num_samples=1_500, epochs=3, max_trees=3),
    lambda: AdaptiveEstimator(
        cheap=PostgresEstimator(), accurate=MultiHistEstimator()
    ),
    lambda: SafeguardedEstimator(
        base=PostgresEstimator(), bound=PessimisticEstimator()
    ),
]

QUERY_DRIVEN_FACTORIES = [
    lambda: MSCNEstimator(epochs=4),
    lambda: LWNNEstimator(epochs=8),
    lambda: LWXGBEstimator(num_trees=25),
    lambda: UAEQEstimator(epochs=8, inference_samples=8),
]


@pytest.fixture(scope="module")
def fitted(stats_db, training_examples):
    """One estimator per registered family, fitted once per module."""
    estimators = [factory().fit(stats_db) for factory in DATA_DRIVEN_FACTORIES]
    for factory in QUERY_DRIVEN_FACTORIES:
        estimator = factory().fit(stats_db)
        estimator.fit_queries(training_examples)
        estimators.append(estimator)
    return estimators


@pytest.fixture(scope="module")
def sub_plan_spaces(stats_workload):
    """Sub-plan query spaces of several STATS-CEB queries."""
    spaces = [
        list(sub_plan_queries(labeled.query).values())
        for labeled in stats_workload.queries[:6]
    ]
    assert sum(len(space) for space in spaces) > 10
    return spaces


@pytest.fixture(scope="module")
def sub_plan_batch(sub_plan_spaces):
    """The sub-plan spaces, flattened into one mixed batch."""
    return [query for space in sub_plan_spaces for query in space]


def _assert_agree(estimator, got, want, what):
    assert len(got) == len(want), (estimator.name, what)
    for index, (a, b) in enumerate(zip(got, want)):
        if estimator.name in DENSE_MATMUL_FAMILIES:
            same = math.isclose(a, b, rel_tol=DENSE_MATMUL_RTOL)
        else:
            same = a == b
        assert same, f"{estimator.name} {what} #{index}: {a!r} != {b!r}"


def test_every_family_covered(fitted):
    names = {e.name for e in fitted}
    assert len(names) == len(fitted)
    assert len(names) == 15


def test_batch_matches_loop(fitted, sub_plan_batch):
    """Each sub-plan priced alone equals its slot of the whole batch."""
    for estimator in fitted:
        looped = [estimator.estimate(q) for q in sub_plan_batch]
        batched = estimator.estimate_batch(list(sub_plan_batch))
        _assert_agree(estimator, looped, batched, "sub-plan alone vs batch")


def test_batch_composition(fitted, sub_plan_spaces, sub_plan_batch):
    """A query's batch behind the others' is priced as on its own."""
    for estimator in fitted:
        composed = estimator.estimate_batch(list(sub_plan_batch))
        offset = 0
        for space in sub_plan_spaces:
            _assert_agree(
                estimator,
                composed[offset : offset + len(space)],
                estimator.estimate_batch(space),
                f"space behind {offset} sub-plans",
            )
            offset += len(space)


def test_empty_batch(fitted):
    for estimator in fitted:
        assert estimator.estimate_batch([]) == [], estimator.name


def test_singleton_batch(fitted, sub_plan_batch):
    """A one-element batch behaves exactly like a scalar call."""
    query = sub_plan_batch[0]
    for estimator in fitted:
        assert estimator.estimate(query) == estimator.estimate_batch([query])[0], (
            estimator.name
        )


def test_batch_order_independence(fitted, sub_plan_batch):
    """Reversing the batch must permute, not perturb, the estimates."""
    queries = list(sub_plan_batch[:8])
    for estimator in fitted:
        forward = estimator.estimate_batch(queries)
        backward = estimator.estimate_batch(list(reversed(queries)))
        _assert_agree(estimator, list(reversed(backward)), forward, "reversed")


class _NothingToFit(CardinalityEstimator):
    def _fit(self, database):
        pass


def test_either_inference_method_defines_the_other(sub_plan_batch):
    class PerQuery(_NothingToFit):
        def estimate(self, query):
            return float(len(query.tables))

    class Batched(_NothingToFit):
        def estimate_batch(self, queries):
            return [float(len(query.tables)) for query in queries]

    queries = sub_plan_batch[:5]
    want = [float(len(query.tables)) for query in queries]
    for estimator in (PerQuery(), Batched()):
        assert estimator.estimate_batch(queries) == want
        assert [estimator.estimate(query) for query in queries] == want


def test_a_class_overriding_neither_method_is_refused():
    """Instantiation fails as for an abstract class, before any
    ``estimate`` call could recurse into ``estimate_batch``."""

    class Neither(_NothingToFit):
        pass

    with pytest.raises(TypeError, match="overrides neither estimate nor estimate_batch"):
        Neither()
