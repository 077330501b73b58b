"""Tests for sub-plan space derivation and estimate injection."""

import pytest

from repro.core.injection import (
    estimate_sub_plans,
    price_sub_plans,
    sub_plan_queries,
    sub_plan_sets,
)
from repro.engine.catalog import JoinEdge
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator

E_AB = JoinEdge("a", "id", "b", "a_id")
E_BC = JoinEdge("b", "id", "c", "b_id")
E_BD = JoinEdge("b", "id", "d", "b_id")


def star_query():
    return Query(
        tables=frozenset({"a", "b", "c", "d"}),
        join_edges=(E_AB, E_BC, E_BD),
        predicates=(Predicate("a", "x", "=", 1),),
        name="star",
    )


class TestSubPlanSets:
    def test_paper_example(self):
        """The A join B join C example from Section 4.2."""
        query = Query(tables=frozenset({"a", "b", "c"}), join_edges=(E_AB, E_BC))
        subsets = sub_plan_sets(query)
        assert len(subsets) == 6  # a, b, c, ab, bc, abc (ac disconnected)
        assert frozenset({"a", "c"}) not in subsets

    def test_star_counts(self):
        # Connected subsets of a 3-leaf star: 4 singles, 3 pairs with
        # hub, 3 triples with hub, 1 full = 11.
        assert len(sub_plan_sets(star_query())) == 11

    def test_ordering_smallest_first(self):
        subsets = sub_plan_sets(star_query())
        sizes = [len(s) for s in subsets]
        assert sizes == sorted(sizes)

    def test_single_table(self):
        query = Query(tables=frozenset({"a"}))
        assert sub_plan_sets(query) == [frozenset({"a"})]


class TestSubPlanQueries:
    def test_predicates_follow_tables(self):
        queries = sub_plan_queries(star_query())
        assert len(queries[frozenset({"a", "b"})].predicates) == 1
        assert len(queries[frozenset({"b", "c"})].predicates) == 0

    def test_edges_follow_tables(self):
        queries = sub_plan_queries(star_query())
        assert queries[frozenset({"a", "b", "c"})].join_edges == (E_AB, E_BC)


class _FixedEstimator(CardinalityEstimator):
    def __init__(self, value):
        super().__init__()
        self.value = value
        self.calls = 0

    def _fit(self, database):
        pass

    def estimate(self, query):
        self.calls += 1
        return self.value


class TestEstimateSubPlans:
    def test_one_estimate_per_subset(self):
        estimator = _FixedEstimator(42.0)
        cards = estimate_sub_plans(estimator, star_query())
        assert estimator.calls == 11
        assert set(cards) == set(sub_plan_sets(star_query()))

    def test_estimates_clamped_to_one(self):
        cards = estimate_sub_plans(_FixedEstimator(0.0), star_query())
        assert all(value == 1.0 for value in cards.values())

    def test_negative_estimates_clamped(self):
        cards = estimate_sub_plans(_FixedEstimator(-5.0), star_query())
        assert all(value == 1.0 for value in cards.values())


class _BatchEstimator(_FixedEstimator):
    """Prices by sub-plan size; ``drop`` makes the batch result too short."""

    def __init__(self, drop=0):
        super().__init__(None)
        self.drop = drop

    def estimate(self, query):
        self.calls += 1
        return 10.0 * len(query.tables)

    def estimate_batch(self, queries):
        return [10.0 * len(q.tables) for q in queries][self.drop :]


class _FailingEstimator(CardinalityEstimator):
    def _fit(self, database):
        pass

    def estimate(self, query):
        raise KeyError("unseen column")


class TestPriceSubPlans:
    """One pricing function: fallback decides propagate vs degrade."""

    @pytest.mark.parametrize(
        "estimator", [_FixedEstimator(42.0), _BatchEstimator()], ids=["loop", "batch"]
    )
    def test_fault_free_pass_is_the_same_with_or_without_fallback(self, estimator):
        outcome = price_sub_plans(
            estimator, star_query(), fallback=_FixedEstimator(7.0)
        )
        assert not outcome.failed
        assert outcome.cards == estimate_sub_plans(estimator, star_query())

    def test_failure_propagates_without_a_fallback(self):
        with pytest.raises(KeyError, match="unseen column"):
            price_sub_plans(_FailingEstimator(), star_query())

    def test_failure_is_served_by_the_fallback(self):
        outcome = price_sub_plans(
            _FailingEstimator(), star_query(), fallback=_FixedEstimator(7.0)
        )
        assert outcome.failed and outcome.fallback_count == 11
        assert set(outcome.cards.values()) == {7.0}

    def test_wrong_length_batch_result(self):
        estimator = _BatchEstimator(drop=1)
        with pytest.raises(RuntimeError, match="returned 10 estimates for 11"):
            price_sub_plans(estimator, star_query())
        outcome = price_sub_plans(
            estimator, star_query(), fallback=_FixedEstimator(7.0)
        )
        # Degraded to the per-sub-plan loop, which itself succeeds.
        assert not outcome.failed
        assert estimator.calls == 11
        assert outcome.cards == estimate_sub_plans(_BatchEstimator(), star_query())
