"""Tests for the shared fan-out join decomposition."""

import numpy as np
import pytest

from repro.core.metrics import q_error
from repro.core.truecards import TrueCardinalityService
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.datad.bayescard import BayesCardEstimator
from repro.estimators.datad.deepdb import DeepDBEstimator
from repro.estimators.datad.fanout import fanout_column_name
from repro.estimators.datad.flat import FlatEstimator


@pytest.fixture(scope="module")
def fitted(stats_db):
    return BayesCardEstimator().fit(stats_db)


@pytest.fixture(scope="module")
def service(stats_db):
    return TrueCardinalityService(stats_db)


def edge(stats_db, a, b):
    return stats_db.join_graph.edges_between(a, b)[0]


class TestSingleDirections:
    def test_pk_fk_unfiltered_exact(self, stats_db, fitted, service):
        """users ⋈ posts with no filters must match the non-null FK count."""
        query = Query(
            tables=frozenset({"users", "posts"}),
            join_edges=(edge(stats_db, "users", "posts"),),
        )
        truth = service.cardinality(query)
        assert q_error(fitted.estimate(query), truth) < 1.5

    def test_fk_fk_join(self, stats_db, fitted, service):
        """badges ⋈ comments on UserId (many-to-many containment).

        Bucket containment under-estimates when both sides concentrate
        on the same heavy keys within a bucket, so the tolerance here
        is loose — the invariant is "same order of magnitude".
        """
        query = Query(
            tables=frozenset({"badges", "comments"}),
            join_edges=(edge(stats_db, "badges", "comments"),),
        )
        truth = service.cardinality(query)
        assert q_error(fitted.estimate(query), truth) < 10.0

    def test_null_keys_reduce_join(self, stats_db, fitted, service):
        """votes.UserId is ~40% NULL; the framework must not count the
        NULL rows towards users ⋈ votes."""
        query = Query(
            tables=frozenset({"users", "votes"}),
            join_edges=(edge(stats_db, "users", "votes"),),
        )
        truth = service.cardinality(query)
        votes = stats_db.tables["votes"]
        assert truth < votes.num_rows  # NULLs drop out
        assert q_error(fitted.estimate(query), truth) < 2.0


class TestCorrelationCapture:
    def test_fanout_attribute_correlation(self, stats_db, fitted, service):
        """High-reputation users own disproportionately many posts; the
        fan-out column must capture that (plain independence would
        under-estimate this join badly)."""
        query = Query(
            tables=frozenset({"users", "posts"}),
            join_edges=(edge(stats_db, "users", "posts"),),
            predicates=(Predicate("users", "Reputation", ">=", 500),),
        )
        truth = service.cardinality(query)
        users = stats_db.tables["users"]
        selectivity = (
            Predicate("users", "Reputation", ">=", 500).mask(users).sum()
            / users.num_rows
        )
        independence_guess = truth and selectivity * service.cardinality(
            Query(
                tables=frozenset({"users", "posts"}),
                join_edges=(edge(stats_db, "users", "posts"),),
            )
        )
        estimate = fitted.estimate(query)
        assert q_error(estimate, truth) < q_error(independence_guess, truth)

    def test_joint_beats_independent_fanout_on_deep_joins(self, stats_db, service):
        """The ablation direction: independent per-edge expectations
        under-estimate when fan-outs are positively correlated."""
        joint = BayesCardEstimator(joint_fanout=True).fit(stats_db)
        independent = BayesCardEstimator(joint_fanout=False).fit(stats_db)
        graph = stats_db.join_graph
        query = Query(
            tables=frozenset({"users", "posts", "comments", "votes"}),
            join_edges=(
                edge(stats_db, "users", "posts"),
                edge(stats_db, "posts", "comments"),
                edge(stats_db, "posts", "votes"),
            ),
        )
        truth = service.cardinality(query)
        assert independent.estimate(query) <= joint.estimate(query)
        assert q_error(joint.estimate(query), truth) <= q_error(
            independent.estimate(query), truth
        ) * 1.2


class TestInternals:
    def test_fanout_columns_built_for_pk_sides(self, stats_db, fitted):
        users_edge = edge(stats_db, "users", "posts")
        name = fanout_column_name(users_edge)
        assert ("users", name) in fitted._fanout_binners

    def test_bucket_distinct_counts(self, stats_db, fitted):
        counts = fitted._bucket_distinct[("users", "Id")]
        assert counts[0] == 0  # NULL bin holds no distinct keys
        assert counts.sum() == stats_db.tables["users"].num_rows

    def test_root_choice_prefers_pk_side(self, stats_db, fitted):
        query = Query(
            tables=frozenset({"users", "posts", "comments"}),
            join_edges=(
                edge(stats_db, "users", "posts"),
                edge(stats_db, "posts", "comments"),
            ),
        )
        assert fitted._choose_root(query) == "users"


# -- one evaluation per distinct model question ------------------------------------


def _sub_plans(labeled):
    from repro.core.injection import sub_plan_queries

    return list(sub_plan_queries(labeled.query).values())


def _by_name(workload, name):
    return next(q for q in workload.queries if q.query.name == name)


def _count_model_calls(estimator, monkeypatch):
    """Count ``prob`` / ``prob_by_bin`` calls reaching the fitted models."""
    calls = {"prob": 0, "prob_by_bin": 0}

    def counted(name, inner):
        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for model in estimator._models.values():
        for name in calls:
            monkeypatch.setattr(model, name, counted(name, getattr(model, name)))
    return calls


def _model_questions(estimator, sub_plans):
    """Distinct (table, child-edge set[, target]) questions of the walks."""
    masses, vectors = set(), set()

    def walk(query, table, parent):
        children = frozenset(
            e for e in query.join_edges if e is not parent and table in e.tables
        )
        masses.add((table, children))
        for edge in children:
            if not edge.one_to_many:
                vectors.add((table, children, edge.key_for(table)))
            walk(query, edge.other(table), edge)
        if parent is not None and not parent.one_to_many:
            vectors.add((table, children, parent.key_for(table)))

    for query in sub_plans:
        walk(query, estimator._choose_root(query), None)
    return masses, vectors


class TestSharedEvaluation:
    def test_batch_asks_each_question_once(self, stats_db, stats_workload, monkeypatch):
        """8 tables, 63 sub-plans: the batch asks the models no more
        often than there are distinct (table, child-edge set) pairs, the
        loop once per table of every sub-plan."""
        estimator = BayesCardEstimator().fit(stats_db)
        sub_plans = _sub_plans(_by_name(stats_workload, "stats-ceb-q24"))
        assert max(q.num_tables for q in sub_plans) >= 5
        masses, vectors = _model_questions(estimator, sub_plans)
        calls = _count_model_calls(estimator, monkeypatch)

        estimator.estimate_batch(sub_plans)
        batch = dict(calls)
        assert 0 < batch["prob"] <= len(masses)
        assert 0 < batch["prob_by_bin"] <= len(vectors)

        calls.update(prob=0, prob_by_bin=0)
        for query in sub_plans:
            estimator.estimate(query)
        assert batch["prob"] < calls["prob"]
        assert batch["prob_by_bin"] < calls["prob_by_bin"]
        assert calls["prob"] == sum(q.num_tables for q in sub_plans)

    @pytest.mark.parametrize("joint_fanout", [True, False])
    @pytest.mark.parametrize(
        "factory", [BayesCardEstimator, DeepDBEstimator, FlatEstimator]
    )
    def test_batch_is_the_loop_bit_for_bit(
        self, stats_db, stats_workload, factory, joint_fanout
    ):
        """Two queries' sub-plans interleaved and shuffled in one batch."""
        estimator = factory(joint_fanout=joint_fanout).fit(stats_db)
        batch = _sub_plans(_by_name(stats_workload, "stats-ceb-q24"))
        batch += _sub_plans(_by_name(stats_workload, "stats-ceb-q19"))
        np.random.default_rng(7).shuffle(batch)
        assert estimator.estimate_batch(batch) == [estimator.estimate(q) for q in batch]

    @pytest.mark.parametrize(
        "factory", [BayesCardEstimator, DeepDBEstimator, FlatEstimator]
    )
    def test_nothing_batched_survives_an_update(self, stats_db, stats_workload, factory):
        """estimate_batch -> update -> estimate_batch equals a twin that
        never batched: no memo entry or cached leaf vector outlives the
        parameters it was computed from."""
        from repro.datasets.stats_db import split_by_date

        batch = _sub_plans(_by_name(stats_workload, "stats-ceb-q24"))
        answers = []
        for batches_first in (True, False):
            old, new = split_by_date(stats_db)
            estimator = factory().fit(old)
            before = estimator.estimate_batch(batch) if batches_first else None
            for name, delta in new.items():
                if delta.num_rows:
                    old.insert(name, delta)
            estimator.update(new)
            if batches_first:
                answers.append(estimator.estimate_batch(batch))
                assert answers[0] != before
            else:
                answers.append([estimator.estimate(q) for q in batch])
        assert answers[0] == answers[1]
