"""Tests for the exact-cardinality service."""

import numpy as np
import pytest

from repro.core.injection import sub_plan_sets
from repro.core.truecards import TrueCardinalityService
from repro.engine.executor import ExecutionAborted
from repro.engine.predicates import Predicate
from repro.engine.query import Query

from tests.conftest import make_tiny_db


@pytest.fixture(scope="module")
def service(tiny_db):
    return TrueCardinalityService(tiny_db)


@pytest.fixture(scope="module")
def query(tiny_db):
    return Query(
        tables=frozenset({"users", "posts", "comments"}),
        join_edges=tuple(tiny_db.join_graph.edges),
        predicates=(Predicate("comments", "Score", "<=", 5),),
        name="tc",
    )


class TestExactness:
    def test_matches_bruteforce(self, tiny_db, service, query):
        owner = tiny_db.tables["posts"].column("OwnerUserId").values
        post_of = tiny_db.tables["comments"].column("PostId").values
        scores = tiny_db.tables["comments"].column("Score").values
        expected = int((scores[np.arange(len(scores))] <= 5).sum())
        # every comment has a post and every post an owner in tiny_db
        assert service.cardinality(query) == expected

    def test_subplan_space_complete(self, service, query):
        cards = service.sub_plan_cards(query)
        assert set(cards) == set(sub_plan_sets(query))

    def test_monotone_in_predicates(self, tiny_db, service):
        loose = Query(
            tables=frozenset({"posts"}),
            predicates=(Predicate("posts", "Score", ">=", 0),),
        )
        tight = Query(
            tables=frozenset({"posts"}),
            predicates=(
                Predicate("posts", "Score", ">=", 0),
                Predicate("posts", "Score", "<=", 10),
            ),
        )
        assert service.cardinality(tight) <= service.cardinality(loose)


class TestCaching:
    def test_cache_hit_is_fast(self, tiny_db, query):
        import time

        service = TrueCardinalityService(tiny_db)
        t0 = time.perf_counter()
        service.sub_plan_cards(query)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        service.sub_plan_cards(query)
        warm = time.perf_counter() - t0
        assert warm < cold

    def test_invalidate_clears(self, tiny_db, query):
        service = TrueCardinalityService(tiny_db)
        service.sub_plan_cards(query)
        assert service._cache
        service.invalidate()
        assert not service._cache


class TestBudget:
    def test_budget_propagates(self, tiny_db, query):
        service = TrueCardinalityService(tiny_db, max_intermediate_rows=5)
        with pytest.raises(ExecutionAborted):
            service.sub_plan_cards(query)

    def test_budget_propagates_without_sharing(self, tiny_db, query):
        service = TrueCardinalityService(
            tiny_db,
            max_intermediate_rows=5,
            use_exec_cache=False,
            share_intermediates=False,
        )
        with pytest.raises(ExecutionAborted):
            service.sub_plan_cards(query)


class TestCachePolicyEquivalence:
    """Caching and intermediate sharing are correctness-only: every
    count must be bit-identical with them on or off."""

    def _services(self, database):
        return (
            TrueCardinalityService(database),
            TrueCardinalityService(
                database, use_exec_cache=False, share_intermediates=False
            ),
        )

    def test_counts_identical_cache_on_off(self, tiny_db, query):
        cached, plain = self._services(tiny_db)
        assert cached.sub_plan_cards(query) == plain.sub_plan_cards(query)

    def test_repeated_queries_stay_identical(self, tiny_db, query):
        cached, plain = self._services(tiny_db)
        first = cached.sub_plan_cards(query)
        second = cached.sub_plan_cards(query)  # fully cache-served
        assert first == second == plain.sub_plan_cards(query)

    def test_counts_identical_after_update_batch(self, query):
        """A Table-6 style insert batch must invalidate the reuse
        caches: the warm cached service and a fresh uncached one must
        agree after the data changes."""
        database = make_tiny_db()
        cached, plain = self._services(database)
        before = cached.sub_plan_cards(query)

        batch = database.tables["comments"].take(np.arange(200))
        database.insert("comments", batch)
        # No explicit invalidate(): the data_version bump must drop the
        # stale counts and selection vectors automatically.
        after_cached = cached.sub_plan_cards(query)
        after_plain = plain.sub_plan_cards(query)
        assert after_cached == after_plain
        # The batch duplicated low-id comments, so counts moved.
        assert after_cached != before

    def test_stats_workload_queries_identical(self, stats_db, stats_workload):
        cached, plain = self._services(stats_db)
        for labeled in stats_workload.queries[:5]:
            assert cached.sub_plan_cards(labeled.query) == plain.sub_plan_cards(
                labeled.query
            )


class TestMaterializedIntermediates:
    def test_hold_exactly_the_boundary_columns(self, stats_db, stats_workload):
        """A shared intermediate carries a row-id column per table a
        query edge leaves the subset through — no interior column — and
        as many rows as the unshared service counts for the subset."""
        query = max((q.query for q in stats_workload.queries), key=lambda q: len(q.tables))
        assert len(query.tables) >= 4
        shared = TrueCardinalityService(stats_db)
        unshared = TrueCardinalityService(
            stats_db, use_exec_cache=False, share_intermediates=False
        ).sub_plan_cards(query)
        interior = 0
        for subset in sub_plan_sets(query):
            if subset == query.tables:
                continue
            rows = shared._materialize(query, subset, {}, [0])
            boundary = {
                table
                for edge in query.join_edges
                for table in (edge.left, edge.right)
                if table in subset and edge.other(table) not in subset
            }
            assert set(rows) == boundary
            assert {len(ids) for ids in rows.values()} == {unshared[subset]}
            interior += len(subset) - len(boundary)
        assert interior > 0  # some intermediate really shed a column


class TestBoundedCache:
    def test_count_cache_is_byte_bounded(self, tiny_db, query):
        # Budget of 3 nominal entries (160 bytes each): the full
        # sub-plan space (6 subsets) cannot all stay resident.
        service = TrueCardinalityService(tiny_db, count_cache_budget_bytes=3 * 160)
        cards = service.sub_plan_cards(query)
        assert len(cards) == len(sub_plan_sets(query))
        assert len(service._cache) <= 3
        assert service._cache.resident_bytes <= service._cache.budget_bytes

    def test_bounded_cache_still_correct(self, tiny_db, query):
        bounded = TrueCardinalityService(tiny_db, count_cache_budget_bytes=160)
        unbounded = TrueCardinalityService(tiny_db)
        assert bounded.sub_plan_cards(query) == unbounded.sub_plan_cards(query)

    def test_invalidate_clears_context_caches(self, tiny_db, query):
        service = TrueCardinalityService(tiny_db)
        service.sub_plan_cards(query)
        assert len(service.context.selection) > 0
        service.invalidate()
        assert len(service._cache) == 0
        assert len(service.context.selection) == 0
        assert len(service.context.join_build) == 0
