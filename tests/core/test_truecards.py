"""Tests for the exact-cardinality service."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import planned_sub_plan_cards
from repro.core.injection import sub_plan_sets
from repro.core.truecards import TrueCardinalityService
from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.database import Database
from repro.engine.executor import ExecutionAborted
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.engine.table import Table
from repro.engine.types import ColumnKind

from tests.conftest import make_tiny_db

INT64 = np.iinfo(np.int64)


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
        """Without the selection cache the budget holds the same way."""
        service = TrueCardinalityService(
            tiny_db, max_intermediate_rows=5, use_exec_cache=False
        )
        with pytest.raises(ExecutionAborted):
            service.sub_plan_cards(query)

    def test_cached_count_over_budget_still_aborts(self):
        """``cardinality`` aborts on a count above the budget every time,
        also when the count cache serves it on the second call."""
        graph = JoinGraph()
        graph.add(JoinEdge("a", "k", "b", "k"))
        schema = (ColumnMeta("k", kind=ColumnKind.INT, is_key=True, filterable=False),)
        tables = {
            name: Table.from_arrays(
                TableSchema(name, schema),
                {"k": np.ones(10, dtype=np.int64)},
                {"k": np.zeros(10, dtype=bool)},
            )
            for name in ("a", "b")
        }
        database = Database(name="ab", tables=tables, join_graph=graph)
        query = Query(frozenset(tables), tuple(graph.edges), (), "ab")
        service = TrueCardinalityService(database, max_intermediate_rows=50)
        for _ in range(2):
            with pytest.raises(ExecutionAborted, match="100 rows exceeds budget 50"):
                service.cardinality(query)


def _budget_queries(database):
    users_posts, posts_comments = database.join_graph.edges

    def make(name, tables, *predicates):
        tables = frozenset(tables)
        edges = tuple(e for e in (users_posts, posts_comments) if e.tables <= tables)
        return Query(tables, edges, tuple(Predicate(*p) for p in predicates), name)

    return [
        make("c-low", {"comments"}, ("comments", "Score", "<=", 5)),
        make("c", {"comments"}),
        make("pc-low", {"posts", "comments"}, ("comments", "Score", "<=", 5)),
        make("up-rep", {"users", "posts"}, ("users", "Reputation", ">=", 2)),
        make("upc-post", {"users", "posts", "comments"}, ("posts", "Score", ">=", 10)),
        make("upc-low", {"users", "posts", "comments"}, ("comments", "Score", "<=", 5)),
        make("p", {"posts"}),
        make("upc", {"users", "posts", "comments"}),
    ]


#: Which of ``_budget_queries`` abort under each row budget, as the
#: row-id-joining counter that message passing replaced reported them.
#: The sub-plan counts are 326 .. 3500; budgets sit on both sides of
#: the counts 500, 2000, 2103 and 3500.
PARENT_ABORTS = {
    499: {"pc-low", "up-rep", "upc-post", "upc-low", "upc"},
    1999: {"pc-low", "up-rep", "upc-post", "upc-low", "upc"},
    2000: {"pc-low", "upc-post", "upc-low", "upc"},
    2102: {"pc-low", "upc-post", "upc-low", "upc"},
    2103: {"upc-post", "upc"},
    3499: {"upc-post", "upc"},
    3500: set(),
}


class TestBudgetTable:
    @pytest.mark.parametrize("budget", sorted(PARENT_ABORTS))
    def test_aborts_equal_the_recorded_table(self, tiny_db, budget):
        """Fresh services and one shared service (whose count cache
        serves "c"'s 3500 comments to "upc-post") abort on the same
        queries; single-table queries never do."""
        queries = _budget_queries(tiny_db)
        shared = TrueCardinalityService(tiny_db, max_intermediate_rows=budget)
        for service_of in (
            lambda: TrueCardinalityService(tiny_db, max_intermediate_rows=budget),
            lambda: shared,
        ):
            aborted = set()
            for query in queries:
                try:
                    service_of().sub_plan_cards(query)
                except ExecutionAborted:
                    aborted.add(query.name)
            assert aborted == PARENT_ABORTS[budget]
            assert not {q.name for q in queries if len(q.tables) == 1} & aborted


class TestCachePolicyEquivalence:
    """Caching is correctness-only: a cached and an uncached service
    count every sub-plan as the one-plan-per-subset reference does."""

    def _services(self, database):
        return (
            TrueCardinalityService(database),
            TrueCardinalityService(database, use_exec_cache=False),
        )

    def test_counts_identical_cache_on_off(self, tiny_db, query):
        cached, plain = self._services(tiny_db)
        reference = planned_sub_plan_cards(tiny_db, query)
        assert cached.sub_plan_cards(query) == plain.sub_plan_cards(query) == reference

    def test_repeated_queries_stay_identical(self, tiny_db, query):
        cached, _ = self._services(tiny_db)
        first = cached.sub_plan_cards(query)
        second = cached.sub_plan_cards(query)  # fully cache-served
        assert first == second == planned_sub_plan_cards(tiny_db, query)

    def test_counts_identical_after_update_batch(self, query):
        """A Table-6 style insert batch must invalidate the reuse
        caches: the warm cached service and the reference must agree
        after the data changes."""
        database = make_tiny_db()
        cached, _ = self._services(database)
        before = cached.sub_plan_cards(query)

        batch = database.tables["comments"].take(np.arange(200))
        database.insert("comments", batch)
        # No explicit invalidate(): the data_version bump must drop the
        # stale counts, key domains and selection vectors automatically.
        after_cached = cached.sub_plan_cards(query)
        assert after_cached == planned_sub_plan_cards(database, query)
        # The batch duplicated low-id comments, so counts moved.
        assert after_cached != before

    def test_stats_workload_queries_identical(self, stats_db, stats_workload):
        cached, plain = self._services(stats_db)
        for labeled in stats_workload.queries[:5]:
            reference = planned_sub_plan_cards(stats_db, labeled.query)
            assert cached.sub_plan_cards(labeled.query) == reference
            assert plain.sub_plan_cards(labeled.query) == reference


#: How a random tree edge stores its keys: dense INT codes, INT keys
#: spread up to the int64 extremes (rank codes), or FLOAT keys.
KEY_KINDS = ("dense", "sparse-low", "sparse-high", "float")


def _tree_case(rng, parents, kinds, sizes, null_share, thresholds):
    """A random tree database and the query joining all of its tables.

    Table ``t{i}`` (``i >= 1``) joins ``t{parents[i - 1]}`` on edge
    ``k{i}``, whose keys are drawn from a handful of values so both
    sides hold duplicates and dangling keys; a parent side is a unique
    key half of the time (PK-FK), else FK-FK.  Every table has a filter
    column ``v`` in ``0 .. 4``; a threshold of -1 selects nothing.
    """
    n = len(sizes)
    columns = {f"t{i}": {"v": (rng.integers(0, 5, sizes[i]), None)} for i in range(n)}
    graph = JoinGraph()
    kinds_of = {f"t{i}": {"v": ColumnKind.INT} for i in range(n)}
    for child in range(1, n):
        parent, kind = parents[child - 1], kinds[child - 1]
        unique = rng.random() < 0.5 and kind != "float"
        keys = {
            parent: np.arange(sizes[parent]) if unique else rng.integers(0, 5, sizes[parent]),
            child: rng.integers(0, 6, sizes[child]),
        }
        column = f"k{child}"
        for table, raw in keys.items():
            if kind == "float":
                values, column_kind = raw * 0.5 + 0.25, ColumnKind.FLOAT
            elif kind == "sparse-low":
                values, column_kind = INT64.min + raw * (INT64.max // 32), ColumnKind.INT
            elif kind == "sparse-high":
                values, column_kind = INT64.max - raw * 10**15, ColumnKind.INT
            else:
                values, column_kind = raw + 1_000, ColumnKind.INT
            nulls = rng.random(len(raw)) < null_share
            columns[f"t{table}"][column] = (values, nulls)
            kinds_of[f"t{table}"][column] = column_kind
        graph.add(JoinEdge(f"t{parent}", column, f"t{child}", column, one_to_many=unique))
    tables = {}
    for name, data in columns.items():
        schema = TableSchema(
            name, tuple(ColumnMeta(c, kind=kinds_of[name][c]) for c in data)
        )
        tables[name] = Table.from_arrays(
            schema,
            {c: values for c, (values, _) in data.items()},
            {c: nulls for c, (_, nulls) in data.items() if nulls is not None},
        )
    database = Database(name="tree", tables=tables, join_graph=graph)
    predicates = tuple(
        Predicate(f"t{i}", "v", "<=", threshold)
        for i, threshold in enumerate(thresholds)
        if threshold is not None
    )
    query = Query(frozenset(tables), tuple(graph.edges), predicates, "tree")
    return database, query


@st.composite
def tree_cases(draw):
    n = draw(st.integers(2, 5))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    kinds = [draw(st.sampled_from(KEY_KINDS)) for _ in parents]
    sizes = [draw(st.sampled_from((0, 1, 4, 12, 30))) for _ in range(n)]
    null_share = draw(st.sampled_from((0.0, 0.3)))
    thresholds = [draw(st.sampled_from((None, -1, 1, 3))) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _tree_case(rng, parents, kinds, sizes, null_share, thresholds)


class TestMessagePassing:
    @settings(max_examples=60, deadline=None)
    @given(tree_cases())
    def test_equals_the_planned_reference_on_random_trees(self, case):
        database, query = case
        reference = planned_sub_plan_cards(database, query)
        warm = TrueCardinalityService(database)
        warm.sub_plan_cards(query)
        assert warm.sub_plan_cards(query) == reference
        cold = TrueCardinalityService(database, use_exec_cache=False)
        assert cold.sub_plan_cards(query) == reference

    def test_service_is_freed_without_a_gc_pass(self):
        """Labelling leaves no reference cycle behind: a service dies
        with its last reference, selection cache and all, even while
        the cyclic garbage collector is off."""
        database, query = _tree_case(
            np.random.default_rng(5), [0, 1, 1, 3], ["dense"] * 4, [30] * 5, 0.1, [None] * 5
        )
        gc.disable()
        try:
            service = TrueCardinalityService(database)
            assert len(service.sub_plan_cards(query)) > 5
            assert len(service.selection_cache) == 5
            alive = weakref.ref(service)
            del service
            assert alive() is None
        finally:
            gc.enable()


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
        assert len(service.selection_cache) > 0 and service._domains
        service.invalidate()
        assert len(service._cache) == 0
        assert len(service.selection_cache) == 0
        assert not service._domains
