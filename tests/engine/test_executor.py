"""Tests for the executor's physical operators.

All three join implementations must produce identical results (the
cardinality of the join is operator-independent); the index-NL join
must apply inner filters after the fetch; the row and pre-expansion
budgets must abort oversized executions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import JoinEdge
from repro.engine.executor import ExecutionAborted, Executor, _expand_ranges
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    JoinNode,
    ScanNode,
)
from repro.engine.predicates import Predicate
from repro.obs import metrics as obs_metrics


def scan(table, predicates=()):
    return ScanNode(tables=frozenset((table,)), table=table, predicates=tuple(predicates))


def join(left, right, edge, method):
    return JoinNode(
        tables=left.tables | right.tables,
        left=left,
        right=right,
        edge=edge,
        method=method,
    )


@pytest.fixture(scope="module")
def edges(tiny_db):
    users_posts = tiny_db.join_graph.edges_between("users", "posts")[0]
    posts_comments = tiny_db.join_graph.edges_between("posts", "comments")[0]
    return users_posts, posts_comments


def brute_force_count(tiny_db, user_pred=None, comment_pred=None):
    users = tiny_db.tables["users"]
    posts = tiny_db.tables["posts"]
    comments = tiny_db.tables["comments"]
    ok_users = set(np.arange(users.num_rows))
    if user_pred is not None:
        ok_users = set(np.nonzero(user_pred.mask(users))[0])
    ok_comments = np.arange(comments.num_rows)
    if comment_pred is not None:
        ok_comments = np.nonzero(comment_pred.mask(comments))[0]
    owner = posts.column("OwnerUserId").values
    post_of = comments.column("PostId").values
    return sum(1 for c in ok_comments if owner[post_of[c]] in ok_users)


class TestJoinOperators:
    @pytest.mark.parametrize("method", [JOIN_HASH, JOIN_MERGE, JOIN_INDEX_NL])
    def test_two_way_join_counts_match(self, tiny_db, edges, method):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, method)
        result = Executor(tiny_db).execute(plan)
        assert result.cardinality == tiny_db.tables["posts"].num_rows

    @pytest.mark.parametrize("method", [JOIN_HASH, JOIN_MERGE])
    def test_methods_agree_with_filters(self, tiny_db, edges, method):
        users_posts, posts_comments = edges
        user_pred = Predicate("users", "Reputation", ">", 2)
        comment_pred = Predicate("comments", "Score", "<=", 4)
        inner = join(
            scan("comments", [comment_pred]),
            scan("posts"),
            posts_comments.reversed(),
            method,
        )
        plan = join(inner, scan("users", [user_pred]), users_posts.reversed(), method)
        result = Executor(tiny_db).execute(plan)
        assert result.cardinality == brute_force_count(tiny_db, user_pred, comment_pred)

    def test_index_nl_applies_inner_filter_after_fetch(self, tiny_db, edges):
        users_posts, _ = edges
        post_pred = Predicate("posts", "Score", ">=", 20)
        plan = join(scan("users"), scan("posts", [post_pred]), users_posts, JOIN_INDEX_NL)
        result = Executor(tiny_db).execute(plan)
        expected = int(post_pred.mask(tiny_db.tables["posts"]).sum())
        assert result.cardinality == expected

    def test_node_rows_recorded(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        result = Executor(tiny_db).execute(plan)
        assert result.node_rows[frozenset({"users"})] == tiny_db.tables["users"].num_rows
        assert result.node_rows[plan.tables] == result.cardinality

    def test_elapsed_time_positive(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        assert Executor(tiny_db).execute(plan).elapsed_seconds > 0


class TestInstrumentation:
    def test_default_run_collects_no_node_stats(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        assert Executor(tiny_db).execute(plan).node_stats == {}

    def test_collect_stats_records_per_node_runtime(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        result = Executor(tiny_db).execute(plan, collect_stats=True)
        assert set(result.node_stats) == {
            frozenset({"users"}),
            frozenset({"posts"}),
            plan.tables,
        }
        root = result.node_stats[plan.tables]
        assert root.method == JOIN_HASH
        assert root.rows_out == result.cardinality
        assert root.rows_in == (
            tiny_db.tables["users"].num_rows,
            tiny_db.tables["posts"].num_rows,
        )
        # Inclusive timing: the root covers its children.
        for child in (frozenset({"users"}), frozenset({"posts"})):
            stats = result.node_stats[child]
            assert stats.rows_in == ()
            assert root.elapsed_seconds >= stats.elapsed_seconds

    def test_stats_agree_with_node_rows(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        result = Executor(tiny_db).execute(plan, collect_stats=True)
        for tables, stats in result.node_stats.items():
            assert stats.rows_out == result.node_rows[tables]

    def test_active_tracer_emits_operator_spans(self, tiny_db, edges):
        from repro.obs import trace as obs_trace

        users_posts, posts_comments = edges
        inner = join(scan("comments"), scan("posts"), posts_comments.reversed(), JOIN_HASH)
        plan = join(inner, scan("users"), users_posts.reversed(), JOIN_MERGE)
        with obs_trace.use_tracer() as tracer:
            result = Executor(tiny_db).execute(plan)
        assert result.node_stats  # tracer presence implies instrumentation
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["seq_scan"]) == 3
        (merge_span,) = by_name["merge_join"]
        (hash_span,) = by_name["hash_join"]
        assert hash_span.parent_id == merge_span.span_id
        assert merge_span.attributes["rows_out"] == result.cardinality


class TestReentrancy:
    def test_no_deadline_instance_state(self, tiny_db):
        assert not hasattr(Executor(tiny_db), "_deadline")

    def test_shared_executor_across_threads(self, tiny_db, edges):
        import threading

        users_posts, posts_comments = edges
        executor = Executor(tiny_db, timeout_seconds=60.0)
        plan_a = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        plan_b = join(scan("posts"), scan("comments"), posts_comments, JOIN_MERGE)
        expected_a = executor.execute(plan_a).cardinality
        expected_b = executor.execute(plan_b).cardinality

        results: dict[str, list[int]] = {"a": [], "b": []}
        errors: list[Exception] = []

        def worker(key, plan):
            try:
                for _ in range(5):
                    results[key].append(executor.execute(plan).cardinality)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("a", plan_a)),
            threading.Thread(target=worker, args=("b", plan_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results["a"] == [expected_a] * 5
        assert results["b"] == [expected_b] * 5

    def test_timeout_does_not_poison_later_runs(self, tiny_db, edges):
        """An aborted (timed-out) execution must not leave deadline
        state behind that affects the next execution."""
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        executor = Executor(tiny_db, timeout_seconds=-1.0)
        with pytest.raises(ExecutionAborted):
            executor.execute(plan)
        relaxed = Executor(tiny_db, timeout_seconds=None)
        assert relaxed.execute(plan).cardinality > 0


class TestBudgets:
    def test_row_budget_aborts(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        with pytest.raises(ExecutionAborted):
            Executor(tiny_db, max_intermediate_rows=10).execute(plan)

    def test_timeout_aborts(self, tiny_db, edges):
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        with pytest.raises(ExecutionAborted):
            Executor(tiny_db, timeout_seconds=-1.0).execute(plan)

    @pytest.mark.parametrize("collect_stats", [False, True])
    def test_abort_is_counted_on_both_walks(self, tiny_db, edges, collect_stats):
        """Timed campaign runs take the plain walk; their aborts must
        reach ``executor.aborts`` like the instrumented walk's do."""
        users_posts, _ = edges
        plan = join(scan("users"), scan("posts"), users_posts, JOIN_HASH)
        aborts = obs_metrics.registry().counter("executor.aborts")
        before = aborts.value
        with pytest.raises(ExecutionAborted):
            Executor(tiny_db, max_intermediate_rows=10).execute(
                plan, collect_stats=collect_stats
            )
        assert obs_metrics.registry().counter("executor.aborts").value == before + 1


class TestScan:
    def test_scan_applies_predicates(self, tiny_db):
        pred = Predicate("users", "Reputation", "=", 1)
        result = Executor(tiny_db).execute(scan("users", [pred]))
        assert result.cardinality == int(pred.mask(tiny_db.tables["users"]).sum())


@settings(max_examples=50, deadline=None)
@given(
    starts=st.lists(st.integers(0, 30), min_size=0, max_size=20),
    counts=st.lists(st.integers(0, 5), min_size=0, max_size=20),
)
def test_expand_ranges_property(starts, counts):
    """Property: _expand_ranges equals explicit range concatenation."""
    n = min(len(starts), len(counts))
    starts_arr = np.asarray(starts[:n], dtype=np.int64)
    counts_arr = np.asarray(counts[:n], dtype=np.int64)
    result = _expand_ranges(starts_arr, counts_arr)
    expected = np.concatenate(
        [np.arange(s, s + c) for s, c in zip(starts_arr, counts_arr)]
    ) if n else np.empty(0, dtype=np.int64)
    assert np.array_equal(result, expected)
