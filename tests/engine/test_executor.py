"""Tests for the executor's physical operators.

All three join implementations must produce identical results (the
cardinality of the join is operator-independent); the index-NL join
must apply inner filters after the fetch; the row and pre-expansion
budgets must abort oversized executions; a join emits exactly the
row-id columns an ancestor still reads, the root none, with every count
equal to a walk that materialises everything.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import executor as executor_module
from repro.engine.catalog import ColumnMeta, JoinEdge, TableSchema
from repro.engine.executor import ExecutionAborted, Executor, _expand_ranges
from repro.engine.join_build import JoinBuild
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    JoinNode,
    ScanNode,
)
from repro.engine.predicates import Predicate, conjunction_mask
from repro.engine.table import Column, Table
from repro.obs import metrics as obs_metrics

from tests.conftest import make_key_db, make_tiny_db


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


@pytest.fixture(scope="module")
def wide_db():
    """``tiny_db`` plus ``badges`` (on users) and ``votes`` (on posts, with
    NULL keys): wide enough for 4-table chains, stars and bushy plans."""
    db = make_tiny_db()
    rng = np.random.default_rng(7)
    n_users, n_posts = db.tables["users"].num_rows, db.tables["posts"].num_rows
    for name, column, parent, size in (
        ("badges", "UserId", n_users, 1_200),
        ("votes", "PostId", n_posts, 5_000),
    ):
        schema = TableSchema(
            name,
            (
                ColumnMeta("Id", is_key=True, filterable=False),
                ColumnMeta(column, is_key=True, filterable=False),
            ),
            primary_key="Id",
        )
        db.tables[name] = Table.from_arrays(
            schema,
            {"Id": np.arange(size), column: rng.integers(0, parent, size)},
            {column: rng.random(size) < 0.1} if name == "votes" else None,
        )
    db.join_graph.add(JoinEdge("users", "Id", "badges", "UserId"))
    db.join_graph.add(JoinEdge("posts", "Id", "votes", "PostId"))
    return db


def shaped_plan(db, shape, method):
    """A 4-table plan of the given shape joining with ``method``."""

    def edge(left, right):
        (found,) = db.join_graph.edges_between(left, right)
        return found if found.left == left else found.reversed()

    def extend(plan, anchor, table):
        return join(plan, scan(table), edge(anchor, table), method)

    if shape == "chain":  # badges - users - posts - comments, left-deep
        plan = extend(scan("badges"), "badges", "users")
        return extend(extend(plan, "users", "posts"), "posts", "comments")
    if shape == "star":  # posts at the centre
        plan = extend(scan("posts", [Predicate("posts", "Score", ">=", 5)]), "posts", "users")
        return extend(extend(plan, "posts", "comments"), "posts", "votes")
    assert shape == "bushy"  # (badges, users) with (posts, comments)
    # An index-NL join needs a base-table inner: the top join hashes then.
    top = JOIN_HASH if method == JOIN_INDEX_NL else method
    return join(
        extend(scan("badges"), "badges", "users"),
        extend(scan("posts"), "posts", "comments"),
        edge("users", "posts"),
        top,
    )


def expected_keeps(plan, above=frozenset()):
    """Per join node: its tables some ancestor's join edge names."""
    if isinstance(plan, ScanNode):
        return {}
    keeps = {plan.tables: above & plan.tables}
    below = above | {plan.edge.left, plan.edge.right}
    keeps.update(expected_keeps(plan.left, below))
    keeps.update(expected_keeps(plan.right, below))
    return keeps


def materialise_everything(executor, plan, counts):
    """Reference walk: ``join_rows`` keeping every column, bottom-up."""
    if isinstance(plan, ScanNode):
        rows = executor.scan_rows(plan)
    else:
        left = materialise_everything(executor, plan.left, counts)
        right = materialise_everything(executor, plan.right, counts)
        rows = executor.join_rows(plan, left, right)
        assert set(rows) == plan.tables
    (counts[plan.tables],) = {len(ids) for ids in rows.values()}
    return rows


class RecordingExecutor(Executor):
    """Records what every join of a plan walk emitted."""

    def __init__(self, database):
        super().__init__(database)
        self.emitted = {}

    def _join(self, node, left, right, keep, deadline):
        columns, count = super()._join(node, left, right, keep, deadline)
        self.emitted[node.tables] = (columns, count)
        return columns, count


SHAPES = ["chain", "star", "bushy"]
METHODS = [JOIN_HASH, JOIN_MERGE, JOIN_INDEX_NL]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
class TestLateMaterialisation:
    def test_joins_emit_exactly_their_keep_columns(self, wide_db, shape, method):
        plan = shaped_plan(wide_db, shape, method)
        executor = RecordingExecutor(wide_db)
        result = executor.execute(plan)
        keeps = expected_keeps(plan)
        assert set(executor.emitted) == set(keeps)
        for tables, (columns, count) in executor.emitted.items():
            assert set(columns) == keeps[tables]
            assert all(len(ids) == count for ids in columns.values())
            assert count == result.node_rows[tables]
        assert executor.emitted[plan.tables][0] == {}
        # Not vacuous: some inner join of every shape drops a column.
        assert any(keeps[tables] < tables for tables in keeps if tables != plan.tables)

    def test_both_walks_equal_the_all_columns_reference(self, wide_db, shape, method):
        plan = shaped_plan(wide_db, shape, method)
        executor = Executor(wide_db)
        reference = {}
        materialise_everything(executor, plan, reference)
        plain = executor.execute(plan)
        traced = executor.execute(plan, collect_stats=True)
        assert plain.node_rows == traced.node_rows == reference
        assert plain.cardinality == traced.cardinality == reference[plan.tables] > 0
        for node in plan.walk():
            stats = traced.node_stats[node.tables]
            assert stats.rows_out == reference[node.tables]
            expected_in = (
                (reference[node.left.tables], reference[node.right.tables])
                if isinstance(node, JoinNode)
                else ()
            )
            assert stats.rows_in == expected_in


class TestBudgetBeforeMaterialising:
    """The row budget aborts on the summed match counts, before any
    ``np.repeat`` could allocate the oversized output."""

    @pytest.mark.parametrize("method", [JOIN_HASH, JOIN_MERGE])
    @pytest.mark.parametrize("at_root", [False, True])
    def test_abort_never_expands_the_oversized_join(
        self, wide_db, monkeypatch, method, at_root
    ):
        plan = shaped_plan(wide_db, "star", method)
        rows = Executor(wide_db).execute(plan).node_rows
        inner = plan.left.tables
        # The fan-out makes the root the largest node, so a budget just
        # below it lets every inner join through.
        assert rows[plan.tables] > rows[inner] > rows[plan.left.left.tables]
        over = rows[plan.tables] if at_root else rows[inner]

        expanded = []
        repeat = np.repeat

        def spy(values, repeats, *args, **kwargs):
            expanded.append(int(np.sum(repeats)))
            return repeat(values, repeats, *args, **kwargs)

        monkeypatch.setattr(np, "repeat", spy)
        with pytest.raises(ExecutionAborted):
            Executor(wide_db, max_intermediate_rows=over - 1).execute(plan)
        assert over not in expanded
        assert at_root == (rows[inner] in expanded)


def key_arrays(max_size):
    return st.lists(
        st.one_of(st.none(), st.integers(0, 6)), min_size=0, max_size=max_size
    )


@settings(max_examples=60, deadline=None)
@given(
    left=key_arrays(30),
    right=key_arrays(30),
    picks=st.lists(st.integers(0, 29), max_size=40),
    method=st.sampled_from(METHODS),
)
def test_join_count_equals_join_rows_length(left, right, picks, method):
    """Property: counting and materialising agree on FK-FK inputs with
    NULL keys and duplicate outer rows, for every join method."""

    def column(keys):
        values = np.asarray([0 if k is None else k for k in keys], dtype=np.int64)
        return values, np.asarray([k is not None for k in keys], dtype=bool)

    db = make_key_db(*column(left), *column(right))
    outer = {"l": np.asarray([p for p in picks if p < len(left)], dtype=np.int64)}
    inner = {"r": np.arange(len(right))}
    node = join(scan("l"), scan("r"), db.join_graph.edges[0], method)
    executor = Executor(db)
    rows = executor.join_rows(node, outer, inner)
    expected = sum(
        left[i] is not None and left[i] == key for i in outer["l"] for key in right
    )
    # The count-only hash probe streams in chunks: every size counts alike.
    for chunk in (1, 2, 3, executor_module.COUNT_CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(executor_module, "COUNT_CHUNK_ROWS", chunk)
            assert executor.join_count(node, outer, inner) == expected
    assert {len(ids) for ids in rows.values()} == {expected}
    assert executor.join_rows(node, outer, inner, keep=frozenset()) == {}


def fan_out_db(probe_rows, build_rows, domain, seed=0):
    """``l`` (probe) and ``r`` (build) with keys in ``[0, domain)``, a
    tenth of them NULL, and the hash-join root counting their join."""
    rng = np.random.default_rng(seed)
    sides = [
        (rng.integers(0, domain, rows), rng.random(rows) >= 0.1)
        for rows in (probe_rows, build_rows)
    ]
    db = make_key_db(*sides[0], *sides[1])
    return db, join(scan("l"), scan("r"), db.join_graph.edges[0], JOIN_HASH)


class TestChunkedCount:
    """The count-only hash join probes ``COUNT_CHUNK_ROWS`` rows at a time."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_aborts_iff_the_total_exceeds_the_budget(self, monkeypatch, chunk):
        db, plan = fan_out_db(probe_rows=60, build_rows=40, domain=5)
        total = Executor(db).execute(plan).cardinality
        assert total > 60  # the scans stay within every budget below
        monkeypatch.setattr(executor_module, "COUNT_CHUNK_ROWS", chunk)
        assert Executor(db, max_intermediate_rows=total).execute(plan).cardinality == total
        with pytest.raises(ExecutionAborted):
            Executor(db, max_intermediate_rows=total - 1).execute(plan)

        # The running total aborts as soon as it passes the budget.
        probes = []
        match = JoinBuild.match

        def spy(build, keys):
            probes.append(len(keys))
            return match(build, keys)

        monkeypatch.setattr(JoinBuild, "match", spy)
        with pytest.raises(ExecutionAborted):
            Executor(db, max_intermediate_rows=60).execute(plan)
        assert len(probes) < 60 // chunk

    def test_deadline_is_checked_between_chunks(self, monkeypatch):
        db, plan = fan_out_db(probe_rows=10, build_rows=10, domain=3)
        # A clock that advances one second per chunk matched.
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(perf_counter=lambda: clock.now)
        monkeypatch.setattr(executor_module, "time", fake_time)
        match = JoinBuild.match

        def slow(build, keys):
            clock.now += 1.0
            return match(build, keys)

        monkeypatch.setattr(JoinBuild, "match", slow)
        executor = Executor(db, timeout_seconds=2.5)
        assert executor.execute(plan).cardinality > 0  # one chunk: one second
        monkeypatch.setattr(executor_module, "COUNT_CHUNK_ROWS", 2)
        clock.now = 0.0
        with pytest.raises(ExecutionAborted, match="timed out"):
            executor.execute(plan)
        assert clock.now == 3.0  # aborted before the fourth of five chunks

    def test_working_set_is_bounded_by_the_probe_ids(self):
        """A ``COUNT(*)`` root over a large probe side needs the scan's row
        ids plus a few chunk-sized buffers; gathering and matching the
        probe keys whole took about six times the ids."""
        db, plan = fan_out_db(probe_rows=400_000, build_rows=2_000, domain=1_000)
        executor = Executor(db)
        expected = executor.execute(plan).cardinality
        tracemalloc.start()
        try:
            assert executor.execute(plan).cardinality == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        probe_id_bytes = 400_000 * np.dtype(np.intp).itemsize
        chunk_bytes = executor_module.COUNT_CHUNK_ROWS * 8
        assert peak < 2 * probe_id_bytes + 6 * chunk_bytes


class TestIndexNestedLoop:
    def test_inner_predicates_with_nothing_kept(self, tiny_db, edges):
        """The filter still decides the count when no column is emitted."""
        users_posts, _ = edges
        predicates = [
            Predicate("posts", "Score", ">=", 20),
            Predicate("posts", "Score", "<=", 40),
        ]
        executor = Executor(tiny_db)
        users = executor.scan_rows(scan("users", [Predicate("users", "Reputation", ">", 1)]))
        posts = executor.scan_rows(scan("posts", predicates))
        counts = {
            method: executor.join_count(
                join(scan("users"), scan("posts", predicates), users_posts, method),
                users,
                posts,
            )
            for method in (JOIN_HASH, JOIN_INDEX_NL)
        }
        assert counts[JOIN_INDEX_NL] == counts[JOIN_HASH] > 0

    def test_subset_mask_gathers_only_predicate_columns(self, tiny_db, monkeypatch):
        posts = tiny_db.tables["posts"]
        row_ids = np.random.default_rng(3).integers(0, posts.num_rows, 700)
        predicates = (
            Predicate("posts", "Score", ">=", 3),
            Predicate("posts", "Score", "<", 30),
        )
        expected = conjunction_mask(posts.take(row_ids), list(predicates))

        gathered = []
        take = Column.take

        def spy(column, indices):
            gathered.append(column)
            return take(column, indices)

        monkeypatch.setattr(Column, "take", spy)
        executor = Executor(tiny_db)
        np.testing.assert_array_equal(
            executor._subset_mask("posts", row_ids, predicates), expected
        )
        assert len(gathered) == 1 and gathered[0] is posts.column("Score")
        # No predicates: all true, and the table is not touched at all.
        assert executor._subset_mask("posts", row_ids, ()).all()
        assert len(gathered) == 1


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
