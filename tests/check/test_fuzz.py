"""The fuzz case generator: determinism and edge-case coverage."""

import numpy as np

from repro.check import FuzzConfig, build_case
from repro.core.truecards import TrueCardinalityService
from repro.engine.join_build import JoinBuild
from repro.engine.query import Query


def _keys(case):
    return [q.key() for q in case.queries]


class TestDeterminism:
    def test_same_seed_same_case(self):
        first, second = build_case(13, 7), build_case(13, 7)
        assert _keys(first) == _keys(second)
        for name in first.database.tables:
            a = first.database.tables[name]
            b = second.database.tables[name]
            assert a.num_rows == b.num_rows
            for meta in a.schema.columns:
                np.testing.assert_array_equal(
                    a.column(meta.name).values, b.column(meta.name).values
                )
                np.testing.assert_array_equal(
                    a.column(meta.name).null_mask,
                    b.column(meta.name).null_mask,
                )

    def test_different_index_different_case(self):
        assert _keys(build_case(13, 0)) != _keys(build_case(13, 1))


class TestStructure:
    def test_queries_are_valid_tree_queries(self):
        for index in range(30):
            case = build_case(5, index)
            for query in case.queries:
                # Query.__post_init__ enforces tree shape/connectivity;
                # constructing a copy re-validates.
                Query(
                    tables=query.tables,
                    join_edges=query.join_edges,
                    predicates=query.predicates,
                    name=query.name,
                )
                for predicate in query.predicates:
                    assert predicate.table in query.tables

    def test_respects_table_bounds(self):
        config = FuzzConfig(min_tables=2, max_tables=3, max_rows=20)
        for index in range(20):
            case = build_case(9, index, config)
            assert 2 <= len(case.database.tables) <= 3
            for table in case.database.tables.values():
                assert table.num_rows <= 20


class TestCoverage:
    """Across a modest sweep, the generator must actually produce the
    edge cases the checker exists to exercise."""

    def test_sweep_covers_the_targeted_edge_cases(self):
        saw_empty = saw_single = saw_nullable_key = False
        saw_fk_fk = saw_duplicate_key = saw_multi_join = False
        for index in range(60):
            database = build_case(1, index).database
            sizes = [t.num_rows for t in database.tables.values()]
            saw_empty = saw_empty or 0 in sizes
            saw_single = saw_single or 1 in sizes
            for edge in database.join_graph.edges:
                saw_fk_fk = saw_fk_fk or not edge.one_to_many
                for table, column in (
                    (edge.left, edge.left_column),
                    (edge.right, edge.right_column),
                ):
                    col = database.tables[table].column(column)
                    saw_nullable_key = saw_nullable_key or bool(
                        col.null_mask.any()
                    )
                    values = col.values[~col.null_mask]
                    saw_duplicate_key = saw_duplicate_key or len(
                        values
                    ) != len(np.unique(values))
            saw_multi_join = saw_multi_join or any(
                len(q.tables) >= 3 for q in build_case(1, index).queries
            )
        assert saw_empty, "no empty table in 60 cases"
        assert saw_single, "no single-row table in 60 cases"
        assert saw_nullable_key, "no NULL join keys in 60 cases"
        assert saw_fk_fk, "no FK-FK edge in 60 cases"
        assert saw_duplicate_key, "no duplicate join keys in 60 cases"
        assert saw_multi_join, "no 3+-way join query in 60 cases"


class TestKeyDomains:
    """A share of cases moves its join keys onto a strided / offset
    domain so the oracle sees both branches of the hash-join kernel."""

    @staticmethod
    def _edge_builds(database):
        for edge in database.join_graph.edges:
            build = database.tables[edge.right].column(edge.right_column)
            probe = database.tables[edge.left].column(edge.left_column)
            if (~build.null_mask).any():
                yield build, probe

    def test_sweep_reaches_both_branches_and_the_int64_limits(self):
        saw_direct = saw_binary = saw_limit = False
        limits = np.iinfo(np.int64)
        for index in range(60):
            database = build_case(1, index).database
            for build, probe in self._edge_builds(database):
                direct = JoinBuild(
                    build.values, ~build.null_mask, probe_rows=len(probe.values)
                ).direct
                saw_direct = saw_direct or direct
                saw_binary = saw_binary or not direct
                saw_limit = saw_limit or bool(
                    (build.values > limits.max - 10**6).any()
                    or (build.values < limits.min + 10**6).any()
                )
        assert saw_direct, "no dense key domain in 60 cases"
        assert saw_binary, "no sparse key domain in 60 cases"
        assert saw_limit, "no key domain at an int64 limit in 60 cases"

    def test_moving_the_key_domain_changes_no_count(self):
        dense = FuzzConfig(sparse_key_probability=0.0)
        moved = FuzzConfig(sparse_key_probability=1.0)
        for index in range(25):
            before, after = build_case(2, index, dense), build_case(2, index, moved)
            counts_before = TrueCardinalityService(before.database)
            counts_after = TrueCardinalityService(after.database)
            for q_before, q_after in zip(before.queries, after.queries):
                assert counts_before.sub_plan_cards(
                    q_before
                ) == counts_after.sub_plan_cards(q_after)
