"""Tests for the Table-1 dataset statistics."""

import numpy as np
import pytest

from repro.datasets.describe import (
    average_pairwise_correlation,
    average_skewness,
    describe,
    full_join_size,
    join_forms,
    total_domain_size,
)
from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.types import ColumnKind

from tests.engine.test_jointree import brute_force_weights, three_table_db


def two_table_db(parent_keys, child_keys):
    parent = TableSchema(
        "p", (ColumnMeta("id", is_key=True, filterable=False), ColumnMeta("v")),
        primary_key="id",
    )
    child = TableSchema(
        "c", (ColumnMeta("id", is_key=True, filterable=False),
              ColumnMeta("p_id", is_key=True, filterable=False), ColumnMeta("w")),
        primary_key="id",
    )
    graph = JoinGraph()
    graph.add(JoinEdge("p", "id", "c", "p_id"))
    return Database(
        name="pair",
        tables={
            "p": Table.from_arrays(
                parent, {"id": np.asarray(parent_keys), "v": np.zeros(len(parent_keys))}
            ),
            "c": Table.from_arrays(
                child,
                {
                    "id": np.arange(len(child_keys)),
                    "p_id": np.asarray(child_keys),
                    "w": np.zeros(len(child_keys)),
                },
            ),
        },
        join_graph=graph,
    )


class TestFullJoinSize:
    def test_pk_fk_outer_join_counted_exactly(self):
        # parent keys 0..2; children reference 0 twice, 1 once; parent 2
        # is unmatched and survives NULL-extended.
        db = two_table_db([0, 1, 2], [0, 0, 1])
        assert full_join_size(db) == 4.0

    def test_all_unmatched(self):
        db = two_table_db([5, 6], [0, 1, 2])
        # Rooted at the child (higher degree table is chosen as root
        # when ambiguous) or parent; either way every parent row is
        # NULL-extended: 2 from parents, or 3 child rows unmatched.
        assert full_join_size(db, root="p") == 2.0

    @pytest.mark.parametrize("root", [None, "a", "b", "c"])
    def test_nulls_dangling_keys_and_fan_out_match_nested_loops(self, root):
        db = three_table_db()
        tree_root = root or "a"  # the most primary table
        assert full_join_size(db, root=root) == sum(brute_force_weights(tree_root)[tree_root])

    def test_stats_larger_than_imdb(self, stats_db, imdb_db):
        assert full_join_size(stats_db) > full_join_size(imdb_db)


class TestStatistics:
    def test_domain_size_positive(self, stats_db):
        assert total_domain_size(stats_db) > 1_000

    def test_stats_more_skewed_than_imdb(self, stats_db, imdb_db):
        assert average_skewness(stats_db) > average_skewness(imdb_db)

    def test_skewness_matches_scipy_on_ties_constants_and_short_columns(self):
        """Columns of ties count, a constant column and one with fewer
        than three non-NULL values are skipped, as the scipy-based
        average did."""
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        columns = {
            "ties": rng.integers(0, 3, 50),
            "skewed": rng.zipf(1.7, 50).clip(max=500),
            "floats": rng.lognormal(size=50),
            "constant": np.full(50, 4),
            "short": np.arange(50),
        }
        nulls = {"short": np.arange(50) >= 2}
        schema = TableSchema(
            "t",
            tuple(
                ColumnMeta(name, kind=ColumnKind.FLOAT if name == "floats" else ColumnKind.INT)
                for name in columns
            ),
        )
        db = Database(
            name="skew",
            tables={"t": Table.from_arrays(schema, columns, nulls)},
            join_graph=JoinGraph(),
        )
        expected = np.mean(
            [abs(float(scipy_stats.skew(columns[name]))) for name in ("ties", "skewed", "floats")]
        )
        assert average_skewness(db) == pytest.approx(expected, rel=1e-12)

    def test_stats_more_correlated_than_imdb(self, stats_db, imdb_db):
        assert average_pairwise_correlation(stats_db) > average_pairwise_correlation(
            imdb_db
        )

    def test_join_forms(self, stats_db, imdb_db):
        assert join_forms(imdb_db) == "star"
        assert join_forms(stats_db) == "star/chain/mixed"


class TestDescribe:
    def test_summary_shape(self, stats_db):
        summary = describe(stats_db)
        assert summary.num_tables == 8
        assert summary.num_attributes == 23
        assert summary.num_join_relations == 12
        assert summary.attributes_per_table == (1, 7)

    def test_table1_direction(self, stats_db, imdb_db):
        """The Table-1 comparison must point the same way as the paper:
        STATS bigger, more skewed, more correlated, richer joins."""
        stats = describe(stats_db)
        imdb = describe(imdb_db)
        assert stats.num_tables > imdb.num_tables
        assert stats.num_attributes > imdb.num_attributes
        assert stats.full_join_size > imdb.full_join_size
        assert stats.average_skewness > imdb.average_skewness
        assert stats.average_correlation > imdb.average_correlation
        assert stats.num_join_relations > imdb.num_join_relations
