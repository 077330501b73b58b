"""Tests for the Database container and its key indexes."""

import numpy as np

from repro.engine.types import ColumnKind, pages_for


def _lookup(index, key) -> np.ndarray:
    starts, counts = index.match(np.array([key]))
    return index.positions[starts[0] : starts[0] + counts[0]]


class TestSortedKeyIndex:
    """The sorted key index ``Database.index`` returns."""

    def test_lookup_and_count(self, tiny_db):
        index = tiny_db.index("posts", "OwnerUserId")
        owner = tiny_db.tables["posts"].column("OwnerUserId").values
        for key in (0, 17, 499):
            rows = _lookup(index, key)
            # Row order within a key is table order.
            assert rows.tolist() == np.nonzero(owner == key)[0].tolist()

    def test_counts_vectorised(self, tiny_db):
        index = tiny_db.index("posts", "OwnerUserId")
        keys = np.array([0, 1, 2, 10**9])
        starts, counts = index.match(keys)
        assert counts[-1] == 0
        # Element for element what binary search over the sorted keys gives.
        left = np.searchsorted(index.sorted_keys, keys, side="left")
        right = np.searchsorted(index.sorted_keys, keys, side="right")
        assert starts.tolist() == left.tolist()
        assert counts.tolist() == (right - left).tolist()
        for key, count in zip(keys[:-1], counts[:-1]):
            assert count == len(_lookup(index, int(key)))

    def test_excludes_nulls(self, stats_db):
        index = stats_db.index("votes", "UserId")
        votes = stats_db.tables["votes"].column("UserId")
        assert len(index.positions) == int((~votes.null_mask).sum())

    def test_nbytes(self, tiny_db):
        assert tiny_db.index("posts", "OwnerUserId").nbytes > 0


class TestDatabase:
    def test_index_cached(self, tiny_db):
        first = tiny_db.index("posts", "OwnerUserId")
        second = tiny_db.index("posts", "OwnerUserId")
        assert first is second

    def test_insert_invalidates_index(self, tiny_db):
        from repro.engine.database import Database

        # Shallow copy: insert() rebinds the table, leaving the shared
        # fixture untouched.
        database = Database("copy", dict(tiny_db.tables), tiny_db.join_graph)
        index_before = database.index("comments", "PostId")
        extra = database.tables["comments"].head(5)
        rows_before = database.tables["comments"].num_rows
        database.insert("comments", extra)
        assert database.tables["comments"].num_rows == rows_before + 5
        index_after = database.index("comments", "PostId")
        assert index_after is not index_before
        assert len(index_after.positions) == rows_before + 5
        assert tiny_db.tables["comments"].num_rows == rows_before

    def test_key_columns(self, stats_db):
        # comments.Id is a primary key but no schema edge joins on it.
        assert set(stats_db.key_columns("comments")) == {"PostId", "UserId"}
        assert stats_db.key_columns("users") == ("Id",)

    def test_sample_rows(self, tiny_db, rng):
        sample = tiny_db.sample_rows("users", 50, rng)
        assert sample.num_rows == 50
        oversized = tiny_db.sample_rows("users", 10**6, rng)
        assert oversized.num_rows == tiny_db.tables["users"].num_rows

    def test_totals(self, tiny_db):
        assert tiny_db.total_rows() == sum(
            t.num_rows for t in tiny_db.tables.values()
        )
        assert tiny_db.nbytes() > 0


class TestTypes:
    def test_dtype_mapping(self):
        assert ColumnKind.INT.dtype == np.dtype(np.int64)
        assert ColumnKind.FLOAT.dtype == np.dtype(np.float64)

    def test_pages_floor(self):
        assert pages_for(0, 1) == 1.0
        assert pages_for(10_000, 8) > 1.0
