"""Tests for the result-reuse caches (LRU byte cache + the selection cache)."""

import numpy as np
import pytest

from repro.core.truecards import TrueCardinalityService
from repro.engine.cache import LRUByteCache, default_sizer, predicates_key
from repro.engine.predicates import Predicate, conjunction_mask
from repro.obs import metrics as obs_metrics

from tests.conftest import make_tiny_db


class TestLRUByteCache:
    def test_hit_and_miss(self):
        cache = LRUByteCache(1024)
        assert cache.get("a") is None
        cache.put("a", 1, nbytes=10)
        assert cache.get("a") == 1
        assert "a" in cache and len(cache) == 1

    def test_evicts_least_recently_used(self):
        cache = LRUByteCache(100)
        cache.put("a", "A", nbytes=40)
        cache.put("b", "B", nbytes=40)
        cache.get("a")  # refresh: "b" is now the cold entry
        cache.put("c", "C", nbytes=40)
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"

    def test_budget_respected(self):
        cache = LRUByteCache(100)
        for i in range(10):
            cache.put(i, i, nbytes=30)
        assert cache.resident_bytes <= cache.budget_bytes

    def test_oversized_value_not_stored(self):
        cache = LRUByteCache(100)
        cache.put("big", "x", nbytes=101)
        assert "big" not in cache
        assert cache.resident_bytes == 0

    def test_replacing_key_updates_bytes(self):
        cache = LRUByteCache(100)
        cache.put("a", "old", nbytes=60)
        cache.put("a", "new", nbytes=20)
        assert cache.resident_bytes == 20
        assert cache.get("a") == "new"

    def test_clear(self):
        cache = LRUByteCache(100)
        cache.put("a", 1, nbytes=10)
        cache.clear()
        assert len(cache) == 0 and cache.resident_bytes == 0

    def test_default_sizer(self):
        array = np.arange(10, dtype=np.int64)
        assert default_sizer(array) == array.nbytes
        assert default_sizer((array, array)) == 2 * array.nbytes + 64
        assert default_sizer(7) == 64

    def test_counters_exported(self):
        obs_metrics.reset()
        cache = LRUByteCache(100, metric_prefix="cache.test")
        cache.get("missing")
        cache.put("k", 1, nbytes=10)
        cache.get("k")
        counters = obs_metrics.snapshot()["counters"]
        assert counters["cache.test.misses"] == 1
        assert counters["cache.test.hits"] == 1
        obs_metrics.reset()

    def test_counters_registered_eagerly_at_zero(self):
        """A fresh cache is visible in snapshots (and Prometheus
        exports) before any traffic touches it."""
        obs_metrics.reset()
        LRUByteCache(100, metric_prefix="cache.fresh")
        snapshot = obs_metrics.snapshot()
        assert snapshot["counters"]["cache.fresh.hits"] == 0
        assert snapshot["counters"]["cache.fresh.misses"] == 0
        assert snapshot["counters"]["cache.fresh.evictions"] == 0
        assert snapshot["gauges"]["cache.fresh.bytes"] == 0
        obs_metrics.reset()

    def test_counters_survive_registry_reset(self):
        cache = LRUByteCache(100, metric_prefix="cache.test2")
        cache.get("missing")
        obs_metrics.reset()
        cache.get("missing")
        assert obs_metrics.snapshot()["counters"]["cache.test2.misses"] == 1
        obs_metrics.reset()


class TestPredicatesKey:
    def test_order_insensitive(self):
        a = Predicate("t", "x", ">=", 1.0)
        b = Predicate("t", "y", "<=", 2.0)
        assert predicates_key((a, b)) == predicates_key((b, a))

    def test_distinguishes_values(self):
        a = Predicate("t", "x", ">=", 1.0)
        b = Predicate("t", "x", ">=", 2.0)
        assert predicates_key((a,)) != predicates_key((b,))

    def test_in_tuples_hashable(self):
        p = Predicate("t", "x", "in", (1.0, 2.0))
        hash(predicates_key((p,)))


class TestExecutionContext:
    """The selection-vector cache the true-cardinality service keeps."""

    @pytest.fixture()
    def db(self):
        return make_tiny_db()

    def test_selection_rows_match_mask(self, db):
        service = TrueCardinalityService(db)
        predicates = (Predicate("posts", "Score", ">=", 10),)
        rows = service.selection_rows("posts", predicates)
        expected = np.nonzero(conjunction_mask(db.tables["posts"], list(predicates)))[0]
        np.testing.assert_array_equal(rows, expected)

    def test_repeated_call_is_cached(self, db):
        service = TrueCardinalityService(db)
        predicates = (Predicate("posts", "Score", ">=", 10),)
        first = service.selection_rows("posts", predicates)
        second = service.selection_rows("posts", predicates)
        assert first is second  # shared array, no recompute

    def test_insert_invalidates(self, db):
        service = TrueCardinalityService(db)
        predicates = (Predicate("posts", "Score", ">=", 10),)
        before = service.selection_rows("posts", predicates)
        batch = db.tables["posts"].take(np.arange(5))
        db.insert("posts", batch)
        after = service.selection_rows("posts", predicates)
        assert after is not before
        expected = np.nonzero(conjunction_mask(db.tables["posts"], list(predicates)))[0]
        np.testing.assert_array_equal(after, expected)

    def test_explicit_invalidate(self, db):
        service = TrueCardinalityService(db)
        predicates = (Predicate("posts", "Score", ">=", 10),)
        service.selection_rows("posts", predicates)
        assert len(service.selection_cache) == 1
        service.invalidate()
        assert len(service.selection_cache) == 0
