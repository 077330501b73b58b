"""Tests for the labelled-workload builder and its cache.

The cache's on-disk form is the annotated SQL of
:func:`repro.workloads.sql_io.export_workload`.
"""

import pytest

from repro.cli import main
from repro.workloads import cache
from repro.workloads.generator import Workload
from repro.workloads.sql_io import export_workload, import_workload
from repro.workloads.stats_ceb import build_stats_ceb


def build_small(stats_db, cache_dir):
    return build_stats_ceb(
        stats_db,
        num_queries=10,
        num_templates=6,
        min_cardinality=5,
        max_cardinality=300_000,
        cache_dir=cache_dir,
    )


def cache_files(cache_dir):
    return sorted(cache_dir.glob("*.sql"))


@pytest.fixture(scope="module")
def cold(stats_db, tmp_path_factory):
    """A small workload built cold, and the directory it was cached in."""
    cache_dir = tmp_path_factory.mktemp("workloads")
    return build_small(stats_db, cache_dir), cache_dir


@pytest.fixture()
def cached(cold, tmp_path):
    """A private copy of the cold build's cache directory."""
    workload, cache_dir = cold
    (source,) = cache_files(cache_dir)
    (tmp_path / source.name).write_bytes(source.read_bytes())
    return workload, tmp_path / source.name


class TestRoundTrip:
    def test_workload_round_trips(self, stats_workload, stats_db, tmp_path):
        path = tmp_path / "wl.sql"
        export_workload(stats_workload, path)
        loaded = import_workload(
            path, stats_db.join_graph, stats_workload.name, stats_workload.database_name
        )
        assert loaded == stats_workload

    def test_predicate_values_survive(self, stats_workload, stats_db, tmp_path):
        path = tmp_path / "wl.sql"
        export_workload(stats_workload, path)
        loaded = import_workload(path, stats_db.join_graph)
        for original, restored in zip(stats_workload.queries, loaded.queries):
            assert restored.query.predicates == original.query.predicates
            for p_orig, p_rest in zip(original.query.predicates, restored.query.predicates):
                assert repr(p_rest.value) == repr(p_orig.value)


class TestCacheBehaviour:
    def test_warm_load_equals_cold_build(self, stats_db, cold):
        workload, cache_dir = cold
        assert len(workload) == 10
        assert build_small(stats_db, cache_dir) == workload

    def test_load_missing_returns_none(self, stats_db, cached):
        workload, path = cached
        path.unlink()
        assert build_small(stats_db, path.parent) == workload
        assert path.exists()

    def test_load_corrupt_returns_none(self, stats_db, cached):
        workload, path = cached
        path.write_text("-- workload: stats-ceb (10 queries, database stats)\nSELECT garbage\n")
        assert build_small(stats_db, path.parent) == workload
        assert build_small(stats_db, path.parent) == workload

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.999, -1])
    def test_truncated_file_is_rebuilt(self, stats_db, cached, keep):
        """A prefix of the file never loads as a shorter workload,
        wherever the cut falls (``-1``: just before the last newline)."""
        workload, path = cached
        content = path.read_bytes()
        cut = len(content) - 1 if keep == -1 else int(len(content) * keep)
        path.write_bytes(content[:cut])
        with pytest.raises(ValueError):
            import_workload(path, stats_db.join_graph)
        assert build_small(stats_db, path.parent) == workload
        assert path.read_bytes() == content

    def test_leftover_temporary_file_is_never_served(self, stats_db, cached):
        workload, path = cached
        content = path.read_bytes()
        path.unlink()
        leftover = path.with_name(f".{path.name}.12345.tmp")
        leftover.write_bytes(content[: len(content) // 2])
        assert build_small(stats_db, path.parent) == workload
        assert path.read_bytes() == content

    def test_fingerprint_stable_and_sensitive(self):
        a = cache.fingerprint({"x": 1, "y": 2})
        b = cache.fingerprint({"y": 2, "x": 1})
        c = cache.fingerprint({"x": 1, "y": 3})
        assert a == b
        assert a != c

    def test_database_checksum_changes_with_content(self, stats_db, imdb_db):
        assert cache.database_checksum(stats_db) != cache.database_checksum(imdb_db)

    def test_cached_path_layout(self, cold):
        _, cache_dir = cold
        (path,) = cache_files(cache_dir)
        assert path.name.startswith("stats-ceb-")
        assert [p.name for p in cache_dir.iterdir()] == [path.name]

    def test_save_empty_workload(self, tmp_path):
        workload = Workload(name="empty", database_name="db")
        path = tmp_path / "e.sql"
        export_workload(workload, path)
        assert import_workload(path, name="empty", database_name="db") == workload


def test_export_workload_is_the_cache_file(tmp_path, monkeypatch, capsys):
    """``repro export-workload`` writes the cache file's bytes."""
    monkeypatch.chdir(tmp_path)
    assert main(["export-workload", "--workload", "job-light", "--out", "w.sql"]) == 0
    (cached,) = cache_files(tmp_path / cache.DEFAULT_CACHE_DIR)
    assert cached.name.startswith("job-light-")
    assert (tmp_path / "w.sql").read_bytes() == cached.read_bytes()
