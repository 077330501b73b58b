"""Per-method tests for the traditional estimators."""

import numpy as np
import pytest

from repro.core.metrics import q_error
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.multihist import MultiHistEstimator, _bin_coverage
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.unisample import UniSampleEstimator
from repro.estimators.wjsample import WanderJoinEstimator


@pytest.fixture(scope="module")
def pg(stats_db):
    return PostgresEstimator().fit(stats_db)


class TestPostgres:
    def test_independence_multiplies(self, pg, stats_db):
        p1 = Predicate("posts", "Score", ">=", 10)
        p2 = Predicate("posts", "PostTypeId", "=", 1)
        single1 = pg.estimate(Query(frozenset({"posts"}), predicates=(p1,)))
        single2 = pg.estimate(Query(frozenset({"posts"}), predicates=(p2,)))
        both = pg.estimate(Query(frozenset({"posts"}), predicates=(p1, p2)))
        n = stats_db.tables["posts"].num_rows
        assert both == pytest.approx(single1 * single2 / n, rel=1e-6)

    def test_pk_fk_join_estimate_close(self, pg, stats_db, truecards):
        graph = stats_db.join_graph
        edge = graph.edges_between("users", "posts")[0]
        query = Query(frozenset({"users", "posts"}), join_edges=(edge,))
        truth = truecards.cardinality(query)
        assert q_error(pg.estimate(query), truth) < 3.0

    def test_update_refreshes_stats(self, stats_db):
        from repro.datasets.stats_db import split_by_date

        old, new = split_by_date(stats_db)
        estimator = PostgresEstimator().fit(old)
        before = estimator.estimate(Query(frozenset({"posts"})))
        for name, delta in new.items():
            if delta.num_rows:
                old.insert(name, delta)
        estimator.update(new)
        after = estimator.estimate(Query(frozenset({"posts"})))
        assert after > before

    def test_join_selectivity_within_unit(self, pg, stats_db):
        for edge in stats_db.join_graph.edges:
            assert 0.0 <= pg.join_selectivity(edge) <= 1.0


class TestMultiHist:
    def test_groups_correlated_columns(self, stats_db):
        estimator = MultiHistEstimator().fit(stats_db)
        groups = [h.columns for h in estimator._histograms["posts"]]
        assert any(len(g) > 1 for g in groups)

    def test_bin_coverage_point(self):
        edges = np.array([0.0, 10.0, 20.0])
        coverage = _bin_coverage(edges, 5.0, 5.0)
        assert coverage[0] == pytest.approx(0.1)
        assert coverage[1] == 0.0

    def test_bin_coverage_range(self):
        edges = np.array([0.0, 10.0, 20.0])
        coverage = _bin_coverage(edges, 5.0, 15.0)
        assert coverage[0] == pytest.approx(0.5)
        assert coverage[1] == pytest.approx(0.5)

    def test_correlated_filter_better_than_independence(self, stats_db, truecards):
        """The whole point of MultiHist: joint histograms beat the
        independence assumption on correlated predicates."""
        multihist = MultiHistEstimator().fit(stats_db)
        pg = PostgresEstimator().fit(stats_db)
        predicates = (
            Predicate("posts", "ViewCount", ">=", 100),
            Predicate("posts", "Score", ">=", 20),
        )
        query = Query(frozenset({"posts"}), predicates=predicates)
        truth = truecards.cardinality(query)
        assert q_error(multihist.estimate(query), truth) <= q_error(
            pg.estimate(query), truth
        ) * 1.5


class TestUniSample:
    def test_sample_bounded(self, stats_db):
        estimator = UniSampleEstimator(sample_size=500).fit(stats_db)
        assert all(s.num_rows <= 500 for s in estimator._samples.values())

    def test_rare_predicate_never_zero(self, stats_db):
        estimator = UniSampleEstimator(sample_size=100).fit(stats_db)
        predicate = Predicate("users", "Reputation", ">=", 19_000)
        query = Query(frozenset({"users"}), predicates=(predicate,))
        assert estimator.estimate(query) > 0.0

    def test_update_absorbs_rows(self, stats_db):
        from repro.datasets.stats_db import split_by_date

        old, new = split_by_date(stats_db)
        estimator = UniSampleEstimator(sample_size=1_000).fit(old)
        before = estimator.estimate(Query(frozenset({"comments"})))
        estimator.update(new)
        after = estimator.estimate(Query(frozenset({"comments"})))
        assert after > before


class TestWanderJoin:
    def test_unbiased_on_two_way_join(self, stats_db, truecards):
        graph = stats_db.join_graph
        edge = graph.edges_between("posts", "comments")[0]
        query = Query(frozenset({"posts", "comments"}), join_edges=(edge,))
        truth = truecards.cardinality(query)
        estimator = WanderJoinEstimator(num_walks=800).fit(stats_db)
        assert q_error(estimator.estimate(query), truth) < 2.0

    def test_zero_when_root_filter_empty(self, stats_db):
        graph = stats_db.join_graph
        edge = graph.edges_between("posts", "comments")[0]
        query = Query(
            frozenset({"posts", "comments"}),
            join_edges=(edge,),
            predicates=(Predicate("posts", "Score", ">=", 10**9),),
        )
        estimator = WanderJoinEstimator().fit(stats_db)
        assert estimator.estimate(query) == 0.0

    def test_model_free(self, stats_db):
        estimator = WanderJoinEstimator().fit(stats_db)
        assert estimator.model_size_bytes() == 0


class TestPessEst:
    def test_never_underestimates(self, stats_db, stats_workload):
        """The defining property of pessimistic estimation."""
        estimator = PessimisticEstimator().fit(stats_db)
        for labeled in stats_workload.queries:
            for subset, truth in labeled.sub_plan_true_cards.items():
                subquery = labeled.query.subquery(subset)
                estimate = estimator.estimate(subquery)
                assert estimate >= truth * 0.999, subquery.to_sql()

    def test_single_table_exact(self, stats_db):
        estimator = PessimisticEstimator().fit(stats_db)
        predicate = Predicate("users", "Reputation", "<=", 5)
        query = Query(frozenset({"users"}), predicates=(predicate,))
        truth = int(predicate.mask(stats_db.tables["users"]).sum())
        assert estimator.estimate(query) == truth

    def test_bound_not_absurdly_loose_on_two_way(self, stats_db, truecards):
        graph = stats_db.join_graph
        edge = graph.edges_between("users", "posts")[0]
        query = Query(frozenset({"users", "posts"}), join_edges=(edge,))
        truth = truecards.cardinality(query)
        estimator = PessimisticEstimator().fit(stats_db)
        assert estimator.estimate(query) <= truth * 50
    # -- one combination per distinct subtree; sketches bound to the data --------

    @staticmethod
    def _sub_plans(workload, name):
        from repro.core.injection import sub_plan_queries

        labeled = next(q for q in workload.queries if q.query.name == name)
        return list(sub_plan_queries(labeled.query).values())

    def test_batch_combines_each_subtree_once(self, stats_db, stats_workload, monkeypatch):
        estimator = PessimisticEstimator().fit(stats_db)
        sub_plans = self._sub_plans(stats_workload, "stats-ceb-q24")
        assert max(q.num_tables for q in sub_plans) >= 5
        calls = []
        inner = estimator._subtree_vectors
        monkeypatch.setattr(
            estimator, "_subtree_vectors", lambda *a: calls.append(1) or inner(*a)
        )

        def below(query, table, via):
            tables = {table}
            for edge in query.join_edges:
                if edge is not via and table in edge.tables:
                    tables |= below(query, edge.other(table), edge)
            return tables

        # (table, edge it hangs from, tables below) over every sub-plan and root
        distinct = {
            (table, edge, frozenset(below(query, table, edge)))
            for query in sub_plans
            for edge in query.join_edges
            for table in (edge.left, edge.right)
        }
        estimator.estimate_batch(sub_plans)
        batched = len(calls)
        assert 0 < batched <= len(distinct)
        for query in sub_plans:
            estimator.estimate(query)
        assert batched < len(calls) - batched

    def test_batch_is_the_loop_bit_for_bit(self, stats_db, stats_workload):
        """Two queries' sub-plans interleaved and shuffled in one batch."""
        estimator = PessimisticEstimator().fit(stats_db)
        batch = self._sub_plans(stats_workload, "stats-ceb-q24")
        batch += self._sub_plans(stats_workload, "stats-ceb-q19")
        np.random.default_rng(7).shuffle(batch)
        assert estimator.estimate_batch(batch) == [estimator.estimate(q) for q in batch]

    @pytest.mark.parametrize("tell_estimator", [True, False])
    def test_no_sketch_survives_an_insert(self, stats_db, stats_workload, tell_estimator):
        """Batched before the insert or fitted after it: same bounds,
        whether ``update`` is called or only ``data_version`` moved."""
        from repro.datasets.stats_db import split_by_date

        batch = self._sub_plans(stats_workload, "stats-ceb-q24")
        old, new = split_by_date(stats_db)
        estimator = PessimisticEstimator().fit(old)
        before = estimator.estimate_batch(batch)
        for name, delta in new.items():
            if delta.num_rows:
                old.insert(name, delta)
        if tell_estimator:
            estimator.update(new)
        after = estimator.estimate_batch(batch)
        assert after != before
        assert after == [PessimisticEstimator().fit(old).estimate(q) for q in batch]

    def test_saved_file_holds_no_sketches(self, stats_db, stats_workload, tmp_path):
        from repro.estimators.persistence import save_estimator

        estimator = PessimisticEstimator().fit(stats_db)
        unused = save_estimator(estimator, tmp_path / "unused.est")
        estimator.estimate_batch(self._sub_plans(stats_workload, "stats-ceb-q24"))
        assert save_estimator(estimator, tmp_path / "used.est") == unused
        assert estimator._store is not None  # saving did not drop the live store

    def test_other_database_gets_its_own_sketches(self, stats_db, stats_workload, tmp_path):
        """The reproduced bug: sketches of the database a file was saved
        on answered for the one it was loaded (or attached) to."""
        from repro.datasets.stats_db import split_by_date
        from repro.estimators.persistence import attach, load_estimator, save_estimator

        batch = self._sub_plans(stats_workload, "stats-ceb-q19")
        smaller, _ = split_by_date(stats_db)
        estimator = PessimisticEstimator().fit(smaller)
        on_smaller = estimator.estimate_batch(batch)
        save_estimator(estimator, tmp_path / "pessest.est")
        fresh = PessimisticEstimator().fit(stats_db).estimate_batch(batch)
        assert fresh != on_smaller

        loaded = load_estimator(tmp_path / "pessest.est", database=stats_db)
        assert loaded.estimate_batch(batch) == fresh
        attach(estimator, stats_db)
        assert estimator.estimate_batch(batch) == fresh

    def test_join_on_a_column_outside_the_join_graph(self, stats_db):
        """SQL may join columns the schema lists no edge for; their
        sketches are taken when first needed."""
        from repro.engine.sql import parse_query

        query = parse_query(
            "SELECT COUNT(*) FROM posts, votes WHERE posts.OwnerUserId = votes.UserId",
            join_graph=stats_db.join_graph,
        )
        posts, votes = (stats_db.tables[t] for t in ("posts", "votes"))
        owners = posts.column("OwnerUserId")
        voters = votes.column("UserId")
        matches = np.isin(
            voters.values[~voters.null_mask], owners.values[~owners.null_mask]
        ).sum()
        estimator = PessimisticEstimator().fit(stats_db)
        assert estimator.estimate(query) >= matches > 0
        assert estimator.estimate(query) == estimator.estimate_batch([query])[0]

    def test_concurrent_callers_share_the_sketch_store(
        self, stats_db, stats_workload, monkeypatch
    ):
        """More threads than cores on a store too small to hold every
        record, so gets, puts and evictions interleave."""
        import sys
        import threading

        from repro.estimators import pessest

        batches = [
            self._sub_plans(stats_workload, q.query.name)
            for q in stats_workload.queries[:8]
        ]
        expected = [PessimisticEstimator().fit(stats_db).estimate_batch(b) for b in batches]
        estimator = PessimisticEstimator().fit(stats_db)
        results: dict[int, list] = {}

        def worker(index: int) -> None:
            for _ in range(3):
                results[index] = estimator.estimate_batch(batches[index])

        monkeypatch.setattr(pessest, "SKETCH_CACHE_BYTES", 16 * 1024)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[i] for i in range(8)] == expected
        records = estimator._records()
        assert records.resident_bytes == sum(
            size for _, size in records._entries.values()
        ) <= records.budget_bytes

