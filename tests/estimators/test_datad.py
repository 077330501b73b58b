"""Per-method tests for the data-driven estimators."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.engine.jointree import JoinTree
from repro.engine.query import Query
from repro.estimators.datad import (
    BayesCardEstimator,
    DeepDBEstimator,
    FlatEstimator,
    NeuroCardEstimator,
)
from repro.estimators.datad.bayescard import ChowLiuTreeModel, _mutual_information
from repro.estimators.datad.deepdb import LeafNode, SumNode, SumProductNetwork
from repro.estimators.datad.flat import FactorizedSPN, MultiLeafNode
from repro.estimators.datad.neurocard import spanning_trees
from repro.estimators.ml.made import MadeModel
from tests.estimators.conftest import median_q_error


def correlated_binned(n=6_000, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 8, n)
    b = np.where(rng.random(n) < 0.85, a // 2, rng.integers(0, 4, n))
    c = rng.integers(0, 5, n)
    return {"a": a, "b": b, "c": c}, {"a": 8, "b": 4, "c": 5}


def coverage(bins, allowed):
    out = np.zeros(bins)
    out[list(allowed)] = 1.0
    return out


class TestChowLiuModel:
    def test_prob_matches_empirical(self):
        binned, bins = correlated_binned()
        model = ChowLiuTreeModel(binned, bins)
        empirical = ((binned["a"] <= 3) & (binned["b"] <= 1)).mean()
        estimated = model.prob({"a": coverage(8, range(4)), "b": coverage(4, range(2))})
        assert abs(estimated - empirical) < 0.03

    def test_structure_links_correlated_pair(self):
        binned, bins = correlated_binned()
        model = ChowLiuTreeModel(binned, bins)
        assert model._parent["b"] == "a" or model._parent["a"] == "b"

    def test_prob_by_bin_sums_to_prob(self):
        binned, bins = correlated_binned()
        model = ChowLiuTreeModel(binned, bins)
        coverages = {"a": coverage(8, range(4))}
        vector = model.prob_by_bin(coverages, "c")
        assert vector.sum() == pytest.approx(model.prob(coverages), rel=1e-6)

    def test_update_shifts_distribution(self):
        binned, bins = correlated_binned()
        model = ChowLiuTreeModel(binned, bins)
        before = model.prob({"c": coverage(5, {4})})
        heavy_c = {k: v.copy() for k, v in binned.items()}
        heavy_c["c"] = np.full_like(binned["c"], 4)
        model.update(heavy_c)
        after = model.prob({"c": coverage(5, {4})})
        assert after > before

    def test_mutual_information_orders_dependence(self):
        binned, bins = correlated_binned()
        mi_ab = _mutual_information(binned["a"], binned["b"], 8, 4)
        mi_ac = _mutual_information(binned["a"], binned["c"], 8, 5)
        assert mi_ab > mi_ac


class TestSPN:
    def test_prob_matches_empirical(self):
        binned, bins = correlated_binned()
        spn = SumProductNetwork(binned, bins, seed=3)
        empirical = ((binned["a"] <= 3) & (binned["b"] <= 1)).mean()
        estimated = spn.prob({"a": coverage(8, range(4)), "b": coverage(4, range(2))})
        assert abs(estimated - empirical) < 0.05

    def test_prob_by_bin_consistent(self):
        binned, bins = correlated_binned()
        spn = SumProductNetwork(binned, bins, seed=3)
        coverages = {"b": coverage(4, {0, 1})}
        vector = spn.prob_by_bin(coverages, "a")
        assert vector.sum() == pytest.approx(spn.prob(coverages), rel=1e-6)

    def test_independent_column_becomes_product(self):
        binned, bins = correlated_binned()
        spn = SumProductNetwork(binned, bins, seed=3)
        from repro.estimators.datad.deepdb import ProductNode

        assert isinstance(spn.root, ProductNode)

    def test_update_preserves_structure(self):
        binned, bins = correlated_binned()
        spn = SumProductNetwork(binned, bins, seed=3)
        nodes_before = spn.node_count()
        spn.update({k: v[:500] for k, v in binned.items()})
        assert spn.node_count() == nodes_before

    @pytest.mark.parametrize("model", [SumProductNetwork, FactorizedSPN])
    def test_update_routes_training_rows_to_their_clusters(self, model):
        """Sum nodes route an update in k-means' standardised space, so
        re-inserting the training rows exactly doubles every count."""
        binned, bins = correlated_binned()
        spn = model(binned, bins, seed=3)
        sums = [node for node in _walk(spn.root) if isinstance(node, SumNode)]
        before = [node.counts.copy() for node in sums]
        assert sums
        spn.update(binned)
        for node, counts in zip(sums, before):
            assert np.array_equal(node.counts, 2 * counts)


class TestFSPN:
    def test_multi_leaf_for_highly_correlated(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 8, 6_000)
        b = a // 2  # deterministic: RDC ~ 1
        c = rng.integers(0, 5, 6_000)
        fspn = FactorizedSPN({"a": a, "b": b, "c": c}, {"a": 8, "b": 4, "c": 5}, seed=3)
        leaves = [n for n in _walk(fspn.root) if isinstance(n, MultiLeafNode)]
        assert leaves and set(leaves[0].columns) == {"a", "b"}

    def test_joint_beats_independence_on_deterministic_pair(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 8, 6_000)
        b = a // 2
        binned = {"a": a, "b": b}
        bins = {"a": 8, "b": 4}
        fspn = FactorizedSPN(binned, bins, seed=3)
        # P(a=0 and b=3) is exactly zero; a joint leaf knows that.
        estimated = fspn.prob({"a": coverage(8, {0}), "b": coverage(4, {3})})
        assert estimated < 0.01

    def test_prob_by_bin_inside_multi_leaf(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 8, 6_000)
        b = a // 2
        fspn = FactorizedSPN({"a": a, "b": b}, {"a": 8, "b": 4}, seed=3)
        vector = fspn.prob_by_bin({"a": coverage(8, range(2))}, "b")
        assert len(vector) == 4
        assert vector.sum() == pytest.approx(
            fspn.prob({"a": coverage(8, range(2))}), rel=1e-6
        )


def _walk(node):
    yield node
    for child in getattr(node, "children", []):
        yield from _walk(child)


def _model_digest(estimator) -> str:
    """sha256 over each table model's node kinds, scopes, leaf counts,
    sum weights and centroids (not the sum nodes' routing scale)."""
    digest = hashlib.sha256()
    for table in sorted(estimator._models):
        digest.update(table.encode())
        for node in _walk(estimator._models[table].root):
            digest.update(type(node).__name__.encode())
            digest.update(repr(sorted(node.scope)).encode())
            if isinstance(node, MultiLeafNode):
                digest.update(repr(node.all_columns).encode())
            if isinstance(node, (LeafNode, MultiLeafNode)):
                digest.update(np.ascontiguousarray(node.counts).tobytes())
            if isinstance(node, SumNode):
                digest.update(node.weights.tobytes())
                digest.update(node.centroids.tobytes())
    return digest.hexdigest()


#: Digests of the models the per-row RDC learned on the fixture database;
#: the distinct-value RDC must learn the same ones.
FIXTURE_MODEL_DIGESTS = {
    "DeepDB": "c371bc885efcb8463f30f459e654f10e4138b2edeed90122878eb00cc7ea7d1a",
    "FLAT": "663366495b818fe488568b0f9e9bcc65ad108c66d58e139395341fe97a652327",
}


@pytest.mark.parametrize("factory", [DeepDBEstimator, FlatEstimator])
def test_fixture_models_match_the_recorded_digest(stats_db, factory):
    estimator = factory().fit(stats_db)
    assert _model_digest(estimator) == FIXTURE_MODEL_DIGESTS[factory.name]


class TestEndToEndAccuracy:
    """Accuracy ordering on the evaluation workload must match the
    paper: data-driven PGM methods beat PostgreSQL; NeuroCard does not
    (observation O1/O3)."""

    def test_pgm_methods_beat_postgres(self, stats_db, eval_pairs):
        from repro.estimators.postgres import PostgresEstimator

        pg_median = median_q_error(PostgresEstimator().fit(stats_db), eval_pairs)
        for cls in (BayesCardEstimator, DeepDBEstimator, FlatEstimator):
            model_median = median_q_error(cls().fit(stats_db), eval_pairs)
            assert model_median <= pg_median * 1.5, cls.__name__


class TestNeuroCard:
    def test_spanning_trees_cover_all_edges(self, stats_db):
        rng = np.random.default_rng(0)
        trees = spanning_trees(stats_db, rng)
        covered = {
            frozenset(((e.left, e.left_column), (e.right, e.right_column)))
            for tree in trees
            for e in tree
        }
        expected = {
            frozenset(((e.left, e.left_column), (e.right, e.right_column)))
            for e in stats_db.join_graph.edges
        }
        assert covered == expected

    def test_single_tree_on_acyclic_schema(self, imdb_db):
        rng = np.random.default_rng(0)
        trees = spanning_trees(imdb_db, rng)
        assert len(trees) == 1
        assert len(trees[0]) == 5

    def test_better_on_star_schema_than_stats(self, imdb_db, stats_db, imdb_workload, stats_workload):
        """Observation O2/O3: NeuroCard works on the simplified IMDB but
        degrades on STATS."""
        imdb_nc = NeuroCardEstimator(num_samples=2_000, epochs=4, seed=5).fit(imdb_db)
        stats_nc = NeuroCardEstimator(num_samples=2_000, epochs=4, seed=5).fit(stats_db)
        imdb_pairs = [
            (labeled.query.subquery(s), c)
            for labeled in imdb_workload
            for s, c in labeled.sub_plan_true_cards.items()
        ]
        stats_pairs = [
            (labeled.query.subquery(s), c)
            for labeled in stats_workload
            for s, c in labeled.sub_plan_true_cards.items()
        ]
        assert median_q_error(imdb_nc, imdb_pairs) < median_q_error(
            stats_nc, stats_pairs
        )

    def test_update_retrains(self, stats_db):
        from repro.datasets.stats_db import split_by_date

        old, new = split_by_date(stats_db)
        estimator = NeuroCardEstimator(num_samples=800, epochs=2, max_trees=2).fit(old)
        for name, delta in new.items():
            if delta.num_rows:
                old.insert(name, delta)
        estimator.update(new)  # must not raise; retrains internally
        query = Query(tables=frozenset({"posts"}), name="posts")
        assert estimator.estimate(query) > 0
        # The re-sample read the live database's full outer join.
        for tree_model in estimator._trees:
            live = JoinTree(old, tree_model.tree, tree_model.tables[0])
            assert tree_model.full_join_size == live.total

    def test_sampled_full_join_is_pinned(self, stats_db, monkeypatch):
        """Each tree's encoded full-join sample and full-join size are
        pinned: the sampler may get faster, but not draw differently."""
        digests = []
        fit = MadeModel.fit

        def recording_fit(model, data, *args, **kwargs):
            digests.append(hashlib.sha256(data.tobytes()).hexdigest())
            return fit(model, data, *args, **kwargs)

        monkeypatch.setattr(MadeModel, "fit", recording_fit)
        estimator = NeuroCardEstimator(num_samples=300, epochs=1, max_trees=2).fit(stats_db)
        assert digests == [
            "62ca644d921b06e93c45d70b1aa469954eab4614cc019ccca5f2c06b6abf3dd1",
            "6346a4ca08e629e45e56d3da198a8bfd1c81f25e97e2cb914debbc2974e66a14",
        ]
        assert [t.full_join_size for t in estimator._trees] == [1877770596.0, 248057879.0]


_FIT_AND_ESTIMATE = """
import json
from repro.datasets.stats_db import StatsConfig, build_stats
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.datad.deepdb import DeepDBEstimator

db = build_stats(StatsConfig().scaled(0.03))
model = DeepDBEstimator().fit(db)
predicates = {
    "badges": Predicate("users", "Reputation", ">", 5),
    "comments": Predicate("comments", "Score", "<=", 2),
    "posts": Predicate("posts", "Score", ">=", 1),
}
queries = [
    Query(tables=edge.tables, join_edges=(edge,), predicates=(predicates[edge.right],))
    for edge in db.join_graph.edges[:3]
]
print(json.dumps([model.estimate(query) for query in queries]))
"""


_SUB_PLAN_ESTIMATES = """
import json
import numpy as np
from repro.core.injection import sub_plan_queries
from repro.datasets.stats_db import StatsConfig, build_stats
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.multihist import MultiHistEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.unisample import UniSampleEstimator
from repro.resilience.fallback import PostgresDefaultFallback

db = build_stats(StatsConfig().scaled(0.03))
tables, edges = {"users"}, []
for edge in db.join_graph.edges:  # a spanning tree over all eight tables
    if (edge.left in tables) != (edge.right in tables):
        tables |= edge.tables
        edges.append(edge)
columns = {
    "users": "Reputation", "badges": "Date", "posts": "Score",
    "comments": "Score", "votes": "CreationDate", "postHistory": "CreationDate",
    "postLinks": "CreationDate", "tags": "Count",
}
sub_plans = []
for shift, quantile in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
    predicates = tuple(
        Predicate(
            table,
            column,
            ("<=", "=", ">=")[(shift + index) % 3],
            float(np.quantile(db.tables[table].column(column).non_null_values(), quantile)),
        )
        for index, (table, column) in enumerate(columns.items())
    )
    query = Query(tables=frozenset(tables), join_edges=tuple(edges), predicates=predicates)
    # Two factors commute exactly; a product order shows from three on.
    sub_plans += [sub for subset, sub in sub_plan_queries(query).items() if len(subset) >= 3]
estimators = {
    "PostgreSQL": PostgresEstimator().fit(db),
    "MultiHist": MultiHistEstimator().fit(db),
    "UniSample": UniSampleEstimator().fit(db),
    "fallback": PostgresDefaultFallback(db),
}
out = {}
for name, estimator in estimators.items():
    out[name] = [float.hex(float(estimator.estimate(sub))) for sub in sub_plans]
    if hasattr(estimator, "estimate_batch"):
        out[f"{name} batch"] = [
            float.hex(float(value)) for value in estimator.estimate_batch(sub_plans)
        ]
print(json.dumps(out))
"""


def _run_under_hash_seed(script, hash_seed):
    import repro

    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


class TestProcessIndependence:
    def test_deepdb_fit_and_estimates_ignore_the_hash_seed(self):
        """Structure learning is seeded per table name; the seed must not
        go through ``hash(str)``, which is salted per process."""
        first = _run_under_hash_seed(_FIT_AND_ESTIMATE, "1")
        second = _run_under_hash_seed(_FIT_AND_ESTIMATE, "2")
        assert len(first) == 3 and all(value > 0 for value in first)
        assert first == second

    def test_per_table_products_ignore_the_hash_seed(self):
        """Per-table factors multiply in sorted table order, not in
        ``frozenset`` order, which follows the per-process string-hash
        salt; ``estimate`` and ``estimate_batch`` agree to the bit."""
        first = _run_under_hash_seed(_SUB_PLAN_ESTIMATES, "1")
        second = _run_under_hash_seed(_SUB_PLAN_ESTIMATES, "2")
        assert set(first) == {
            "PostgreSQL", "PostgreSQL batch", "MultiHist", "MultiHist batch",
            "UniSample", "UniSample batch", "fallback",
        }
        for name, values in first.items():
            assert len(values) > 300, name
            assert values == second[name], name
        for name in ("PostgreSQL", "MultiHist", "UniSample"):
            assert first[name] == first[f"{name} batch"], name
