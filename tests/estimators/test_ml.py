"""Tests for the numpy ML substrate (nn, gbdt, made, rdc, clustering)."""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.injection import sub_plan_queries
from repro.engine.sql import parse_query
from repro.estimators.ml.clustering import kmeans
from repro.estimators.ml.gbdt import GradientBoostedTrees, _RegressionTree
from repro.estimators.ml.made import MadeModel
from repro.estimators.ml.nn import MLP, AdamOptimizer, train_regressor
from repro.estimators.ml.rdc import pairwise_rdc, rdc
from repro.estimators.queryd import LWXGBEstimator
from repro.estimators.queryd.features import log_cardinality

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


class TestMLP:
    def test_learns_linear_function(self, rng):
        x = rng.normal(size=(800, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.3
        model = MLP(rng, [3, 32, 1])
        loss = train_regressor(model, x, y, rng, epochs=80)
        assert loss < 0.05

    def test_forward_shape(self, rng):
        model = MLP(rng, [4, 8, 2])
        assert model.forward(np.zeros((5, 4))).shape == (5, 2)

    def test_too_few_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            MLP(rng, [4])

    def test_gradient_check(self, rng):
        """Finite-difference check on a tiny network."""
        model = MLP(rng, [2, 3, 1])
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 1))

        def loss():
            return float(((model.forward(x) - y) ** 2).mean())

        base = model.forward(x)
        model.backward(2.0 * (base - y) / len(x))
        analytic = model.layers[0].grad_weight[0, 0]

        eps = 1e-6
        model.layers[0].weight[0, 0] += eps
        plus = loss()
        model.layers[0].weight[0, 0] -= 2 * eps
        minus = loss()
        model.layers[0].weight[0, 0] += eps
        numeric = (plus - minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_adam_moves_parameters(self, rng):
        model = MLP(rng, [2, 4, 1])
        before = model.layers[0].weight.copy()
        optimizer = AdamOptimizer(model.parameters, lr=0.1)
        model.forward(np.ones((3, 2)))
        model.backward(np.ones((3, 1)))
        optimizer.step(model.gradients)
        assert not np.allclose(before, model.layers[0].weight)


class TestGBDT:
    def test_learns_step_function(self, rng):
        x = rng.uniform(0, 1, size=(1_500, 2))
        y = np.where(x[:, 0] > 0.5, 3.0, -1.0)
        model = GradientBoostedTrees(num_trees=30).fit(x, y)
        prediction = model.predict(x)
        assert ((prediction > 1.0) == (y > 1.0)).mean() > 0.97

    def test_learns_interaction(self, rng):
        x = rng.uniform(0, 1, size=(2_000, 2))
        y = (x[:, 0] > 0.5).astype(float) * (x[:, 1] > 0.5).astype(float)
        model = GradientBoostedTrees(num_trees=60).fit(x, y)
        rmse = float(np.sqrt(((model.predict(x) - y) ** 2).mean()))
        assert rmse < 0.2

    def test_constant_target(self, rng):
        x = rng.uniform(size=(100, 2))
        model = GradientBoostedTrees(num_trees=5).fit(x, np.full(100, 7.0))
        assert np.allclose(model.predict(x), 7.0, atol=1e-6)

    def test_nbytes_grows_with_trees(self, rng):
        x = rng.uniform(size=(500, 2))
        y = x[:, 0]
        small = GradientBoostedTrees(num_trees=5).fit(x, y)
        large = GradientBoostedTrees(num_trees=50).fit(x, y)
        assert large.nbytes() > small.nbytes()


def _loop_best_split(self, x, residuals):
    """Per-feature loop split search: the reference the one-pass
    ``_RegressionTree._best_split`` must reproduce bit for bit."""
    n, num_features = x.shape
    total_sum = residuals.sum()
    best_gain = 1e-9
    best = None
    base_score = total_sum**2 / (n + self._l2)
    for feature in range(num_features):
        column = x[:, feature]
        low, high = column.min(), column.max()
        if high <= low:
            continue
        edges = np.linspace(low, high, self._num_bins + 1)[1:-1]
        bins = np.searchsorted(edges, column, side="right")
        bin_counts = np.bincount(bins, minlength=self._num_bins)
        bin_sums = np.bincount(bins, weights=residuals, minlength=self._num_bins)
        left_counts = np.cumsum(bin_counts)[:-1]
        left_sums = np.cumsum(bin_sums)[:-1]
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        valid = (left_counts >= self._min_leaf) & (right_counts >= self._min_leaf)
        if not valid.any():
            continue
        gains = (
            left_sums**2 / (left_counts + self._l2)
            + right_sums**2 / (right_counts + self._l2)
            - base_score
        )
        gains[~valid] = -np.inf
        candidate = int(np.argmax(gains))
        if gains[candidate] > best_gain:
            best_gain = float(gains[candidate])
            best = (feature, float(edges[candidate]))
    return best


def _loop_forest(x, y, **params) -> GradientBoostedTrees:
    with mock.patch.object(_RegressionTree, "_best_split", _loop_best_split):
        return GradientBoostedTrees(**params).fit(x, y)


def _assert_same_forest(got: GradientBoostedTrees, want: GradientBoostedTrees):
    assert got._base == want._base
    for got_array, want_array in zip(got._flatten(), want._flatten(), strict=True):
        assert np.array_equal(got_array, want_array)


@pytest.fixture(scope="module")
def perf_stats():
    """The perf benchmark's inputs module and its quick STATS database."""
    spec = importlib.util.spec_from_file_location("perf_inputs", PERF / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs, inputs.build_database("stats", inputs.SetupClock())


def _perf_lwxgb(perf_stats, seed: int) -> tuple[LWXGBEstimator, list]:
    """LW-XGB fitted as the serving benchmark fits it, on its examples."""
    inputs, database = perf_stats
    examples = inputs.training_examples(database, seed, inputs.SetupClock())
    return LWXGBEstimator().fit(database).fit_queries(examples), examples


class TestGBDTOnePassSplit:
    """The one-pass split search fits the same forest as the loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_perf_training_matrix(self, perf_stats, seed):
        estimator, examples = _perf_lwxgb(perf_stats, seed)
        features = estimator._featurizer.flat_batch([q for q, _ in examples])
        targets = np.array([log_cardinality(c) for _, c in examples])
        assert features.shape[0] == len(examples) and np.isfinite(features).all()
        _assert_same_forest(estimator._model, _loop_forest(features, targets))

    @pytest.mark.parametrize("min_samples_leaf", [1, 4, 10, 11])
    def test_min_samples_leaf_boundary(self, rng, min_samples_leaf):
        # 21 rows: a leaf of 10 leaves room for exactly two split sizes.
        x = rng.integers(0, 5, size=(21, 3)).astype(float)
        y = rng.normal(size=21)
        params = dict(num_trees=4, max_depth=3, min_samples_leaf=min_samples_leaf)
        _assert_same_forest(
            GradientBoostedTrees(**params).fit(x, y), _loop_forest(x, y, **params)
        )

    def test_constant_column_is_skipped(self):
        # With no leaf minimum a constant column's split would gain
        # right_score - base_score: zero in exact arithmetic, but one
        # ulp here, as the array square and the scalar pow round apart.
        x = np.array([[0.5, 1.46937657], [0.5, 0.87743735], [0.5, 1.42040945]])
        residuals = np.array(
            [1.268407254226905e66, 1.8657701681767836e66, 5.454827935956096e65]
        )
        tree = _RegressionTree(min_samples_leaf=0)
        assert _loop_best_split(tree, x, residuals) is None
        assert tree._best_split(x, residuals) is None

    def test_feature_with_a_nan_gain_loses(self):
        # Feature 0's bins sum to +inf and -inf, so its third gain is NaN;
        # the loop drops feature 0 and splits on feature 1.
        big = 1e308
        x = np.array([[0.0, 0.0], [0.5, 1.0], [0.0, 0.0], [0.5, 1.0], [1.0, 1.0]])
        residuals = np.array([big, -big, big, -big, 0.0])
        tree = _RegressionTree(min_samples_leaf=1, num_bins=4)
        with np.errstate(all="ignore"):
            want = _loop_best_split(tree, x, residuals)
            assert want is not None and want[0] == 1
            assert tree._best_split(x, residuals) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite(self, bad):
        x = np.column_stack([np.arange(20.0), np.zeros(20)])
        y = np.arange(20.0)
        x_bad, y_bad = x.copy(), y.copy()
        x_bad[3, 1] = bad
        y_bad[5] = bad
        with pytest.raises(ValueError):
            GradientBoostedTrees(num_trees=2).fit(x_bad, y)
        with pytest.raises(ValueError):
            GradientBoostedTrees(num_trees=2).fit(x, y_bad)

    def test_predict_is_independent_of_the_batch(self, rng):
        x = rng.normal(size=(300, 4))
        y = x[:, 0] * 3 + np.sin(x[:, 1])
        model = GradientBoostedTrees(num_trees=40).fit(x, y)
        batch = model.predict(x)
        assert [model.predict_one(row) for row in x] == list(batch)
        assert list(model.predict(x[::-1])) == list(batch[::-1])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(4, 60),
    num_features=st.integers(1, 6),
    exponent=st.integers(-300, 300),
    target_exponent=st.sampled_from([-3, 0, 3, 160]),
    kind=st.sampled_from(["normal", "duplicates", "constant", "subnormal", "huge"]),
    num_bins=st.sampled_from([1, 2, 3, 32]),
    leaf_share=st.sampled_from([0, 3, 2]),
)
def test_one_pass_split_matches_loop(
    seed, rows, num_features, exponent, target_exponent, kind, num_bins, leaf_share
):
    """Constant columns, ties, subnormal steps, ranges that overflow,
    gains that overflow, and leaf sizes at the split boundary."""
    rng = np.random.default_rng(seed)
    shape = (rows, num_features)
    scale = 10.0**exponent
    if kind == "normal":
        x = rng.normal(size=shape) * scale
    elif kind == "duplicates":
        x = rng.integers(0, 4, size=shape) * scale
    elif kind == "constant":
        x = np.full(shape, rng.normal() * scale)
        x[:, -1] = rng.normal(size=rows)
    elif kind == "subnormal":
        x = np.nextafter(0.0, 1.0) * rng.integers(0, 12, size=shape)
    else:
        x = rng.choice([-1.7e308, 0.0, 1e300, 1.7e308], size=shape)
    y = rng.normal(size=rows) * 10.0**target_exponent
    params = dict(
        num_trees=3,
        max_depth=3,
        num_bins=num_bins,
        min_samples_leaf=rows // leaf_share if leaf_share else 1,
    )
    with np.errstate(all="ignore"):
        fast = GradientBoostedTrees(**params).fit(x, y)
        _assert_same_forest(fast, _loop_forest(x, y, **params))


def test_lwxgb_estimate_is_independent_of_the_batch(perf_stats):
    """A served estimate must not change with the request it is batched
    with: every STATS-CEB sub-plan of the perf pool, alone and paired."""
    inputs, database = perf_stats
    estimator, _ = _perf_lwxgb(perf_stats, seed=0)
    queries = [
        sub_query
        for _, sql in inputs.load_pool("stats-ceb")
        for sub_query in sub_plan_queries(
            parse_query(sql, join_graph=database.join_graph)
        ).values()
    ]
    assert len(queries) == 778
    for index, query in enumerate(queries):
        other = queries[(index + 1) % len(queries)]
        alone = estimator.estimate_batch([query])[0]
        assert estimator.estimate_batch([query, other])[0] == alone, index
    assert estimator.estimate_batch(queries) == [
        estimator.estimate_batch([query])[0] for query in queries
    ]


class TestMade:
    def test_learns_joint_distribution(self):
        rng = np.random.default_rng(0)
        n = 15_000
        a = rng.integers(0, 6, n)
        b = (a + rng.integers(0, 2, n)) % 6
        model = MadeModel([6, 6], hidden_sizes=(32, 32), seed=1)
        model.fit(np.column_stack([a, b]), epochs=8)
        cov_a = np.zeros(6)
        cov_a[0] = 1.0
        estimated = model.prob([cov_a, None], num_samples=256)
        assert estimated == pytest.approx((a == 0).mean(), abs=0.03)

    def test_conditional_dependence_captured(self):
        rng = np.random.default_rng(0)
        n = 15_000
        a = rng.integers(0, 4, n)
        b = a  # deterministic copy
        model = MadeModel([4, 4], hidden_sizes=(32, 32), seed=1)
        model.fit(np.column_stack([a, b]), epochs=10)
        cov_a = np.zeros(4)
        cov_a[2] = 1.0
        cov_b_wrong = np.zeros(4)
        cov_b_wrong[0] = 1.0
        joint_wrong = model.prob([cov_a, cov_b_wrong], num_samples=256)
        cov_b_right = np.zeros(4)
        cov_b_right[2] = 1.0
        joint_right = model.prob([cov_a, cov_b_right], num_samples=256)
        assert joint_right > 10 * max(joint_wrong, 1e-9)

    def test_weight_columns_scale_estimate(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 3, size=(5_000, 1))
        model = MadeModel([3], hidden_sizes=(16,), seed=1)
        model.fit(data, epochs=5)
        halves = np.full(3, 0.5)
        weighted = model.prob([None], num_samples=128, weight_columns=[(0, halves)])
        assert weighted == pytest.approx(0.5, abs=0.05)

    def test_unconstrained_prob_is_one(self):
        model = MadeModel([3, 3], seed=1)
        assert model.prob([None, None]) == 1.0

    def test_empty_region_is_zero(self):
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.integers(1, 3, 2_000)])
        model = MadeModel([4], hidden_sizes=(16,), seed=1)
        model.fit(data, epochs=5)
        nothing = np.zeros(4)
        assert model.prob([nothing], num_samples=64) == 0.0


class TestRdc:
    def test_detects_nonlinear_dependence(self, rng):
        x = rng.normal(size=2_000)
        y = np.cos(x) + 0.05 * rng.normal(size=2_000)
        independent = rng.normal(size=2_000)
        assert rdc(x, y) > 0.5
        assert rdc(x, independent) < 0.3

    def test_constant_input(self, rng):
        assert rdc(np.zeros(100), rng.normal(size=100)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rdc(np.zeros(5), np.zeros(6))

    def test_range(self, rng):
        value = rdc(rng.normal(size=500), rng.normal(size=500))
        assert 0.0 <= value <= 1.0

    def test_pairwise_matches_rdc_per_pair(self, rng):
        base = rng.normal(size=300)
        samples = [
            base,
            np.cos(base) + 0.1 * rng.normal(size=300),
            np.zeros(300),
            rng.integers(0, 3, 300),
            rng.normal(size=300),
        ]
        scores = pairwise_rdc(samples)
        assert list(scores) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for (i, j), score in scores.items():
            assert score == rdc(samples[i], samples[j], seed=i * 131 + j)


# The per-row RDC that ``ml/rdc.py`` replaced, kept as the reference:
# every row's sine features, plain means and covariances, and one
# whitening and SVD per pair.


def _copula(values):
    from scipy import stats as scipy_stats

    values = np.asarray(values, dtype=np.float64)
    if len(values) < 3 or np.ptp(values) == 0:
        return None
    ranks = scipy_stats.rankdata(values) / len(values)
    return np.column_stack([ranks, np.ones(len(values))])


def _rdc(cx, cy, seed, k=10, s=1.0):
    if cx is None or cy is None:
        return 0.0
    rng = np.random.default_rng(seed)
    fx = np.sin(cx @ rng.normal(0.0, s, size=(2, k)))
    fy = np.sin(cy @ rng.normal(0.0, s, size=(2, k)))
    return _max_canonical_correlation(fx, fy)


def _max_canonical_correlation(fx, fy):
    fx = fx - fx.mean(axis=0)
    fy = fy - fy.mean(axis=0)
    n = len(fx)
    cxx = fx.T @ fx / n + 1e-6 * np.eye(fx.shape[1])
    cyy = fy.T @ fy / n + 1e-6 * np.eye(fy.shape[1])
    cxy = fx.T @ fy / n
    inv_sqrt_xx = _inverse_sqrt(cxx)
    inv_sqrt_yy = _inverse_sqrt(cyy)
    m = inv_sqrt_xx @ cxy @ inv_sqrt_yy
    singular_values = np.linalg.svd(m, compute_uv=False)
    return float(np.clip(singular_values.max(initial=0.0), 0.0, 1.0))


def _inverse_sqrt(matrix):
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues = np.maximum(eigenvalues, 1e-9)
    return eigenvectors @ np.diag(eigenvalues**-0.5) @ eigenvectors.T


def _binned_column(n):
    """``n`` codes below a bin count of 1 (constant) to 8: ties everywhere."""
    return st.integers(1, 8).flatmap(
        lambda bins: st.lists(st.integers(0, bins - 1), min_size=n, max_size=n)
    )


#: 2-4 equal-length binned columns, n from 0 (so n < 3 is drawn too).
binned_samples = st.integers(0, 200).flatmap(
    lambda n: st.lists(_binned_column(n), min_size=2, max_size=4)
).map(lambda columns: [np.asarray(c, dtype=np.int64) for c in columns])


@st.composite
def continuous_samples(draw):
    """Normal columns, one a noisy function of the first, one binned."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=n)
    return [
        base,
        np.cos(base) + 0.1 * rng.normal(size=n),
        rng.normal(size=n),
        rng.integers(0, draw(st.integers(1, 33)), n),
    ][: draw(st.integers(2, 4))]


@settings(max_examples=60, deadline=None)
@given(st.one_of(binned_samples, continuous_samples()))
def test_rdc_matches_the_per_row_reference(samples):
    copulas = [_copula(sample) for sample in samples]
    for (i, j), score in pairwise_rdc(samples).items():
        assert abs(score - _rdc(copulas[i], copulas[j], seed=i * 131 + j)) <= 1e-9
    for i in range(1, len(samples)):
        want = _rdc(copulas[0], copulas[i], seed=5)
        assert abs(rdc(samples[0], samples[i], seed=5) - want) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(binned_samples, continuous_samples()),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_increasing_relabelling_keeps_every_score(samples, which, seed):
    """Scores depend on ranks only: a strictly increasing map of one
    column's values, ties kept, leaves every score bit-equal."""
    which %= len(samples)
    distinct, codes = np.unique(samples[which], return_inverse=True)
    steps = np.random.default_rng(seed).uniform(0.5, 50.0, size=len(distinct))
    relabelled = list(samples)
    relabelled[which] = (np.cumsum(steps) - 1e3)[codes]
    assert pairwise_rdc(relabelled) == pairwise_rdc(samples)
    other = (which + 1) % len(samples)
    assert rdc(relabelled[which], samples[other]) == rdc(samples[which], samples[other])


class TestKMeans:
    def test_separates_two_blobs(self, rng):
        blob_a = rng.normal(0, 0.2, size=(200, 2))
        blob_b = rng.normal(5, 0.2, size=(200, 2))
        data = np.vstack([blob_a, blob_b])
        labels = kmeans(data, 2, rng)
        assert len(np.unique(labels)) == 2
        assert len(np.unique(labels[:200])) == 1
        assert labels[0] != labels[200]

    def test_never_collapses_to_one_cluster(self, rng):
        data = rng.integers(0, 8, size=(500, 2)).astype(float)
        labels = kmeans(data, 2, rng)
        assert len(np.unique(labels)) == 2

    def test_degenerate_sizes(self, rng):
        assert len(kmeans(np.empty((0, 2)), 2, rng)) == 0
        assert list(kmeans(np.ones((3, 2)), 1, rng)) == [0, 0, 0]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(10, 60))
def test_kmeans_labels_within_k(k, n):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(n, 3))
    labels = kmeans(data, k, rng)
    assert labels.min() >= 0 and labels.max() < k
