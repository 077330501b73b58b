"""Histogram gradient-boosted regression trees (the XGBoost stand-in).

Squared-loss boosting with depth-limited regression trees whose splits
are searched over per-feature histogram bins — the same model family
LW-XGB uses, sized for the benchmark's feature dimensions.

A node's split search bins and scores all of its features in one pass
over its ``(rows x features)`` block.  Every float operation is the one
a per-feature loop (``np.linspace`` edges, ``searchsorted``, two
``bincount``s, ``cumsum``) performs, on the same operands in the same
order, so the forest is bit-identical to that loop's; the tests keep
the loop as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _TreeNode:
    """One node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.feature is None:
            return np.full(len(x), self.value)
        go_left = x[:, self.feature] <= self.threshold
        out = np.empty(len(x))
        assert self.left is not None and self.right is not None
        out[go_left] = self.left.predict(x[go_left])
        out[~go_left] = self.right.predict(x[~go_left])
        return out

    def predict_one(self, row: np.ndarray) -> float:
        """Root-to-leaf walk for a single row (no array overhead).

        Per-estimate inference is the hot path of the benchmark (one
        call per sub-plan query), where the masked-array recursion of
        :meth:`predict` pays ~100x numpy overhead per tree.
        """
        node = self
        while node.feature is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
            assert node is not None
        return node.value

    def count_nodes(self) -> int:
        if self.feature is None:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + self.left.count_nodes() + self.right.count_nodes()


class _RegressionTree:
    """Depth-limited tree fit to residuals via histogram split search."""

    def __init__(
        self,
        max_depth: int = 5,
        min_samples_leaf: int = 8,
        num_bins: int = 32,
        l2: float = 1.0,
    ):
        self._max_depth = max_depth
        self._min_leaf = min_samples_leaf
        self._num_bins = num_bins
        self._l2 = l2
        self.root: _TreeNode | None = None

    def fit(self, x: np.ndarray, residuals: np.ndarray) -> "_RegressionTree":
        self.root = self._build(x, residuals, depth=0)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        assert self.root is not None, "predict() before fit()"
        return self.root.predict(x)

    def _build(self, x: np.ndarray, residuals: np.ndarray, depth: int) -> _TreeNode:
        value = float(residuals.sum() / (len(residuals) + self._l2))
        if depth >= self._max_depth or len(residuals) < 2 * self._min_leaf:
            return _TreeNode(value=value)
        split = self._best_split(x, residuals)
        if split is None:
            return _TreeNode(value=value)
        feature, threshold = split
        go_left = x[:, feature] <= threshold
        return _TreeNode(
            value=value,
            feature=feature,
            threshold=threshold,
            left=self._build(x[go_left], residuals[go_left], depth + 1),
            right=self._build(x[~go_left], residuals[~go_left], depth + 1),
        )

    def _best_split(self, x: np.ndarray, residuals: np.ndarray) -> tuple[int, float] | None:
        """Variance-gain-maximizing (feature, threshold) over histogram bins.

        Every feature of the node is scored in one pass over the whole
        ``(rows x features)`` block.
        """
        n, num_features = x.shape
        num_bins = self._num_bins
        width = num_bins + 1
        low, high = x.min(axis=0), x.max(axis=0)
        # Row f is np.linspace(low[f], high[f], num_bins + 1) in linspace's
        # own arithmetic, including its branch for a step that underflows.
        # The last point becomes +inf: no value lies beyond it.
        delta = high - low
        step = delta / num_bins
        points = np.arange(width, dtype=np.float64)
        grid = np.where(
            (step == 0)[:, None],
            points / num_bins * delta[:, None],
            points * step[:, None],
        ) + low[:, None]
        grid[:, -1] = np.inf
        edges = grid.ravel()
        # A value's bin is the number of interior edges <= it (what
        # searchsorted(side="right") returns): a floor guess, corrected
        # against the grid until it is exact.
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = np.fmin((x - low) / step, num_bins - 1).astype(np.intp)
        offsets = guess + np.arange(num_features) * width
        while True:
            up = edges.take(offsets + 1) <= x
            down = edges.take(offsets) > x
            if not (up.any() or down.any()):
                break
            offsets += up
            offsets -= down
        # One bincount over the feature-major offsets: each bin still sums
        # its rows in row order.
        offsets = offsets.ravel()
        size = num_features * width
        bin_counts = np.bincount(offsets, minlength=size).reshape(num_features, width)
        bin_sums = np.bincount(
            offsets, weights=np.repeat(residuals, num_features), minlength=size
        ).reshape(num_features, width)
        left_counts = np.cumsum(bin_counts[:, : num_bins - 1], axis=1)
        left_sums = np.cumsum(bin_sums[:, : num_bins - 1], axis=1)
        total_sum = residuals.sum()
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        base_score = total_sum**2 / (n + self._l2)
        gains = (
            left_sums**2 / (left_counts + self._l2)
            + right_sums**2 / (right_counts + self._l2)
            - base_score
        )
        valid = (left_counts >= self._min_leaf) & (right_counts >= self._min_leaf)
        gains[~valid | (high <= low)[:, None]] = -np.inf
        # Bin sums that overflow to +inf and -inf make a NaN gain; a
        # per-feature argmax stops at it, and the feature loses.
        gains[np.isnan(gains).any(axis=1)] = -np.inf
        if gains.size == 0:
            return None
        # The first maximum in feature-major order is the earliest feature's.
        winner = int(np.argmax(gains))
        if not gains.flat[winner] > 1e-9:
            return None
        feature, edge = divmod(winner, num_bins - 1)
        return feature, float(grid[feature, edge + 1])


class GradientBoostedTrees:
    """Squared-loss gradient boosting over histogram regression trees."""

    def __init__(
        self,
        num_trees: int = 120,
        learning_rate: float = 0.15,
        max_depth: int = 5,
        min_samples_leaf: int = 8,
        num_bins: int = 32,
    ):
        self._num_trees = num_trees
        self._learning_rate = learning_rate
        self._max_depth = max_depth
        self._min_leaf = min_samples_leaf
        self._num_bins = num_bins
        self._base: float = 0.0
        self._trees: list[_RegressionTree] = []
        #: lazily built flattened forest (see :meth:`_flatten`).
        self._forest: tuple[np.ndarray, ...] | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("GradientBoostedTrees.fit needs finite features and targets")
        self._base = float(y.mean()) if len(y) else 0.0
        prediction = np.full(len(y), self._base)
        self._trees = []
        self._forest = None
        for _ in range(self._num_trees):
            residuals = y - prediction
            tree = _RegressionTree(
                max_depth=self._max_depth,
                min_samples_leaf=self._min_leaf,
                num_bins=self._num_bins,
            ).fit(x, residuals)
            prediction += self._learning_rate * tree.predict(x)
            self._trees.append(tree)
        return self

    def _flatten(self) -> tuple[np.ndarray, ...]:
        """Pack every tree into parallel node arrays.

        ``features[i] == -1`` marks a leaf; interior nodes store
        absolute child indices, so one ``(rows x trees)`` index matrix
        can descend all trees for all rows in ``max_depth`` fancy-index
        steps instead of one Python recursion per (row, tree) pair.
        """
        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        roots: list[int] = []

        def add(node: _TreeNode) -> int:
            index = len(features)
            features.append(-1 if node.feature is None else node.feature)
            thresholds.append(node.threshold)
            values.append(node.value)
            lefts.append(index)
            rights.append(index)
            if node.feature is not None:
                assert node.left is not None and node.right is not None
                lefts[index] = add(node.left)
                rights[index] = add(node.right)
            return index

        for tree in self._trees:
            assert tree.root is not None
            roots.append(add(tree.root))
        return (
            np.array(features, dtype=np.int64),
            np.array(thresholds, dtype=np.float64),
            np.array(lefts, dtype=np.int64),
            np.array(rights, dtype=np.int64),
            np.array(values, dtype=np.float64),
            np.array(roots, dtype=np.int64),
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if len(x) == 1:
            return np.array([self.predict_one(x[0])])
        if self._forest is None:
            self._forest = self._flatten()
        features, thresholds, lefts, rights, values, roots = self._forest
        idx = np.broadcast_to(roots, (len(x), len(roots))).copy()
        rows = np.arange(len(x))[:, None]
        while True:
            feat = features[idx]
            active = feat >= 0
            if not active.any():
                break
            observed = x[rows, np.where(active, feat, 0)]
            go_left = observed <= thresholds[idx]
            idx = np.where(active, np.where(go_left, lefts[idx], rights[idx]), idx)
        # Add the trees in order, as predict_one and fit do, so a row's
        # estimate does not depend on the batch it arrives in.
        terms = np.empty((len(x), len(roots) + 1))
        terms[:, 0] = self._base
        np.multiply(self._learning_rate, values[idx], out=terms[:, 1:])
        return np.cumsum(terms, axis=1)[:, -1]

    def predict_one(self, row: np.ndarray) -> float:
        """Fast scalar prediction (per-sub-plan inference hot path)."""
        row = np.asarray(row, dtype=np.float64)
        prediction = self._base
        for tree in self._trees:
            assert tree.root is not None
            prediction += self._learning_rate * tree.root.predict_one(row)
        return prediction

    def nbytes(self) -> int:
        nodes = sum(tree.root.count_nodes() for tree in self._trees if tree.root)
        return nodes * 40  # value + feature + threshold + two pointers
