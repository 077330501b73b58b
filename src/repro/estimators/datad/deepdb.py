"""DeepDB: sum-product networks for cardinality estimation (method 12).

LearnSPN-style structure learning: attributes whose RDC score falls
below the independence threshold are split into product nodes;
otherwise rows are clustered (k-means) into sum nodes, recursing until
single-column leaf histograms.  Highly correlated data therefore
produces long chains of row splits — the paper's explanation for
DeepDB's large models and long training times on STATS (observation
O8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.estimators.base import stable_hash
from repro.estimators.datad.fanout import FanoutJoinEstimator, TableDensityModel
from repro.estimators.ml.clustering import kmeans, standard_scale
from repro.estimators.ml.rdc import pairwise_rdc

#: RDC score above which two columns are dependent (no product split).
RDC_THRESHOLD = 0.3
#: Nodes with at most this share of the table's rows (and at least 64
#: rows) stop splitting and become products of leaves.
MIN_ROWS_FRACTION = 0.01
#: Row clusters per sum node.
MAX_SUM_CHILDREN = 2
#: Rows sampled (without replacement) for one node's RDC scores.
RDC_SAMPLE = 3_000


def _union_scope(children: list) -> frozenset[str]:
    return frozenset().union(*(child.scope for child in children))


@dataclass
class LeafNode:
    """Per-column histogram leaf (with Laplace smoothing).

    Every node carries its ``scope`` — the columns modelled at or below
    it — so inference can answer an unconstrained sub-tree without
    walking it.
    """

    column: str
    counts: np.ndarray
    alpha: float = 0.1
    scope: frozenset[str] = field(init=False, repr=False)
    #: smoothed, normalised ``counts``; derived, dropped when they change
    _probabilities: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.scope = frozenset((self.column,))

    def prob_vector(self) -> np.ndarray:
        """Bin probabilities; shared between calls, so read-only."""
        if self._probabilities is None:
            smoothed = self.counts + self.alpha
            self._probabilities = smoothed / smoothed.sum()
            self._probabilities.setflags(write=False)
        return self._probabilities

    def nbytes(self) -> int:
        return self.counts.nbytes

    def node_count(self) -> int:
        return 1


@dataclass
class ProductNode:
    """Independent column groups multiply."""

    children: list = field(default_factory=list)
    scope: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scope = _union_scope(self.children)

    def nbytes(self) -> int:
        return sum(child.nbytes() for child in self.children)

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)


@dataclass
class SumNode:
    """Row clusters mix; centroids kept for routing updates.

    ``scale`` is the per-column scale k-means standardised the split's
    rows by, so an update routes a row to the nearest centroid in the
    space the clusters were found in.
    """

    children: list = field(default_factory=list)
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    centroids: np.ndarray = field(default_factory=lambda: np.empty(0))
    scale: np.ndarray = field(default_factory=lambda: np.empty(0))
    cluster_columns: tuple[str, ...] = ()
    counts: np.ndarray = field(default_factory=lambda: np.empty(0))
    scope: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scope = _union_scope(self.children)

    def nbytes(self) -> int:
        own = self.weights.nbytes + self.centroids.nbytes + self.scale.nbytes
        return own + sum(child.nbytes() for child in self.children)

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)


class SumProductNetwork(TableDensityModel):
    """An SPN over one table's discretized columns."""

    def __init__(
        self,
        binned: dict[str, np.ndarray],
        num_bins: dict[str, int],
        seed: int = 0,
    ):
        self._num_bins = dict(num_bins)
        self._rng = np.random.default_rng(seed)
        self._num_rows = len(next(iter(binned.values()))) if binned else 0
        self._min_rows = max(64, int(MIN_ROWS_FRACTION * self._num_rows))
        self.root = self._learn(binned, tuple(sorted(binned)), depth=0)

    # -- structure learning ----------------------------------------------------

    def _learn(self, binned: dict[str, np.ndarray], columns: tuple[str, ...], depth: int):
        rows = len(binned[columns[0]]) if columns else 0
        if len(columns) == 1:
            return self._leaf(binned, columns[0])
        if rows <= self._min_rows or depth >= 12:
            return ProductNode(children=[self._leaf(binned, c) for c in columns])

        groups = self._independent_groups(binned, columns)
        if len(groups) > 1:
            return ProductNode(
                children=[self._learn(binned, tuple(g), depth + 1) for g in groups]
            )
        return self._sum_split(binned, columns, depth)

    def _leaf(self, binned: dict[str, np.ndarray], column: str) -> LeafNode:
        counts = np.bincount(
            binned[column], minlength=self._num_bins[column]
        ).astype(np.float64)
        return LeafNode(column=column, counts=counts)

    def _rdc_rows(self, n: int) -> np.ndarray:
        """The rows of an ``n``-row node that its RDC scores are taken on."""
        if n > RDC_SAMPLE:
            return self._rng.choice(n, size=RDC_SAMPLE, replace=False)
        return np.arange(n)

    def _independent_groups(
        self,
        binned: dict[str, np.ndarray],
        columns: tuple[str, ...],
    ) -> list[list[str]]:
        """Connected components of the RDC > threshold graph."""
        sample = self._rdc_rows(len(binned[columns[0]]))
        adjacency = {c: set() for c in columns}
        for (i, j), score in pairwise_rdc([binned[c][sample] for c in columns]).items():
            if score > RDC_THRESHOLD:
                adjacency[columns[i]].add(columns[j])
                adjacency[columns[j]].add(columns[i])
        groups: list[list[str]] = []
        unvisited = set(columns)
        while unvisited:
            seed_col = min(unvisited)
            component = {seed_col}
            frontier = [seed_col]
            while frontier:
                current = frontier.pop()
                for neighbor in adjacency[current]:
                    if neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            groups.append(sorted(component))
            unvisited -= component
        return groups

    def _sum_split(self, binned: dict[str, np.ndarray], columns: tuple[str, ...], depth: int):
        data = np.column_stack([binned[c] for c in columns]).astype(np.float64)
        labels = kmeans(data, MAX_SUM_CHILDREN, self._rng)
        clusters = np.unique(labels)
        if len(clusters) <= 1:
            return ProductNode(children=[self._leaf(binned, c) for c in columns])
        children = []
        weights = []
        centroids = []
        counts = []
        for cluster in clusters:
            member_rows = np.nonzero(labels == cluster)[0]
            subset = {c: binned[c][member_rows] for c in columns}
            children.append(self._learn(subset, columns, depth + 1))
            weights.append(len(member_rows) / len(labels))
            centroids.append(data[member_rows].mean(axis=0))
            counts.append(float(len(member_rows)))
        return SumNode(
            children=children,
            weights=np.asarray(weights),
            centroids=np.asarray(centroids),
            scale=standard_scale(data),
            cluster_columns=columns,
            counts=np.asarray(counts),
        )

    # -- inference ---------------------------------------------------------------

    def prob(self, coverages: dict[str, np.ndarray]) -> float:
        return float(self._evaluate(self.root, coverages))

    def prob_by_bin(self, coverages: dict[str, np.ndarray], target: str) -> np.ndarray:
        result = self._evaluate_vector(self.root, coverages, target)
        if np.isscalar(result) or result.ndim == 0:
            # Target column absent below this node: spread uniformly.
            return np.full(self._num_bins[target], float(result) / self._num_bins[target])
        return result

    def _evaluate(self, node, coverages: dict[str, np.ndarray]) -> float:
        if node.scope.isdisjoint(coverages):
            return 1.0  # nothing below is constrained: the whole mass
        if isinstance(node, LeafNode):
            return float((node.prob_vector() * coverages[node.column]).sum())
        if isinstance(node, ProductNode):
            result = 1.0
            for child in node.children:
                # Same test as above, before the call: most children of
                # a product are unconstrained leaves.
                if not child.scope.isdisjoint(coverages):
                    result *= self._evaluate(child, coverages)
            return result
        assert isinstance(node, SumNode)
        return float(
            sum(
                w * self._evaluate(child, coverages)
                for w, child in zip(node.weights, node.children)
            )
        )

    def _evaluate_vector(self, node, coverages: dict[str, np.ndarray], target: str):
        """Like ``_evaluate`` but keeps ``target``'s bins as a vector."""
        if target not in node.scope:
            return self._evaluate(node, coverages)
        if isinstance(node, LeafNode):  # the target's own leaf
            probabilities = node.prob_vector()
            coverage = coverages.get(node.column)
            return probabilities * coverage if coverage is not None else probabilities
        if isinstance(node, ProductNode):
            scalar = 1.0
            vector = None
            for child in node.children:
                value = self._evaluate_vector(child, coverages, target)
                if np.isscalar(value) or np.ndim(value) == 0:
                    scalar *= float(value)
                elif vector is None:
                    vector = value
                else:  # defensive: the target lives below one child only
                    vector = vector * value
            return scalar * vector if vector is not None else scalar
        assert isinstance(node, SumNode)
        # Every child of a sum models the same columns, the target among them.
        total = None
        for w, child in zip(node.weights, node.children):
            contribution = w * self._evaluate_vector(child, coverages, target)
            total = contribution if total is None else total + contribution
        return total

    # -- updates ------------------------------------------------------------------

    def update(self, binned: dict[str, np.ndarray]) -> None:
        """Route new rows down the existing structure, updating leaf
        histograms and sum weights; structure is preserved (the source
        of post-update inaccuracy the paper measures in Table 6)."""
        rows = len(next(iter(binned.values()))) if binned else 0
        if rows == 0:
            return
        self._update_node(self.root, binned)
        self._num_rows += rows

    def _update_node(self, node, binned: dict[str, np.ndarray]) -> None:
        rows = len(next(iter(binned.values())))
        if rows == 0:
            return
        if isinstance(node, LeafNode):
            node.counts += np.bincount(
                binned[node.column], minlength=self._num_bins[node.column]
            )
            node._probabilities = None
            return
        if isinstance(node, ProductNode):
            for child in node.children:
                self._update_node(child, binned)
            return
        assert isinstance(node, SumNode)
        data = np.column_stack([binned[c] for c in node.cluster_columns]).astype(np.float64)
        offsets = (data[:, None, :] - node.centroids[None, :, :]) / node.scale
        distances = (offsets**2).sum(axis=2)
        labels = distances.argmin(axis=1)
        for cluster, child in enumerate(node.children):
            member_rows = np.nonzero(labels == cluster)[0]
            node.counts[cluster] += len(member_rows)
            if len(member_rows):
                subset = {c: binned[c][member_rows] for c in node.cluster_columns}
                self._update_node(child, subset)
        node.weights = node.counts / node.counts.sum()

    def nbytes(self) -> int:
        return self.root.nbytes()

    def node_count(self) -> int:
        return self.root.node_count()


class DeepDBEstimator(FanoutJoinEstimator):
    """SPN ensemble combined by the fan-out join framework."""

    name = "DeepDB"

    def _build_model(self, table_name, binned, num_bins) -> SumProductNetwork:
        return SumProductNetwork(binned, num_bins, seed=stable_hash(table_name) % 1000)
