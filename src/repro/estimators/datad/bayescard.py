"""BayesCard: Bayesian-network cardinality estimation (method 11).

Per table, a Chow-Liu tree (maximum-spanning-tree over pairwise mutual
information) Bayesian network models the joint distribution of
attributes, binned join keys and fan-out columns.  Inference is exact
tree belief propagation, vectorized so that a whole coverage region —
or a per-bin target distribution — is answered in one upward pass;
this is the numpy analog of BayesCard's "compiled variable
elimination", and the reason its inference latency is the lowest of
the data-driven methods (paper observation on Figure 3).

Updates preserve the learned tree structure and only refresh the
sufficient statistics (CPT counts), which is why BayesCard updates in
seconds and keeps its accuracy (paper observations O8/O10).
"""

from __future__ import annotations

import numpy as np

from repro.estimators.datad.fanout import FanoutJoinEstimator, TableDensityModel


class ChowLiuTreeModel(TableDensityModel):
    """Tree-shaped Bayesian network over discretized columns."""

    def __init__(
        self,
        binned: dict[str, np.ndarray],
        num_bins: dict[str, int],
        alpha: float = 0.1,
    ):
        self.columns = sorted(binned)
        self._num_bins = dict(num_bins)
        self._alpha = alpha
        self._parent: dict[str, str | None] = {}
        self._children: dict[str, list[str]] = {c: [] for c in self.columns}
        self._counts: dict[str, np.ndarray] = {}
        self._cpts: dict[str, np.ndarray] = {}
        #: column -> message of its sub-tree when nothing in it is
        #: constrained; derived from the CPTs, dropped by ``_normalize``
        self._free_messages: dict[str, np.ndarray] = {}

        self._learn_structure(binned)
        #: column -> the columns of its sub-tree
        self._scope: dict[str, frozenset[str]] = {}
        self._collect_scope(self._root())
        self._count_statistics(binned, reset=True)
        self._normalize()

    # -- structure learning ----------------------------------------------------

    def _learn_structure(self, binned: dict[str, np.ndarray]) -> None:
        """Chow-Liu: maximum spanning tree over pairwise mutual information."""
        columns = self.columns
        if len(columns) == 1:
            self._parent[columns[0]] = None
            return
        scores: list[tuple[float, int, int]] = []
        for i in range(len(columns)):
            for j in range(i + 1, len(columns)):
                mi = _mutual_information(
                    binned[columns[i]],
                    binned[columns[j]],
                    self._num_bins[columns[i]],
                    self._num_bins[columns[j]],
                )
                scores.append((mi, i, j))
        scores.sort(reverse=True)

        # Kruskal over MI scores.
        parent_of = list(range(len(columns)))

        def find(x: int) -> int:
            while parent_of[x] != x:
                parent_of[x] = parent_of[parent_of[x]]
                x = parent_of[x]
            return x

        adjacency: dict[int, list[int]] = {i: [] for i in range(len(columns))}
        taken = 0
        for _, i, j in scores:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent_of[ri] = rj
                adjacency[i].append(j)
                adjacency[j].append(i)
                taken += 1
                if taken == len(columns) - 1:
                    break

        # Root at column 0; orient the tree by BFS.
        root = 0
        self._parent[columns[root]] = None
        visited = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for neighbor in adjacency[current]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    self._parent[columns[neighbor]] = columns[current]
                    self._children[columns[current]].append(columns[neighbor])
                    frontier.append(neighbor)
        # Disconnected safety: attach any unvisited column to the root.
        for i, column in enumerate(self.columns):
            if i not in visited:
                self._parent[column] = columns[root]
                self._children[columns[root]].append(column)

    def _collect_scope(self, column: str) -> frozenset[str]:
        scope = frozenset((column,)).union(
            *(self._collect_scope(child) for child in self._children[column])
        )
        self._scope[column] = scope
        return scope

    # -- parameters --------------------------------------------------------------

    def _count_statistics(self, binned: dict[str, np.ndarray], reset: bool) -> None:
        for column in self.columns:
            parent = self._parent[column]
            bins = self._num_bins[column]
            if parent is None:
                counts = np.bincount(binned[column], minlength=bins).astype(np.float64)
            else:
                parent_bins = self._num_bins[parent]
                flat = binned[parent] * bins + binned[column]
                counts = np.bincount(flat, minlength=parent_bins * bins).astype(
                    np.float64
                ).reshape(parent_bins, bins)
            if reset or column not in self._counts:
                self._counts[column] = counts
            else:
                self._counts[column] += counts

    def _normalize(self) -> None:
        self._free_messages.clear()
        for column in self.columns:
            counts = self._counts[column] + self._alpha
            if counts.ndim == 1:
                self._cpts[column] = counts / counts.sum()
            else:
                self._cpts[column] = counts / counts.sum(axis=1, keepdims=True)

    def update(self, binned: dict[str, np.ndarray]) -> None:
        self._count_statistics(binned, reset=False)
        self._normalize()

    # -- inference ----------------------------------------------------------------

    def prob(self, coverages: dict[str, np.ndarray]) -> float:
        root = self._root()
        belief = self._belief(root, coverages, target=None)
        marginal = self._cpts[root]
        return float((marginal[:, None] * belief).sum())

    def prob_by_bin(self, coverages: dict[str, np.ndarray], target: str) -> np.ndarray:
        root = self._root()
        belief = self._belief(root, coverages, target=target)
        marginal = self._cpts[root]
        return (marginal[:, None] * belief).sum(axis=0)

    def _root(self) -> str:
        for column, parent in self._parent.items():
            if parent is None:
                return column
        raise RuntimeError("tree has no root")

    def _belief(
        self,
        column: str,
        coverages: dict[str, np.ndarray],
        target: str | None,
    ) -> np.ndarray:
        """Upward belief of ``column``'s subtree, shape (bins, K).

        K is 1 for plain probability queries and ``bins(target)`` when
        a per-bin target distribution is requested: the target node
        carries an identity coverage whose extra axis broadcasts up the
        tree.  A child sub-tree that holds neither a constrained column
        nor the target sends the same message whatever the query, so
        that message is computed once per parameter state.
        """
        bins = self._num_bins[column]
        coverage = coverages.get(column)
        if column == target:
            own = np.eye(bins)
            if coverage is not None:
                own = own * coverage[:, None]
        else:
            own = (coverage if coverage is not None else np.ones(bins))[:, None]
        belief = own.astype(np.float64)
        for child in self._children[column]:
            scope = self._scope[child]
            if target in scope or not scope.isdisjoint(coverages):
                child_belief = self._belief(child, coverages, target)
                message = self._cpts[child] @ child_belief  # (bins, K_child)
            else:
                message = self._free_messages.get(child)
                if message is None:
                    message = self._cpts[child] @ self._belief(child, {}, None)
                    self._free_messages[child] = message
            belief = belief * message
        return belief

    def nbytes(self) -> int:
        # The deployable model is the CPTs; sufficient-statistic counts
        # are training state (kept only to absorb updates).
        return sum(cpt.nbytes for cpt in self._cpts.values())


def _mutual_information(x: np.ndarray, y: np.ndarray, bins_x: int, bins_y: int) -> float:
    joint = np.bincount(x * bins_y + y, minlength=bins_x * bins_y).astype(np.float64)
    joint = joint.reshape(bins_x, bins_y)
    total = joint.sum()
    if total == 0:
        return 0.0
    joint /= total
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (px @ py), 1.0)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    return float(terms.sum())


class BayesCardEstimator(FanoutJoinEstimator):
    """Chow-Liu tree BNs combined by the fan-out join framework."""

    name = "BayesCard"

    def __init__(
        self,
        alpha: float = 0.1,
        max_attribute_bins: int = 24,
        key_buckets: int = 32,
        joint_fanout: bool = True,
    ):
        super().__init__(
            max_attribute_bins=max_attribute_bins,
            key_buckets=key_buckets,
            joint_fanout=joint_fanout,
        )
        self._alpha = alpha

    def _build_model(self, table_name, binned, num_bins) -> ChowLiuTreeModel:
        return ChowLiuTreeModel(binned, num_bins, alpha=self._alpha)
