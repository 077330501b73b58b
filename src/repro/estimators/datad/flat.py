"""FLAT: factorize-split-sum-product networks (method 13).

FSPNs extend SPNs with *factorize* nodes: attribute groups whose RDC
score exceeds the high-correlation threshold (0.7 in the paper) are
taken out of the sum/product recursion and modelled directly as joint
"multi-leaf" histograms, while the weakly correlated remainder is
learned as a regular SPN.  FLAT's defining trick — modelling
``P(H | W)`` rather than assuming the highly correlated group H
independent of the rest W — is realized here through an *anchor*
column: each multi-leaf stores the joint histogram of its group
together with the most-correlated remaining column and is evaluated
conditionally on that anchor, so cross-group coupling survives while
the anchor's own marginal stays with the SPN side.

On highly correlated data (STATS) this avoids the long sum-node
chains that blow up DeepDB's model — the behaviour behind FLAT's
best-in-class end-to-end time in the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.estimators.base import stable_hash
from repro.estimators.datad.deepdb import RDC_THRESHOLD, ProductNode, SumProductNetwork
from repro.estimators.datad.fanout import FanoutJoinEstimator
from repro.estimators.ml.rdc import pairwise_rdc, rdc

#: RDC score above which columns are modelled jointly in a multi-leaf.
FACTORIZE_THRESHOLD = 0.7
#: Columns of one multi-leaf's group (its anchor not counted).
MAX_LEAF_COLUMNS = 3
#: Sum/product depth from which nodes may factorize.
MIN_FACTORIZE_DEPTH = 2


@dataclass
class MultiLeafNode:
    """Joint histogram over a correlated column group.

    When ``anchor`` is set, axis 0 of ``counts`` ranges over the
    anchor's bins and the node evaluates *conditionally*:
    ``P(group region | anchor region)``.  The anchor's marginal is
    modelled elsewhere (it stays in the SPN's remaining columns).
    """

    columns: tuple[str, ...]
    counts: np.ndarray
    anchor: str | None = None
    alpha: float = 0.1
    scope: frozenset[str] = field(init=False, repr=False)
    #: smoothed, normalised ``counts``; derived, dropped when they change
    _probabilities: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.scope = frozenset(self.all_columns)

    def prob_tensor(self) -> np.ndarray:
        """Cell probabilities; shared between calls, so read-only."""
        if self._probabilities is None:
            smoothed = self.counts + self.alpha / self.counts.size
            self._probabilities = smoothed / smoothed.sum()
            self._probabilities.setflags(write=False)
        return self._probabilities

    @property
    def all_columns(self) -> tuple[str, ...]:
        if self.anchor is None:
            return self.columns
        return (self.anchor, *self.columns)

    def nbytes(self) -> int:
        return self.counts.nbytes

    def node_count(self) -> int:
        return 1


class FactorizedSPN(SumProductNetwork):
    """SPN with factorize nodes (anchored joint multi-leaves)."""

    # -- structure learning ---------------------------------------------------

    def _learn(self, binned: dict[str, np.ndarray], columns: tuple[str, ...], depth: int):
        # Factorize only after a couple of sum/product splits have
        # carved the data (FLAT's split-then-factorize recursion); the
        # conditional multi-leaves then model the per-region joints.
        if len(columns) >= 2 and MIN_FACTORIZE_DEPTH <= depth <= 6:
            group = self._highly_correlated_group(binned, columns)
            if group is not None:
                rest = tuple(c for c in columns if c not in group)
                anchor = self._pick_anchor(binned, group, rest)
                multi_leaf = self._multi_leaf(binned, group, anchor)
                if not rest:
                    return multi_leaf
                # Factorize node: P(W) * P(H | anchor in W).
                return ProductNode(
                    children=[multi_leaf, super()._learn(binned, rest, depth + 1)]
                )
        return super()._learn(binned, columns, depth)

    def _highly_correlated_group(
        self,
        binned: dict[str, np.ndarray],
        columns: tuple[str, ...],
    ) -> tuple[str, ...] | None:
        """Greedy seed-and-grow group with RDC above the high threshold."""
        sample = self._rdc_rows(len(binned[columns[0]]))
        best_pair = None
        best_score = FACTORIZE_THRESHOLD
        for (i, j), score in pairwise_rdc([binned[c][sample] for c in columns]).items():
            if score > best_score:
                best_score = score
                best_pair = (columns[i], columns[j])
        if best_pair is None:
            return None
        group = list(best_pair)
        for candidate in columns:
            if candidate in group or len(group) >= MAX_LEAF_COLUMNS:
                continue
            scores = [
                rdc(binned[candidate][sample], binned[m][sample], seed=97)
                for m in group
            ]
            if min(scores) > FACTORIZE_THRESHOLD:
                group.append(candidate)
        return tuple(sorted(group))

    def _pick_anchor(
        self,
        binned: dict[str, np.ndarray],
        group: tuple[str, ...],
        rest: tuple[str, ...],
    ) -> str | None:
        """The remaining column most correlated with the group, if any
        clears the (low) dependence threshold."""
        if not rest:
            return None
        sample = self._rdc_rows(len(binned[group[0]]))
        best, best_score = None, RDC_THRESHOLD
        for candidate in rest:
            score = max(
                rdc(binned[candidate][sample], binned[m][sample], seed=53)
                for m in group
            )
            if score > best_score:
                best, best_score = candidate, score
        return best

    def _multi_leaf(
        self,
        binned: dict[str, np.ndarray],
        columns: tuple[str, ...],
        anchor: str | None,
    ) -> MultiLeafNode:
        axes = ((anchor,) if anchor else ()) + tuple(columns)
        shape = tuple(self._num_bins[c] for c in axes)
        flat = np.zeros(int(np.prod(shape)), dtype=np.float64)
        index = np.zeros(len(binned[columns[0]]), dtype=np.int64)
        for c in axes:
            index = index * self._num_bins[c] + binned[c]
        np.add.at(flat, index, 1.0)
        return MultiLeafNode(
            columns=tuple(columns), counts=flat.reshape(shape), anchor=anchor
        )

    # -- inference ---------------------------------------------------------------

    def _leaf_masses(
        self,
        node: MultiLeafNode,
        coverages,
        target: str | None,
    ):
        """(numerator, denominator) of the conditional leaf probability.

        The numerator applies every available coverage (and keeps the
        target axis, when requested); the denominator applies only the
        anchor's coverage, realizing ``P(group | anchor)``.
        """
        tensor = node.prob_tensor()
        denominator_tensor = tensor
        axes = node.all_columns
        # Denominator: marginalize everything but the anchor, applying
        # the anchor's coverage if present.
        if node.anchor is not None:
            anchor_coverage = coverages.get(node.anchor)
            if anchor_coverage is not None:
                shape = [1] * tensor.ndim
                shape[0] = len(anchor_coverage)
                denominator_tensor = denominator_tensor * anchor_coverage.reshape(shape)
                tensor = tensor * anchor_coverage.reshape(shape)
            denominator = float(denominator_tensor.sum())
        else:
            denominator = 1.0

        target_axis = None
        for axis, column in enumerate(axes):
            if column == node.anchor:
                continue  # anchor coverage already applied
            coverage = coverages.get(column)
            if column == target:
                target_axis = axis
                if coverage is not None:
                    shape = [1] * tensor.ndim
                    shape[axis] = len(coverage)
                    tensor = tensor * coverage.reshape(shape)
                continue
            if coverage is not None:
                shape = [1] * tensor.ndim
                shape[axis] = len(coverage)
                tensor = tensor * coverage.reshape(shape)
        if target_axis is None:
            return float(tensor.sum()), denominator
        other_axes = tuple(a for a in range(tensor.ndim) if a != target_axis)
        return tensor.sum(axis=other_axes), denominator

    def _evaluate(self, node, coverages):
        if isinstance(node, MultiLeafNode) and not node.scope.isdisjoint(coverages):
            numerator, denominator = self._leaf_masses(node, coverages, target=None)
            return float(numerator) / max(denominator, 1e-12)
        return super()._evaluate(node, coverages)

    def _evaluate_vector(self, node, coverages, target):
        if isinstance(node, MultiLeafNode):
            if target not in node.columns:
                return self._evaluate(node, coverages)
            numerator, denominator = self._leaf_masses(node, coverages, target=target)
            return numerator / max(denominator, 1e-12)
        return super()._evaluate_vector(node, coverages, target)

    # -- updates --------------------------------------------------------------------

    def _update_node(self, node, binned):
        if isinstance(node, MultiLeafNode):
            index = np.zeros(len(next(iter(binned.values()))), dtype=np.int64)
            for c in node.all_columns:
                index = index * self._num_bins[c] + binned[c]
            flat = node.counts.reshape(-1)
            np.add.at(flat, index, 1.0)
            node._probabilities = None
            return
        super()._update_node(node, binned)


class FlatEstimator(FanoutJoinEstimator):
    """FSPNs combined by the fan-out join framework."""

    name = "FLAT"

    def _build_model(self, table_name, binned, num_bins) -> FactorizedSPN:
        return FactorizedSPN(binned, num_bins, seed=stable_hash(table_name) % 1000)
