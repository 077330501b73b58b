"""NeuroCard^E: deep autoregressive estimation on full-join samples
(method 10).

NeuroCard trains one MADE over a uniform sample of the full outer
join along a tree-shaped schema, with per-table presence indicators
and per-edge fan-out columns; queries are answered by progressive
sampling with fan-out down-scaling:

    Card(Q) = |FOJ| * E[ 1(Q tables present, predicates hold)
                          * prod_{edges not in Q} 1 / fanout_e ]

The original method only supports tree schemas; like the paper's
NeuroCard^E extension we extract several spanning trees from the
cyclic STATS schema, train one model per tree, and answer each query
from a tree containing its join edges (falling back to an
independence correction for uncovered edges).  The known failure mode
reproduced here is observation O3: a bounded sample of an enormous,
skewed full join carries almost no signal about small joins, so
accuracy collapses on STATS while remaining fine on the simplified
IMDB schema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.jointree import JoinTree, TreeEdge
from repro.engine.query import Query
from repro.engine.table import Table
from repro.estimators.base import CardinalityEstimator, stable_hash
from repro.estimators.datad.discretize import AttributeBinner, FanoutBinner
from repro.estimators.ml.made import MadeModel


def spanning_trees(
    database: Database,
    rng: np.random.Generator,
    max_trees: int = 6,
) -> list[list[JoinEdge]]:
    """Spanning trees jointly covering every schema join edge.

    Randomized BFS growth preferring so-far-uncovered edges; stops when
    every edge appears in at least one tree or ``max_trees`` is hit.
    """
    edges = database.join_graph.edges
    tables = sorted(database.join_graph.tables)
    covered: set[int] = set()
    trees: list[list[JoinEdge]] = []
    for _ in range(max_trees):
        start = tables[rng.integers(len(tables))]
        current = {start}
        tree: list[JoinEdge] = []
        while True:
            frontier = [
                (i, edge)
                for i, edge in enumerate(edges)
                if len(edge.tables & current) == 1
            ]
            if not frontier:
                break
            fresh = [item for item in frontier if item[0] not in covered]
            pool = fresh if fresh else frontier
            index, edge = pool[rng.integers(len(pool))]
            tree.append(edge)
            covered.add(index)
            current |= edge.tables
        trees.append(tree)
        if len(covered) == len(edges):
            break
    return trees


@dataclass
class _TreeColumns:
    """Column layout of one tree model."""

    names: list[str]
    bin_counts: list[int]
    attribute_binners: dict[str, AttributeBinner]
    fanout_binners: dict[str, FanoutBinner]
    table_of_presence: dict[str, int]  # table -> column index
    attribute_index: dict[tuple[str, str], int]  # (table, column) -> index
    fanout_index: dict[tuple, int]  # (edge signature, direction) -> column index


def _edge_signature(edge: JoinEdge) -> tuple:
    return tuple(sorted(((edge.left, edge.left_column), (edge.right, edge.right_column))))


class _TreeModel:
    """One spanning tree: FOJ sampler + MADE + query answering."""

    def __init__(
        self,
        database: Database,
        tree: list[JoinEdge],
        num_samples: int,
        epochs: int,
        hidden: tuple[int, ...],
        seed: int,
        max_attribute_bins: int = 16,
    ):
        self._database = database
        self.tree = tree
        self.edge_signatures = {_edge_signature(e) for e in tree}
        self._rng = np.random.default_rng(seed)
        self.tables = sorted({t for e in tree for t in e.tables}) or sorted(
            database.join_graph.tables
        )
        self._root = self.tables[0]
        join_tree = JoinTree(database, tree, self._root)
        tree_edges = [
            child for table in self.tables for child in join_tree.children.get(table, ())
        ]
        #: Edges oriented parent -> child, parents in table order.
        self._edges = [child.edge for child in tree_edges]
        self._layout = self._build_layout(tree_edges, max_attribute_bins)
        self.model = MadeModel(
            self._layout.bin_counts, hidden_sizes=hidden, seed=seed
        )
        self.model.fit(self.resample(num_samples), epochs=epochs)

    def _build_layout(self, tree_edges: list[TreeEdge], max_attribute_bins: int) -> _TreeColumns:
        names: list[str] = []
        bins: list[int] = []
        attribute_binners: dict[str, AttributeBinner] = {}
        fanout_binners: dict[str, FanoutBinner] = {}
        presence: dict[str, int] = {}
        attr_index: dict[tuple[str, str], int] = {}
        fanout_index: dict[tuple, int] = {}

        for table_name in self.tables:
            presence[table_name] = len(names)
            names.append(f"{table_name}::present")
            bins.append(2)
            table = self._database.tables[table_name]
            for meta in table.schema.filterable_columns:
                key = f"{table_name}::{meta.name}"
                binner = AttributeBinner.build(
                    table.column(meta.name), max_bins=max_attribute_bins
                )
                attribute_binners[key] = binner
                attr_index[(table_name, meta.name)] = len(names)
                names.append(key)
                bins.append(binner.num_bins)
        for child in tree_edges:
            # Forward (child rows per parent row) and reverse (parent
            # rows per child row) fan-outs: which one down-scales a
            # query depends on which side of the query subtree the edge
            # hangs from.
            signature = _edge_signature(child.edge)
            for direction, degrees in (("fwd", child.forward), ("rev", child.reverse)):
                binner = FanoutBinner.build(degrees)
                key = f"fanout::{direction}::{signature}"
                fanout_binners[key] = binner
                fanout_index[(signature, direction)] = len(names)
                names.append(key)
                bins.append(binner.num_bins)

        return _TreeColumns(
            names=names,
            bin_counts=bins,
            attribute_binners=attribute_binners,
            fanout_binners=fanout_binners,
            table_of_presence=presence,
            attribute_index=attr_index,
            fanout_index=fanout_index,
        )

    # -- full-outer-join sampling -----------------------------------------------

    def resample(self, num_samples: int) -> np.ndarray:
        """A fresh encoded sample of the live database's full outer join.

        Also sets ``full_join_size``.  A root row is drawn by its
        outer-join weight; then, depth first, each child edge draws one
        matching child row by weight, or none (the child subtree is
        NULL-extended).  The layout's binners stay the fitted ones.
        """
        join_tree = JoinTree(self._database, self.tree, self._root)
        self.full_join_size = join_tree.total
        weights = join_tree.weights
        rng = self._rng
        # Sampled row of every table per sample; -1 where absent.
        rows = {table: np.full(num_samples, -1) for table in join_tree.children}
        root_weights = weights[self._root]
        rows[self._root][:] = rng.choice(
            len(root_weights), size=num_samples, p=root_weights / root_weights.sum()
        )

        def draw(sample: int, table: str, row: int) -> None:
            for child in join_tree.children[table]:
                count = child.counts[row]
                if count:
                    start = child.starts[row]
                    matches = child.positions[start : start + count]
                    child_weights = weights[child.edge.right][matches]
                    chosen = int(rng.choice(matches, p=child_weights / child_weights.sum()))
                    rows[child.edge.right][sample] = chosen
                    draw(sample, child.edge.right, chosen)

        for sample, row in enumerate(rows[self._root].tolist()):
            draw(sample, self._root, row)
        return self._encode(join_tree, rows)

    def _encode(self, join_tree: JoinTree, rows: dict[str, np.ndarray]) -> np.ndarray:
        """The layout's codes of the sampled rows (all 0 for an absent table)."""
        layout = self._layout
        data = np.zeros((len(rows[self._root]), len(layout.names)), dtype=np.int64)
        for table_name, picked in rows.items():
            present = np.nonzero(picked >= 0)[0]
            chosen = picked[present]
            data[present, layout.table_of_presence[table_name]] = 1
            table = self._database.tables[table_name]
            for meta in table.schema.filterable_columns:
                binner = layout.attribute_binners[f"{table_name}::{meta.name}"]
                codes = binner.encode(table.column(meta.name))
                data[present, layout.attribute_index[(table_name, meta.name)]] = codes[chosen]
            for child in join_tree.children[table_name]:
                signature = _edge_signature(child.edge)
                codes = layout.fanout_binners[f"fanout::fwd::{signature}"].encode(child.forward)
                data[present, layout.fanout_index[(signature, "fwd")]] = codes[chosen]
                # Row -1 (no child sampled) reads the appended degree 1.
                rev_binner = layout.fanout_binners[f"fanout::rev::{signature}"]
                codes = rev_binner.encode(np.append(child.reverse, 1.0))
                data[present, layout.fanout_index[(signature, "rev")]] = codes[
                    rows[child.edge.right][present]
                ]
        return data

    # -- query answering ----------------------------------------------------------

    def covers(self, query: Query) -> int:
        return sum(
            1 for e in query.join_edges if _edge_signature(e) in self.edge_signatures
        )

    def estimate(self, query: Query, num_samples: int, rng: np.random.Generator) -> float:
        layout = self._layout
        coverages: list[np.ndarray | None] = [None] * len(layout.names)
        for table_name in query.tables:
            coverages[layout.table_of_presence[table_name]] = np.array([0.0, 1.0])
        for predicate in query.predicates:
            key = f"{predicate.table}::{predicate.column}"
            binner = layout.attribute_binners[key]
            vector = binner.coverage(predicate)
            index = layout.attribute_index[(predicate.table, predicate.column)]
            existing = coverages[index]
            coverages[index] = vector if existing is None else existing * vector

        # Down-scale by the fan-out of every tree edge that expands the
        # query subtree: edges between two query tables are internal
        # (their multiplicity IS the join), all others multiply the
        # query rows by the fan-out of their far side.
        distance = self._distance_from(query.tables)
        weight_columns = []
        for edge in self._edges:
            if edge.left in query.tables and edge.right in query.tables:
                continue
            # Oriented parent -> child; the far side is the one further
            # from the query subtree.
            direction = "fwd" if distance[edge.right] > distance[edge.left] else "rev"
            signature = _edge_signature(edge)
            column = layout.fanout_index[(signature, direction)]
            binner = layout.fanout_binners[f"fanout::{direction}::{signature}"]
            reps = np.maximum(binner.representatives(), 1.0)
            weight_columns.append((column, 1.0 / reps))

        probability = self.model.prob(
            coverages, num_samples=num_samples, rng=rng, weight_columns=weight_columns
        )
        return self.full_join_size * probability

    def _distance_from(self, sources: frozenset[str]) -> dict[str, int]:
        """Tree distance of every table from the query's table set."""
        distance = {t: (0 if t in sources else -1) for t in self.tables}
        frontier = [t for t in self.tables if t in sources]
        adjacency: dict[str, list[str]] = {t: [] for t in self.tables}
        for edge in self._edges:
            adjacency[edge.left].append(edge.right)
            adjacency[edge.right].append(edge.left)
        while frontier:
            current = frontier.pop(0)
            for neighbor in adjacency[current]:
                if distance[neighbor] < 0:
                    distance[neighbor] = distance[current] + 1
                    frontier.append(neighbor)
        return distance

    def nbytes(self) -> int:
        return self.model.nbytes()


class NeuroCardEstimator(CardinalityEstimator):
    """NeuroCard^E: one MADE per extracted spanning tree."""

    name = "NeuroCard"

    def __init__(
        self,
        num_samples: int = 8_000,
        epochs: int = 6,
        hidden: tuple[int, ...] = (32, 32),
        inference_samples: int = 64,
        max_trees: int = 6,
        seed: int = 5,
    ):
        super().__init__()
        self._num_samples = num_samples
        self._epochs = epochs
        self._hidden = hidden
        self._inference_samples = inference_samples
        self._max_trees = max_trees
        self._seed = seed
        self._trees: list[_TreeModel] = []
        self._database: Database | None = None

    def _fit(self, database: Database) -> None:
        self._database = database
        rng = np.random.default_rng(self._seed)
        self._trees = []
        for i, tree in enumerate(spanning_trees(database, rng, self._max_trees)):
            self._trees.append(
                _TreeModel(
                    database,
                    tree,
                    num_samples=self._num_samples,
                    epochs=self._epochs,
                    hidden=self._hidden,
                    seed=self._seed + i,
                )
            )

    def estimate(self, query: Query) -> float:
        rng = np.random.default_rng(self._seed + stable_hash(query.key()) % 65536)
        # Prefer the tree covering the most query edges; uncovered
        # edges within the same key class are implied transitively by
        # the tree path between their endpoints.
        best = max(self._trees, key=lambda t: t.covers(query))
        return max(best.estimate(query, self._inference_samples, rng), 0.0)

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows: dict[str, Table]) -> None:
        """Fine-tune each tree model on a fresh full-join sample.

        The costly part of NeuroCard maintenance the paper measures:
        sampling must be redone against the updated database and the
        deep model re-trained (here: fewer epochs than from scratch).
        """
        assert self._database is not None
        for tree_model in self._trees:
            data = tree_model.resample(max(self._num_samples // 2, 500))
            tree_model.model.fit(data, epochs=max(self._epochs // 2, 2))

    def model_size_bytes(self) -> int:
        return sum(tree.nbytes() for tree in self._trees)
