"""Shared factored join estimation for the PGM data-driven methods.

BayesCard, DeepDB and FLAT all follow the paper's "divide and conquer"
recipe: model each table's joint distribution (attributes + binned
join keys + virtual fan-out columns) with a probabilistic model, and
combine the per-table models along the query's join tree:

- **PK -> FK edges** (the parent holds the key): the parent model's
  *fan-out column* gives ``E[degree | parent predicates]`` — capturing
  the correlation between attributes and fan-out (active users own
  more posts) that plain histograms miss — and the child subtree
  contributes its filtered expansion ratio;
- **FK -> PK edges**: the foreign key must be non-NULL and its
  referenced row must survive the child subtree (treated as uniform
  over the key domain);
- **FK-FK edges** (many-to-many): per-bucket containment combining
  both sides' key-bucket distributions, PostgreSQL-histogram style but
  with predicate-conditioned bucket masses from the models.

The decomposition assumes independence *between* tables beyond the
join keys (the "fanout method" of the original systems); estimation
error therefore accumulates with the number of joined tables — the
paper's observation O4.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.engine.table import Table
from repro.estimators.base import CardinalityEstimator
from repro.estimators.datad.discretize import FanoutBinner, SchemaDiscretizer


class TableDensityModel(abc.ABC):
    """Probabilistic model over one table's discretized columns."""

    @abc.abstractmethod
    def prob(self, coverages: dict[str, np.ndarray]) -> float:
        """Probability of the conjunctive region given by coverages."""

    @abc.abstractmethod
    def prob_by_bin(self, coverages: dict[str, np.ndarray], target: str) -> np.ndarray:
        """Vector over ``target``'s bins of P(region AND target = bin)."""

    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate model size."""

    def update(self, binned: dict[str, np.ndarray]) -> None:
        """Absorb newly inserted rows (already discretized)."""
        raise NotImplementedError


def fanout_column_name(edge: JoinEdge) -> str:
    """Virtual column on the PK side counting matches in the FK side."""
    return f"__fanout__{edge.right}__{edge.right_column}"


class FanoutJoinEstimator(CardinalityEstimator):
    """Base class wiring per-table models into join estimates."""

    def __init__(
        self,
        max_attribute_bins: int = 24,
        key_buckets: int = 32,
        joint_fanout: bool = True,
    ):
        super().__init__()
        self._max_attribute_bins = max_attribute_bins
        self._key_buckets = key_buckets
        #: ablation knob: evaluate E[prod degrees | preds] jointly in one
        #: model query (True) or multiply per-edge expectations under a
        #: fan-out independence assumption (False).  Positively
        #: correlated fan-outs make the independent variant
        #: systematically under-estimate deep joins.
        self._joint_fanout = joint_fanout
        self._disc: SchemaDiscretizer | None = None
        self._models: dict[str, TableDensityModel] = {}
        self._rows: dict[str, int] = {}
        self._fanout_binners: dict[tuple[str, str], FanoutBinner] = {}
        self._bucket_distinct: dict[tuple[str, str], np.ndarray] = {}
        self._database: Database | None = None

    @abc.abstractmethod
    def _build_model(
        self,
        table_name: str,
        binned: dict[str, np.ndarray],
        num_bins: dict[str, int],
    ) -> TableDensityModel:
        """Construct the method-specific density model for one table."""

    # -- fitting -----------------------------------------------------------------

    def _fit(self, database: Database) -> None:
        self._database = database
        self._disc = SchemaDiscretizer.build(
            database,
            max_attribute_bins=self._max_attribute_bins,
            key_buckets=self._key_buckets,
        )
        self._models = {}
        self._rows = {}
        for name, table in database.tables.items():
            binned, num_bins = self._discretize_table(database, name, table)
            self._models[name] = self._build_model(name, binned, num_bins)
            self._rows[name] = table.num_rows

    def _discretize_table(
        self,
        database: Database,
        name: str,
        table: Table,
    ) -> tuple[dict[str, np.ndarray], dict[str, int]]:
        assert self._disc is not None
        binned: dict[str, np.ndarray] = {}
        num_bins: dict[str, int] = {}
        for meta in table.schema.filterable_columns:
            binner = self._disc.attribute_binners[(name, meta.name)]
            binned[meta.name] = binner.encode(table.column(meta.name))
            num_bins[meta.name] = binner.num_bins
        for key_column in database.key_columns(name):
            binner = self._disc.key_binner_for(name, key_column)
            binned[key_column] = binner.encode(table.column(key_column))
            num_bins[key_column] = binner.num_bins
            self._bucket_distinct[(name, key_column)] = self._distinct_per_bucket(
                table, key_column, binner
            )
        for edge in database.join_graph.edges:
            if edge.one_to_many and edge.left == name:
                column = fanout_column_name(edge)
                # ``table`` is the full relation at fit time and the
                # inserted delta at update time; degrees are always
                # looked up against the live referencing table.
                degrees = self._degrees(database, edge, table)
                binner = self._fanout_binners.get((name, column))
                if binner is None:
                    binner = FanoutBinner.build(degrees)
                    self._fanout_binners[(name, column)] = binner
                binned[column] = binner.encode(degrees)
                num_bins[column] = binner.num_bins
        return binned, num_bins

    @staticmethod
    def _degrees(database: Database, edge: JoinEdge, parent_rows: Table) -> np.ndarray:
        """Per-parent-row match counts in the referencing table."""
        parent = parent_rows.column(edge.left_column)
        index = database.index(edge.right, edge.right_column)
        degrees = index.match(parent.values)[1].astype(np.float64)
        degrees[parent.null_mask] = 0.0
        return degrees

    @staticmethod
    def _distinct_per_bucket(table: Table, column: str, binner) -> np.ndarray:
        col = table.column(column)
        uniques = np.unique(col.non_null_values())
        width = max((binner.high - binner.low) / binner.num_buckets, 1e-12)
        buckets = np.clip(
            np.floor((uniques.astype(np.float64) - binner.low) / width),
            0,
            binner.num_buckets - 1,
        ).astype(np.int64)
        counts = np.zeros(binner.num_bins)
        np.add.at(counts, buckets + 1, 1.0)
        return counts

    def model_size_bytes(self) -> int:
        total = sum(model.nbytes() for model in self._models.values())
        if self._disc is not None:
            total += self._disc.nbytes()
        return total

    # -- incremental update -------------------------------------------------------

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows: dict[str, Table]) -> None:
        """Keep the learned structures, refresh the statistics.

        Mirrors the original systems' update strategy: model
        *structure* (BN graph / SPN shape) is preserved and only the
        distribution parameters absorb the inserted rows.  Discretizer
        boundaries are also preserved, so drift outside the old value
        range degrades accuracy — the effect Table 6 measures.
        """
        assert self._database is not None and self._disc is not None
        for name, delta in new_rows.items():
            if delta.num_rows == 0:
                continue
            binned, _ = self._discretize_table(self._database, name, delta)
            self._models[name].update(binned)
            self._rows[name] = self._database.tables[name].num_rows
            # _discretize_table computed distinct-per-bucket sketches
            # from the delta only; refresh them against the full table.
            full = self._database.tables[name]
            for key_column in self._database.key_columns(name):
                binner = self._disc.key_binner_for(name, key_column)
                self._bucket_distinct[(name, key_column)] = self._distinct_per_bucket(
                    full, key_column, binner
                )

    # -- estimation ----------------------------------------------------------------

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Price ``queries`` with one model evaluation per distinct question.

        The sub-plans of one query ask their tables' models the same
        few weighted questions over and over; ``filtered`` holds each
        ``(table, predicates)`` pair's answers for the length of this
        call only, so an ``update`` can never meet a stale one.
        """
        filtered: dict[tuple, _FilteredTable] = {}
        return [self._estimate(query, filtered) for query in queries]

    def _estimate(self, query: Query, filtered: dict[tuple, _FilteredTable]) -> float:
        tables = {}
        for table in query.tables:
            # Predicates keep their query order: coverages of one column
            # multiply in that order, like the per-query loop's.
            predicates = query.predicates_on(table)
            if (table, predicates) not in filtered:
                filtered[table, predicates] = _FilteredTable(
                    self._models[table], self._coverages(predicates)
                )
            tables[table] = filtered[table, predicates]
        if query.num_tables == 1:
            table = next(iter(query.tables))
            return self._rows[table] * tables[table].ask(())
        root = self._choose_root(query)
        total, _ = self._visit(query, tables, root, parent_edge=None)
        return max(total, 0.0)

    def _coverages(self, predicates: tuple[Predicate, ...]) -> dict[str, np.ndarray]:
        """Per-column coverage vectors of one table's predicates."""
        assert self._disc is not None
        coverages: dict[str, np.ndarray] = {}
        for predicate in predicates:
            vector = self._disc.coverage(predicate)
            existing = coverages.get(predicate.column)
            coverages[predicate.column] = (
                vector if existing is None else existing * vector
            )
        return coverages

    @staticmethod
    def _choose_root(query: Query) -> str:
        """Root the recursion at the most 'primary' table so that as
        many edges as possible are walked PK -> FK (where fan-out
        columns capture attribute/fan-out correlation)."""
        score: dict[str, int] = {t: 0 for t in query.tables}
        for edge in query.join_edges:
            if edge.one_to_many:
                score[edge.left] += 1
                score[edge.right] -= 1
        return max(sorted(query.tables), key=lambda t: score[t])

    def _visit(
        self,
        query: Query,
        tables: dict[str, _FilteredTable],
        table: str,
        parent_edge: JoinEdge | None,
    ) -> tuple[float, np.ndarray | None]:
        """Estimate the subtree rooted at ``table``.

        The expected join expansion is computed as one weighted model
        query: for every PK->FK child edge the fan-out column's per-bin
        mean degree enters the coverage set as a *weight vector*, so the
        model evaluates ``E[1(preds) * prod_e degree_e]`` jointly —
        capturing both attribute/fan-out and fan-out/fan-out correlation
        (independent expectations would systematically under-estimate,
        since fan-outs are positively correlated in skewed data).

        The weights depend only on *which* incident edges are children,
        never on what the child subtrees returned, so the model query is
        asked through ``tables[table]``, which answers it once for every
        sub-plan and root that shares it; only the scalar recombination
        below is per subtree.

        Returns ``(total, by_bucket)``; ``by_bucket`` (counts per key
        bucket of the edge towards the parent) is only computed when
        the parent edge is many-to-many.
        """
        answers = tables[table]
        rows = self._rows[table]
        #: (column, maker of its constant weight vector), in edge order
        weights: list[tuple] = []

        scalar_ratio = 1.0  # child-subtree ratios, independent of this table's rows
        fkfk_children: list[tuple[JoinEdge, np.ndarray]] = []

        for edge in query.join_edges:
            if edge is parent_edge or (table != edge.left and table != edge.right):
                continue
            child = edge.other(table)
            child_total, child_buckets = self._visit(query, tables, child, edge)

            if edge.one_to_many and edge.left == table:
                # PK -> FK: weight by the fan-out column's mean degree.
                column = fanout_column_name(edge)
                binner = self._fanout_binners[(table, column)]
                if self._joint_fanout:
                    weights.append((column, binner.representatives))
                else:
                    # Ablation: independent per-edge expectation.
                    prob = answers.ask(()) or 1e-12
                    joint = answers.ask((), column)
                    scalar_ratio *= (
                        float((joint * binner.representatives()).sum()) / prob
                    )
                scalar_ratio *= child_total / max(self._rows[child], 1)
            elif edge.one_to_many:
                # FK -> PK: key must be non-NULL, referenced row must
                # survive the child subtree.
                key_column = edge.key_for(table)
                binner = self._disc.key_binner_for(table, key_column)
                weights.append((key_column, binner.non_null_coverage))
                scalar_ratio *= child_total / max(self._rows[child], 1)
            else:
                assert child_buckets is not None
                fkfk_children.append((edge, child_buckets))

        weights = tuple(weights)
        mass = answers.ask(weights)
        if mass <= 0.0:
            mass = 0.5 / max(rows, 1)  # smoothing: never emit hard zero

        # FK-FK edges: bucket containment under the weighted measure.
        fkfk_factor = 1.0
        for edge, child_buckets in fkfk_children:
            key_column = edge.key_for(table)
            child = edge.other(table)
            joint = answers.ask(weights, key_column)
            own_distinct = self._bucket_distinct[(table, key_column)]
            child_distinct = self._bucket_distinct[(child, edge.key_for(child))]
            denominator = np.maximum(np.maximum(own_distinct, child_distinct), 1.0)
            per_row = (joint[1:] / mass) * child_buckets[1:] / denominator[1:]
            fkfk_factor *= float(per_row.sum())

        total = rows * mass * scalar_ratio * fkfk_factor

        by_bucket = None
        if parent_edge is not None and not parent_edge.one_to_many:
            key_column = parent_edge.key_for(table)
            bucket_mass = answers.ask(weights, key_column)
            by_bucket = bucket_mass * rows * scalar_ratio * fkfk_factor
        return total, by_bucket


class _FilteredTable:
    """One table's model under one predicate set, for one estimation call.

    A question is the predicates' coverage set times constant weight
    vectors on some columns (``weights``: ``(column, maker)`` pairs),
    optionally kept per bin of a ``target`` column.  Each distinct
    question reaches the model once; the answers are shared, so callers
    must not write into the returned vectors.
    """

    def __init__(self, model: TableDensityModel, coverages: dict[str, np.ndarray]):
        self._model = model
        self._coverages = coverages
        self._weighted: dict[tuple, dict[str, np.ndarray]] = {}
        self._answers: dict[tuple, float | np.ndarray] = {}

    def ask(self, weights: tuple, target: str | None = None):
        """``prob`` of the weighted region, or ``prob_by_bin`` over ``target``."""
        columns = tuple(column for column, _ in weights)
        answer = self._answers.get((columns, target))
        if answer is None:
            weighted = self._weighted.get(columns)
            if weighted is None:
                weighted = self._weighted[columns] = dict(self._coverages)
                for column, make in weights:
                    existing = weighted.get(column)
                    weighted[column] = make() if existing is None else existing * make()
            if target is None:
                answer = self._model.prob(weighted)
            else:
                answer = self._model.prob_by_bin(weighted, target)
            self._answers[(columns, target)] = answer
        return answer
