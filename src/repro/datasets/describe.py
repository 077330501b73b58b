"""Dataset statistics behind Table 1 of the paper.

For each benchmark database this module computes the criteria the
paper uses to argue STATS is harder than the simplified IMDB: scale
(tables, filterable attributes, full join size), data complexity
(distribution skew, pairwise correlation, total domain size) and
schema richness (join forms, number of join relations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.jointree import JoinTree


@dataclass(frozen=True)
class DatasetSummary:
    """The Table-1 row for one dataset."""

    name: str
    num_tables: int
    num_attributes: int
    attributes_per_table: tuple[int, int]
    full_join_size: float
    total_domain_size: int
    average_skewness: float
    average_correlation: float
    join_forms: str
    num_join_relations: int


def describe(database: Database) -> DatasetSummary:
    """Compute the full Table-1 summary of ``database``."""
    per_table_attrs = [
        len(table.schema.filterable_columns) for table in database.tables.values()
    ]
    return DatasetSummary(
        name=database.name,
        num_tables=len(database.tables),
        num_attributes=sum(per_table_attrs),
        attributes_per_table=(min(per_table_attrs), max(per_table_attrs)),
        full_join_size=full_join_size(database),
        total_domain_size=total_domain_size(database),
        average_skewness=average_skewness(database),
        average_correlation=average_pairwise_correlation(database),
        join_forms=join_forms(database),
        num_join_relations=len(database.join_graph.edges),
    )


def total_domain_size(database: Database) -> int:
    """Sum of distinct-value counts over all filterable attributes."""
    total = 0
    for table in database.tables.values():
        for column in table.schema.filterable_columns:
            total += len(np.unique(table.column(column.name).non_null_values()))
    return total


def average_skewness(database: Database) -> float:
    """Mean absolute moment skewness ``m3 / m2**1.5`` (the biased
    estimate ``scipy.stats.skew`` returns) over all filterable
    attributes with three or more non-NULL values, not all equal."""
    values = []
    for table in database.tables.values():
        for column in table.schema.filterable_columns:
            data = table.column(column.name).non_null_values()
            if len(data) > 2 and data.std() > 0:
                centred = data - data.mean()
                m2, m3 = np.mean(centred**2), np.mean(centred**3)
                values.append(abs(float(m3 / m2**1.5)))
    return float(np.mean(values)) if values else 0.0


def average_pairwise_correlation(database: Database) -> float:
    """Mean absolute Pearson correlation over within-table attribute pairs."""
    values = []
    for table in database.tables.values():
        attrs = table.schema.filterable_columns
        for i in range(len(attrs)):
            for j in range(i + 1, len(attrs)):
                a = table.column(attrs[i].name)
                b = table.column(attrs[j].name)
                both = ~a.null_mask & ~b.null_mask
                if both.sum() < 3:
                    continue
                x, y = a.values[both], b.values[both]
                if x.std() == 0 or y.std() == 0:
                    continue
                values.append(abs(float(np.corrcoef(x, y)[0, 1])))
    return float(np.mean(values)) if values else 0.0


def join_forms(database: Database) -> str:
    """Available join forms in the schema graph: star or star/chain/mixed.

    A pure star (every edge incident to one hub) supports only star
    joins; anything richer supports chains and mixed forms as well.
    """
    graph = database.join_graph
    tables = graph.tables
    for hub in tables:
        if all(hub in edge.tables for edge in graph.edges):
            return "star"
    return "star/chain/mixed"


def full_join_size(database: Database, root: str | None = None) -> float:
    """Size of the outer join of all tables along a spanning tree.

    Computed exactly by :class:`~repro.engine.jointree.JoinTree`'s
    bottom-up outer-join weights (each unmatched parent row is
    NULL-extended, i.e. contributes a factor of one, approximating the
    full *outer* join the paper reports).  The spanning tree is chosen
    by BFS from ``root`` over the schema's join edges, preferring PK-FK
    edges.
    """
    graph = database.join_graph
    tables = sorted(graph.tables)
    if root is None:
        # Root at the most "primary" table (most PK sides of PK-FK
        # edges), so the outer join preserves unmatched parents.
        def primariness(table: str) -> int:
            score = 0
            for edge in graph.edges_of(table):
                if edge.one_to_many:
                    score += 1 if edge.left == table else -1
            return score

        root = max(tables, key=primariness)

    return JoinTree(database, _spanning_tree(graph.edges, root), root).total


def _spanning_tree(edges: list[JoinEdge], root: str) -> list[JoinEdge]:
    """BFS spanning tree from ``root``, PK-FK edges first."""
    ordered = sorted(edges, key=lambda e: (not e.one_to_many, e.left, e.right))
    tree: list[JoinEdge] = []
    visited = {root}
    frontier = [root]
    while frontier:
        current = frontier.pop(0)
        for edge in ordered:
            if current in edge.tables:
                other = edge.other(current)
                if other not in visited:
                    visited.add(other)
                    tree.append(edge)
                    frontier.append(other)
    return tree
