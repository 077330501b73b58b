"""A join tree rooted at one table, with every edge's key matching done once.

:class:`JoinTree` orients a tree of join edges away from a root (BFS;
a table's child edges keep their order in the given edge list) and
matches each parent row against its child table through one
:class:`~repro.engine.join_build.JoinBuild` over the child key.  From
those matches it computes every table's per-row *outer-join weight*:
the number of rows that row contributes to the full outer join of its
subtree,

    w(row) = prod over child edges of max(sum of matched child weights, 1)

where an unmatched or NULL-keyed parent row survives NULL-extended
(a factor of one).  The root's weights sum to the full outer join's
size.  Table 1's full-join size (``datasets/describe.py``) and
NeuroCard's full-join sampler (``estimators/datad/neurocard.py``) both
read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.join_build import JoinBuild


@dataclass(frozen=True)
class TreeEdge:
    """One parent -> child edge and every parent row's match range.

    Parent row ``i`` joins the child rows
    ``build.positions[starts[i] : starts[i] + counts[i]]``, in child
    row order within a key; ``counts`` is 0 for a NULL parent key.
    """

    edge: JoinEdge  # oriented: ``left`` is the parent, ``right`` the child
    build: JoinBuild  # over the child key
    starts: np.ndarray
    counts: np.ndarray


class JoinTree:
    """``edges`` (a tree) oriented from ``root`` over ``database``."""

    def __init__(self, database: Database, edges: list[JoinEdge], root: str):
        self.root = root
        #: Child edges of every table, tables in BFS order from the root.
        self.children: dict[str, list[TreeEdge]] = {root: []}
        frontier = [root]
        while frontier:
            parent = frontier.pop(0)
            for edge in edges:
                if parent in edge.tables and edge.other(parent) not in self.children:
                    oriented = edge if edge.left == parent else edge.reversed()
                    self.children[parent].append(_match(database, oriented))
                    self.children[oriented.right] = []
                    frontier.append(oriented.right)
        #: Per-row outer-join weight of every table's subtree (float64).
        self.weights: dict[str, np.ndarray] = {}
        for table in reversed(self.children):
            weight = np.ones(database.tables[table].num_rows, dtype=np.float64)
            for child in self.children[table]:
                matched = np.zeros(len(child.build.positions) + 1)
                np.cumsum(self.weights[child.edge.right][child.build.positions], out=matched[1:])
                weight *= np.maximum(
                    matched[child.starts + child.counts] - matched[child.starts], 1.0
                )
            self.weights[table] = weight

    @property
    def total(self) -> float:
        """Size of the full outer join along the tree."""
        return float(self.weights[self.root].sum())


def _match(database: Database, edge: JoinEdge) -> TreeEdge:
    parent = database.tables[edge.left].column(edge.left_column)
    child = database.tables[edge.right].column(edge.right_column)
    build = JoinBuild(child.values, ~child.null_mask, len(parent.values))
    starts, counts = build.match(parent.values)
    counts[parent.null_mask] = 0
    return TreeEdge(edge, build, starts, counts)
