"""Key codes of join edges, and a join tree rooted at one table.

:class:`EdgeCodes` maps both key columns of a join edge into one code
domain, so matching keys are equal codes and every per-key quantity is
an ``np.bincount`` over codes; labelling (:mod:`repro.core.truecards`)
counts sub-plans on it.  :class:`JoinTree` orients a tree of join edges
away from a root (BFS; a table's child edges keep their order in the
given edge list), codes each edge once and computes every table's
per-row *outer-join weight*, the number of rows that row contributes to
the full outer join of its subtree:

    w(row) = prod over child edges of max(sum of matched child weights, 1)

where an unmatched or NULL-keyed parent row survives NULL-extended (a
factor of one).  The root's weights sum to the full outer join's size,
Table 1's full-join size (``datasets/describe.py``); NeuroCard's
full-join sampler and fan-out columns (``estimators/datad/neurocard.py``)
read the weights, match ranges and degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.join_build import DIRECTORY_SPAN_FACTOR
from repro.engine.table import Column


class EdgeCodes:
    """One code domain for both key columns of a join edge.

    Equal non-NULL keys get equal codes in ``[0, size - 2)``.  A dense
    INT domain (the span rule of :class:`repro.engine.join_build.
    JoinBuild`) codes ``value - kmin``; everything else — FLOAT keys,
    sparse INT domains, empty columns — codes the rank of the value in
    the sorted union of both columns' non-NULL values.  A NULL key of
    the left column codes ``size - 2`` and one of the right column
    ``size - 1``: bins the other side never reaches.
    """

    __slots__ = ("left", "right", "size")

    def __init__(self, left: Column, right: Column):
        keys = np.concatenate([left.values[~left.null_mask], right.values[~right.null_mask]])
        dense = False
        if len(keys) and left.values.dtype == right.values.dtype == np.int64:
            # Python ints: the span of int64 extremes does not fit int64.
            kmin, kmax = int(keys.min()), int(keys.max())
            dense = kmax - kmin + 1 <= DIRECTORY_SPAN_FACTOR * len(keys)
        if dense:
            values = kmax - kmin + 1
            # A NULL's backing value is arbitrary; its difference may wrap
            # before it is overwritten below.
            left_codes = left.values - np.int64(kmin)
            right_codes = right.values - np.int64(kmin)
        else:
            distinct = np.unique(keys)
            values = len(distinct)
            left_codes = np.searchsorted(distinct, left.values)
            right_codes = np.searchsorted(distinct, right.values)
        left_codes[left.null_mask] = values
        right_codes[right.null_mask] = values + 1
        self.left, self.right, self.size = left_codes, right_codes, values + 2

    def codes(self, edge: JoinEdge, table: str) -> np.ndarray:
        """Code of every row of ``table``, one end of ``edge``."""
        return self.left if table == edge.left else self.right


@dataclass(frozen=True)
class TreeEdge:
    """One parent -> child edge, its codes, match ranges and degrees.

    Parent row ``i`` joins the child rows
    ``positions[starts[i] : starts[i] + counts[i]]``, in child row order
    within a key; ``counts`` is 0 for a NULL parent key.  ``forward`` is
    the number of child rows per parent row and ``reverse`` the number
    of parent rows per child row, each at least 1 (float64).
    """

    edge: JoinEdge  # oriented: ``left`` is the parent, ``right`` the child
    codes: EdgeCodes  # ``left`` codes the parent rows, ``right`` the child rows
    starts: np.ndarray
    counts: np.ndarray
    positions: np.ndarray
    forward: np.ndarray
    reverse: np.ndarray


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
                codes = child.codes
                matched = np.bincount(
                    codes.right, weights=self.weights[child.edge.right], minlength=codes.size
                )
                weight *= np.maximum(matched[codes.left], 1.0)
            self.weights[table] = weight

    @property
    def total(self) -> float:
        """Size of the full outer join along the tree."""
        return float(self.weights[self.root].sum())


def _match(database: Database, edge: JoinEdge) -> TreeEdge:
    codes = EdgeCodes(
        database.tables[edge.left].column(edge.left_column),
        database.tables[edge.right].column(edge.right_column),
    )
    per_code = np.bincount(codes.right, minlength=codes.size)
    counts = per_code[codes.left]
    reverse = np.bincount(codes.left, minlength=codes.size)[codes.right]
    return TreeEdge(
        edge,
        codes,
        # Child rows grouped by code, in row order within a code.
        starts=(np.cumsum(per_code) - per_code)[codes.left],
        counts=counts,
        positions=np.argsort(codes.right, kind="stable"),
        forward=np.maximum(counts, 1).astype(np.float64),
        reverse=np.maximum(reverse, 1).astype(np.float64),
    )
