"""Shared sub-plan subset space: connectivity and bipartitions.

Three components used to enumerate the *sub-plan query space*
independently — :func:`repro.core.injection.sub_plan_sets`,
:meth:`repro.engine.planner.Planner.plan` and
:mod:`repro.core.truecards` — each re-deriving connected table subsets
with their own bitmask BFS.  This module is the single implementation:
a :class:`JoinSpace` captures, for one join-graph *shape* (tables plus
join edges), every connected subset and every valid tree bipartition
with its crossing edge.

Spaces are memoized per shape (:func:`plan_space`), so a workload whose
queries share join templates pays the exponential subset enumeration
once per template instead of three times per query — the planner's DP,
the injection pass and the true-cardinality service all read the same
precomputed space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.engine.catalog import JoinEdge

#: Bound on the per-join-graph-shape memo behind :func:`space_of`.  A
#: fuzz sweep presents a fresh shape per case, and each cached space
#: may carry lazily-built numpy level templates, so the memo must stay
#: bounded (and clearable, see :func:`clear_space_cache`) rather than
#: grow for the lifetime of the process.
SPACE_CACHE_MAXSIZE = 256


@dataclass(frozen=True)
class LevelTemplate:
    """Precomputed join-candidate matrix for one DP level of a space.

    A *level* is all connected masks of one subset size (two or more
    tables).  The template captures, shape-only (no cardinalities), the
    full (left-mask, right-mask, join-method) candidate matrix the
    planner scores in one kernel call:

    - per-bipartition geometry: ``split_*`` arrays, one row per
      ``(sub, rest, edge)`` split of any parent at this level, with the
      crossing edge pre-oriented so ``edge.left`` lies in the left half;
    - the index-nested-loop-eligible subset (``inl_*``): splits whose
      right half is a single base table;
    - expanded per-candidate arrays (``cand_*``) laid out as
      ``[hash splits | merge splits | index-NL splits]`` for champion
      selection under the ``(cost, method_rank, left_mask)`` order.

    ``parent_masks`` lists *every* connected mask of this size in
    canonical order (even split-less ones), so the planner's
    search-effort metrics count every enumerated sub-plan.
    """

    parent_masks: tuple[int, ...]
    parent_subsets: tuple[frozenset[str], ...]
    split_parent: np.ndarray
    split_parent_ord: np.ndarray
    split_left: np.ndarray
    split_right: np.ndarray
    split_edges: tuple[JoinEdge, ...]
    inl_rows: np.ndarray
    inl_inner_table: np.ndarray
    cand_parent_ord: np.ndarray
    cand_left: np.ndarray
    cand_rank: np.ndarray
    cand_split: np.ndarray


@dataclass(frozen=True)
class JoinSpace:
    """The connected-subset space of one join-graph shape.

    Attributes:
        tables: the joined tables, sorted; bit ``i`` of a mask refers to
            ``tables[i]``.
        connected_masks: bitmasks of every connected subset, ordered by
            size then lexicographically by table names (the canonical
            sub-plan enumeration order).
        subsets: the same subsets as frozensets, aligned with
            ``connected_masks``.
        splits: for every connected mask of two or more tables, the
            ordered ``(left_mask, right_mask, crossing_edge)``
            bipartitions into two connected halves joined by exactly one
            edge — precisely the join candidates a tree-query DP
            considers.  Enumeration order is the classic descending
            sub-mask walk; plan choice does not depend on it, because
            the planner breaks cost ties with the codified
            ``(cost, method_rank, left_mask)`` total order.
        pruned_bipartitions: how many (sub, rest) pairs were discarded
            while building ``splits`` (disconnected halves or not a
            single-edge tree split); kept for the planner's
            search-effort metrics.
    """

    tables: tuple[str, ...]
    connected_masks: tuple[int, ...]
    subsets: tuple[frozenset[str], ...]
    splits: dict[int, tuple[tuple[int, int, JoinEdge], ...]]
    pruned_bipartitions: int

    @property
    def full_mask(self) -> int:
        return (1 << len(self.tables)) - 1

    def bit_of(self, table: str) -> int:
        return 1 << self.tables.index(table)

    def tables_of(self, mask: int) -> frozenset[str]:
        return frozenset(
            name for i, name in enumerate(self.tables) if mask & (1 << i)
        )

    def is_connected(self, mask: int) -> bool:
        return mask in self._connected_set

    @property
    def _connected_set(self) -> frozenset[int]:
        # Built lazily; object.__setattr__ because the dataclass is frozen.
        cached = self.__dict__.get("_connected_set_cache")
        if cached is None:
            cached = frozenset(self.connected_masks)
            object.__setattr__(self, "_connected_set_cache", cached)
        return cached

    def mask_array(self) -> np.ndarray:
        """``connected_masks`` as an int64 array (lazily built, cached)."""
        cached = self.__dict__.get("_mask_array_cache")
        if cached is None:
            cached = np.array(self.connected_masks, dtype=np.int64)
            object.__setattr__(self, "_mask_array_cache", cached)
        return cached

    def level_templates(self) -> tuple[LevelTemplate, ...]:
        """Per-level candidate matrices for the planner DP.

        Built lazily on first use and cached on the (memoized) space,
        so every query sharing this join-graph shape reuses one set of
        arrays.
        """
        cached = self.__dict__.get("_level_templates_cache")
        if cached is None:
            cached = _build_level_templates(self)
            object.__setattr__(self, "_level_templates_cache", cached)
        return cached


def _build_level_templates(space: JoinSpace) -> tuple[LevelTemplate, ...]:
    bit_of = {name: 1 << i for i, name in enumerate(space.tables)}
    by_size: dict[int, list[int]] = {}
    subset_of = dict(zip(space.connected_masks, space.subsets))
    # connected_masks are canonically ordered by (size, names), so each
    # per-size bucket inherits the canonical parent order.
    for mask in space.connected_masks:
        size = mask.bit_count()
        if size >= 2:
            by_size.setdefault(size, []).append(mask)

    templates: list[LevelTemplate] = []
    for size in sorted(by_size):
        masks = by_size[size]
        sp_parent: list[int] = []
        sp_ord: list[int] = []
        sp_left: list[int] = []
        sp_right: list[int] = []
        sp_edges: list[JoinEdge] = []
        inl_rows: list[int] = []
        inl_inner: list[int] = []
        for ord_, mask in enumerate(masks):
            for sub, rest, edge in space.splits[mask]:
                row = len(sp_left)
                sp_parent.append(mask)
                sp_ord.append(ord_)
                sp_left.append(sub)
                sp_right.append(rest)
                sp_edges.append(edge if bit_of[edge.left] & sub else edge.reversed())
                if rest.bit_count() == 1:
                    # Single-table right half: always planned as a base
                    # scan, so index nested-loop is a legal method.
                    inl_rows.append(row)
                    inl_inner.append(rest.bit_length() - 1)
        num_splits = len(sp_left)
        split_parent = np.array(sp_parent, dtype=np.int64)
        split_parent_ord = np.array(sp_ord, dtype=np.int64)
        split_left = np.array(sp_left, dtype=np.int64)
        split_right = np.array(sp_right, dtype=np.int64)
        inl = np.array(inl_rows, dtype=np.intp)
        split_idx = np.arange(num_splits, dtype=np.int64)
        templates.append(
            LevelTemplate(
                parent_masks=tuple(masks),
                parent_subsets=tuple(subset_of[mask] for mask in masks),
                split_parent=split_parent,
                split_parent_ord=split_parent_ord,
                split_left=split_left,
                split_right=split_right,
                split_edges=tuple(sp_edges),
                inl_rows=inl,
                inl_inner_table=np.array(inl_inner, dtype=np.int64),
                cand_parent_ord=np.concatenate(
                    [split_parent_ord, split_parent_ord, split_parent_ord[inl]]
                ),
                cand_left=np.concatenate([split_left, split_left, split_left[inl]]),
                cand_rank=np.concatenate(
                    [
                        np.zeros(num_splits, dtype=np.int64),
                        np.ones(num_splits, dtype=np.int64),
                        np.full(len(inl_rows), 2, dtype=np.int64),
                    ]
                ),
                cand_split=np.concatenate([split_idx, split_idx, split_idx[inl]]),
            )
        )
    return tuple(templates)


def _build_space(tables: tuple[str, ...], edges: tuple[JoinEdge, ...]) -> JoinSpace:
    bit_of = {name: 1 << i for i, name in enumerate(tables)}
    adjacency = {name: 0 for name in tables}
    edge_bits: list[tuple[int, int, JoinEdge]] = []
    for edge in edges:
        adjacency[edge.left] |= bit_of[edge.right]
        adjacency[edge.right] |= bit_of[edge.left]
        edge_bits.append((bit_of[edge.left], bit_of[edge.right], edge))

    def is_connected(mask: int) -> bool:
        seen = mask & -mask
        frontier = seen
        while frontier:
            reachable = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                reachable |= adjacency[tables[bit.bit_length() - 1]] & mask
            frontier = reachable & ~seen
            seen |= frontier
        return seen == mask

    connected: list[int] = []
    for mask in range(1, 1 << len(tables)):
        if is_connected(mask):
            connected.append(mask)
    subsets_of = {
        mask: frozenset(name for name in tables if bit_of[name] & mask)
        for mask in connected
    }
    # Canonical sub-plan order: by size, then lexicographically.
    connected.sort(key=lambda m: (m.bit_count(), tuple(sorted(subsets_of[m]))))
    connected_set = set(connected)

    def crossing_edge(left_mask: int, right_mask: int) -> JoinEdge | None:
        crossing = None
        for left_bit, right_bit, edge in edge_bits:
            spans = (left_bit & left_mask and right_bit & right_mask) or (
                left_bit & right_mask and right_bit & left_mask
            )
            if spans:
                if crossing is not None:
                    return None  # multiple crossing edges: not a tree split
                crossing = edge
        return crossing

    splits: dict[int, tuple[tuple[int, int, JoinEdge], ...]] = {}
    pruned = 0
    for mask in connected:
        if mask.bit_count() < 2:
            continue
        found: list[tuple[int, int, JoinEdge]] = []
        # Descending sub-mask walk.  Order is cosmetic: champion
        # selection uses the (cost, method_rank, left_mask) total
        # order, not enumeration order.
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub in connected_set and rest in connected_set:
                edge = crossing_edge(sub, rest)
                if edge is not None:
                    found.append((sub, rest, edge))
                else:
                    pruned += 1
            else:
                pruned += 1
            sub = (sub - 1) & mask
        splits[mask] = tuple(found)

    return JoinSpace(
        tables=tables,
        connected_masks=tuple(connected),
        subsets=tuple(subsets_of[mask] for mask in connected),
        splits=splits,
        pruned_bipartitions=pruned,
    )


@lru_cache(maxsize=SPACE_CACHE_MAXSIZE)
def _space_cached(tables: tuple[str, ...], edges: tuple[JoinEdge, ...]) -> JoinSpace:
    return _build_space(tables, edges)


def space_cache_info():
    """LRU statistics of the per-shape space memo (``functools`` format)."""
    return _space_cached.cache_info()


def clear_space_cache() -> None:
    """Drop every memoized :class:`JoinSpace`.

    Each cached space pins its lazily-built numpy level templates, so
    long-lived processes that keep presenting *fresh* join-graph shapes
    — most notably the ``repro check`` fuzz sweep, where every case is
    a new schema — should call this between shapes rather than rely on
    LRU eviction alone.
    """
    _space_cached.cache_clear()


def plan_space(
    tables: frozenset[str],
    join_edges: tuple[JoinEdge, ...],
) -> JoinSpace:
    """The (memoized) subset space of a join-graph shape.

    Queries instantiated from the same join template share one space;
    the cache is keyed by the sorted table names plus a canonical edge
    ordering, so edge tuple order does not split the cache.
    """
    canonical_edges = tuple(
        sorted(
            join_edges,
            key=lambda e: (e.left, e.left_column, e.right, e.right_column),
        )
    )
    return _space_cached(tuple(sorted(tables)), canonical_edges)


def space_of(query) -> JoinSpace:
    """The subset space of one :class:`repro.engine.query.Query`."""
    return plan_space(query.tables, query.join_edges)


def connected_subsets(query) -> list[frozenset[str]]:
    """All connected table subsets of ``query``, smallest first.

    Canonical order: by size, then lexicographically — the sub-plan
    enumeration order every consumer (injection, planner, truecards)
    agrees on.
    """
    return list(space_of(query).subsets)


def leaf_split(query, subset: frozenset[str]) -> tuple[str, JoinEdge] | None:
    """A table of ``subset`` removable without disconnecting it.

    For tree-shaped join graphs every connected subset of two or more
    tables has a leaf (a table touching exactly one in-subset edge);
    the returned edge is the single edge connecting the leaf to the
    rest.  Deterministic: the lexicographically first leaf wins.
    Returns None for degenerate (non-tree) edge sets.
    """
    edges = query.edges_within(subset)
    degree: dict[str, int] = {name: 0 for name in subset}
    incident: dict[str, JoinEdge] = {}
    for edge in edges:
        degree[edge.left] += 1
        degree[edge.right] += 1
        incident[edge.left] = edge
        incident[edge.right] = edge
    for name in sorted(subset):
        if degree[name] == 1:
            return name, incident[name]
    return None
