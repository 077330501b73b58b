"""PessEst: pessimistic cardinality estimation (baseline method 5).

Follows Cai, Balazinska & Suciu's bound-sketch idea: cardinalities are
*upper-bounded* using per-key degree statistics over hash-partitioned
key buckets, so the estimator never under-estimates — which is exactly
what protects it from the catastrophic nested-loop/merge plans that
under-estimation provokes (the paper finds it within 4% of TrueCard on
STATS-CEB).

The bound for an acyclic join rooted at table ``r`` is::

    |Q| <= sum_b  cnt_r(b) * prod_over_first_edge maxdeg(b) * prod_rest maxdeg

i.e. the first hop from the root uses bucket-partitioned counts and
degrees (a tighter, distribution-aware product) and deeper hops use
global maximum degrees of the filtered child tables.  The estimate is
the minimum bound over all root choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.cache import LRUByteCache, predicates_key
from repro.engine.database import Database
from repro.engine.predicates import Predicate, conjunction_mask
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator

#: Byte budget of the cross-query sketch store (a record is ~1 KiB per
#: key column, so this holds the filtered tables of thousands of queries).
SKETCH_CACHE_BYTES = 32 * 1024 * 1024


@dataclass
class _Sketch:
    """Bound sketches of one filtered table; its row mask is not kept."""

    table: str
    predicates: tuple[Predicate, ...]
    rows: float = 0.0
    #: key column -> (rows per bucket, maximum key degree per bucket)
    columns: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return 64 + sum(c.nbytes + d.nbytes for c, d in self.columns.values())


@dataclass
class _Memo:
    """What the sub-plans priced by one ``estimate_batch`` call share.

    Filtered tables and join edges get one bit each, so the identity of
    a subtree — its tables with their predicates and its edges — is the
    OR of its members' bits.
    """

    #: (table, predicates as written) or join edge -> its bit
    bits: dict = field(default_factory=dict)
    #: (table, predicates as written) -> sketch
    sketches: dict[tuple, _Sketch] = field(default_factory=dict)
    #: (table, link column, subtree mask) -> (U, D, S, max D)
    subtrees: dict[tuple, tuple] = field(default_factory=dict)

    def bit(self, member) -> int:
        return self.bits.setdefault(member, 1 << len(self.bits))


@dataclass
class _Tree:
    """One (sub-)query's join tree as the bound recursion walks it."""

    sketches: dict[str, _Sketch]
    bits: dict[str, int]
    #: table -> [(own column, other table, its column, edge bit)]
    adjacent: dict[str, list[tuple]]
    masks: dict[tuple, int] = field(default_factory=dict)

    def mask(self, table: str, via: int) -> int:
        """Identity of the subtree at ``table`` that does not cross edge ``via``."""
        mask = self.masks.get((table, via))
        if mask is None:
            mask = self.bits[table]
            for _, child, _, bit in self.adjacent[table]:
                if bit != via:
                    mask |= bit | self.mask(child, bit)
            self.masks[(table, via)] = mask
        return mask


class PessimisticEstimator(CardinalityEstimator):
    """Hash-partitioned degree bounds; never under-estimates."""

    name = "PessEst"

    def __init__(self, num_buckets: int = 64):
        super().__init__()
        self._num_buckets = num_buckets
        self._database: Database | None = None
        # Sub-plans of many queries filter the same tables the same way,
        # so sketches are kept across calls — as (database, its
        # data_version, records), only for the state they were taken
        # from, and never in a saved model.
        self._store: tuple[Database, int, LRUByteCache] | None = None

    def _fit(self, database: Database) -> None:
        # Model-free (online sketches over filtered tables).
        self._database = database
        self._store = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_store": None}

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows) -> None:
        """Sketches are computed online against the live tables."""
        self._store = None

    def model_size_bytes(self) -> int:
        return 0

    def _records(self) -> LRUByteCache:
        database, store = self._database, self._store
        if store is None or store[0] is not database or store[1] != database.data_version:
            records = LRUByteCache(SKETCH_CACHE_BYTES, metric_prefix="cache.pessest")
            store = self._store = (database, database.data_version, records)
        return store[2]

    # -- estimation ------------------------------------------------------------

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Price ``queries``, combining each distinct subtree once.

        The sub-plans of one query hang the same subtrees off different
        parents and roots; ``memo`` keeps every subtree's bound triple
        for the length of this call only.
        """
        assert self._database is not None, "estimate() before fit()"
        memo = _Memo()
        return [self._estimate(query, memo) for query in queries]

    def _estimate(self, query: Query, memo: _Memo) -> float:
        tree = _Tree({}, {}, {table: [] for table in query.tables})
        for table in query.tables:
            key = (table, query.predicates_on(table))
            if key not in memo.sketches:
                memo.sketches[key] = self._sketch(*key)
            tree.sketches[table], tree.bits[table] = memo.sketches[key], memo.bit(key)
        if query.num_tables == 1:
            return tree.sketches[next(iter(query.tables))].rows

        for edge in query.join_edges:
            bit = memo.bit(edge)
            tree.adjacent[edge.left].append(
                (edge.left_column, edge.right, edge.right_column, bit)
            )
            tree.adjacent[edge.right].append(
                (edge.right_column, edge.left, edge.left_column, bit)
            )
        bounds = [self._rooted_bound(memo, tree, root) for root in sorted(query.tables)]
        return max(1.0, min(bounds))

    def _rooted_bound(self, memo: _Memo, tree: _Tree, root: str) -> float:
        """Upper bound for the join tree rooted at ``root``.

        Every subtree propagates a triple: a count-anchored per-bucket
        bound ``U(b)`` (max subtree rows whose link key falls into
        bucket ``b``), a degree-anchored per-bucket bound ``D(b)``
        (max subtree rows per parent row with key in ``b``) and a
        scalar total bound ``S`` (plus ``max D``, which every parent
        needs).  Combinations take the minimum over anchor choices per
        bucket; the scalar total lets tight bounds (e.g. of a
        many-to-many pair) survive key-space bridges where per-bucket
        information is lost.  This is the bound-sketch recipe of Cai et
        al. restricted to tree-shaped joins.
        """
        if tree.sketches[root].rows == 0:
            return 0.0

        children_by_column: dict[str, list[tuple]] = {}
        for column, child, child_column, bit in tree.adjacent[root]:
            children_by_column.setdefault(column, []).append(
                self._subtree(memo, tree, child, child_column, bit)
            )

        # Per column group: bucket-wise combination of the root's
        # counts/degrees with the children's U/D vectors; other groups
        # contribute their global per-row maxima.  Minimize over which
        # group receives the bucketed treatment and over scalar-total
        # anchors at any child subtree.
        global_factor = {
            column: math.prod((d_max for _, _, _, d_max in triples), start=1.0)
            for column, triples in children_by_column.items()
        }
        best = np.inf
        for column, triples in sorted(children_by_column.items()):
            cnt_root, deg_root = self._column_sketch(tree.sketches[root], column)
            other_groups = math.prod(
                (f for c, f in global_factor.items() if c != column), start=1.0
            )
            combined = self._combine_bucketwise(cnt_root, deg_root, triples)
            best = min(best, float(combined.sum()) * other_groups)
            # Scalar anchors: total subtree rows of one child times the
            # worst-case multiplicity of everything else.
            for i, (_, _, s_child, _) in enumerate(triples):
                per_row = deg_root
                for j, (_, d_other, _, _) in enumerate(triples):
                    if j != i:
                        per_row = per_row * d_other
                option = s_child * float(per_row.max(initial=0.0)) * other_groups
                best = min(best, option)
        return best

    @staticmethod
    def _combine_bucketwise(
        cnt: np.ndarray,
        deg: np.ndarray,
        triples: list[tuple],
    ) -> np.ndarray:
        """Per-bucket min over anchor choices for one column group.

        Anchoring at the parent: ``cnt(b) * prod_c D_c(b)``; anchoring
        at child ``c``: ``U_c(b) * deg(b) * prod_{c' != c} D_{c'}(b)``.
        """
        product_all = np.ones_like(cnt)
        for _, d, _, _ in triples:
            product_all = product_all * d
        bound = cnt * product_all
        for i, (u, _, _, _) in enumerate(triples):
            others = np.ones_like(cnt)
            for j, (_, d_other, _, _) in enumerate(triples):
                if j != i:
                    others = others * d_other
            bound = np.minimum(bound, u * deg * others)
        return bound

    def _subtree(
        self, memo: _Memo, tree: _Tree, table: str, link_column: str, via: int
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """``_subtree_vectors``, combined once per distinct subtree and memo."""
        key = (table, link_column, tree.mask(table, via))
        triple = memo.subtrees.get(key)
        if triple is None:
            triple = memo.subtrees[key] = self._subtree_vectors(
                memo, tree, table, link_column, via
            )
        return triple

    def _subtree_vectors(
        self, memo: _Memo, tree: _Tree, table: str, link_column: str, via: int
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(U, D, S, max D) bounds of the subtree reached via edge ``via``,
        which lands on ``table.link_column``."""
        sketch = tree.sketches[table]
        cnt, deg = self._column_sketch(sketch, link_column)
        aligned: list[tuple] = []
        non_aligned: list[tuple[str, tuple]] = []
        for column, child, child_column, bit in tree.adjacent[table]:
            if bit == via:
                continue
            triple = self._subtree(memo, tree, child, child_column, bit)
            if column == link_column:
                aligned.append(triple)
            else:
                non_aligned.append((column, triple))

        scalar = math.prod((t[3] for _, t in non_aligned), start=1.0)
        u = self._combine_bucketwise(cnt, deg, aligned) * scalar
        d = deg * scalar
        for _, d_child, _, _ in aligned:
            d = d * d_child

        # Scalar total: parent-count anchor, or any child's total times
        # the worst-case multiplicity of this table and its siblings.
        total = float(u.sum())
        for i, (_, _, s_child, _) in enumerate(aligned):
            per_row = deg
            for j, (_, d_other, _, _) in enumerate(aligned):
                if j != i:
                    per_row = per_row * d_other
            total = min(total, s_child * float(per_row.max(initial=0.0)) * scalar)
        aligned_factor = math.prod((t[3] for t in aligned), start=1.0)
        for i, (column, (_, _, s_child, _)) in enumerate(non_aligned):
            # Multiplicity of this table per anchored-child row on that
            # column, times every *other* child's per-row expansion.
            # Siblings joining on the same column compose per bucket
            # (their key buckets coincide with the anchor's); siblings
            # on other columns contribute their global maxima.
            per_row = self._column_sketch(sketch, column)[1]
            other_columns = 1.0
            for j, (sibling_column, sibling) in enumerate(non_aligned):
                if j == i:
                    continue
                if sibling_column == column:
                    per_row = per_row * sibling[1]
                else:
                    other_columns *= sibling[3]
            total = min(
                total,
                s_child
                * float(per_row.max(initial=0.0))
                * aligned_factor
                * other_columns,
            )
        # The per-bucket count bound can never exceed the subtree total.
        u = np.minimum(u, total)
        return u, d, total, float(d.max(initial=0.0))

    # -- sketches --------------------------------------------------------------

    def _sketch(self, table: str, predicates: tuple[Predicate, ...]) -> _Sketch:
        """The stored record of ``table`` under ``predicates``, or a new one."""
        sketch = self._records().get((table, predicates_key(predicates)))
        if sketch is None:
            sketch = _Sketch(table, predicates)
            self._measure(sketch, self._database.key_columns(table))
        return sketch

    def _column_sketch(
        self, sketch: _Sketch, column: str
    ) -> tuple[np.ndarray, np.ndarray]:
        if column not in sketch.columns:
            # A join on a column the schema's join graph does not list.
            self._measure(sketch, (column,))
        return sketch.columns[column]

    def _measure(self, sketch: _Sketch, columns: tuple[str, ...]) -> None:
        """Sketch ``columns`` of the filtered live table and (re)store the record."""
        data = self._database.tables[sketch.table]
        mask = conjunction_mask(data, list(sketch.predicates))
        sketch.rows = float(mask.sum())
        for column in columns:
            keys = data.column(column)
            values = keys.values[mask & ~keys.null_mask]
            counts = np.zeros(self._num_buckets, dtype=np.float64)
            np.add.at(counts, self._hash_bucket(values), 1.0)
            degrees = np.zeros(self._num_buckets, dtype=np.float64)
            if len(values):
                uniques, multiplicity = np.unique(values, return_counts=True)
                np.maximum.at(
                    degrees, self._hash_bucket(uniques), multiplicity.astype(np.float64)
                )
            sketch.columns[column] = (counts, degrees)
        self._records().put(
            (sketch.table, predicates_key(sketch.predicates)), sketch, sketch.nbytes
        )

    def _hash_bucket(self, values: np.ndarray) -> np.ndarray:
        # Multiplicative integer hashing (Knuth) into the bucket range.
        mixed = (values.astype(np.uint64) * np.uint64(2654435761)) >> np.uint64(16)
        return (mixed % np.uint64(self._num_buckets)).astype(np.int64)
