"""Exact cardinalities for queries and their sub-plan spaces.

``TrueCardinalityService`` is the workhorse behind the ``TrueCard``
baseline, workload labelling, Q-Error denominators and the true-card
term of P-Error.  It counts every connected sub-plan of a query by
**semi-join message passing** over the query's join tree (queries are
acyclic by construction), never by joining row ids:

- every join edge ``e`` maps the values of both of its key columns into
  one shared code domain, so "the keys match" becomes "the codes are
  equal";
- the *message* a connected component ``T`` sends over an edge ``e``
  leaving it through its table ``t`` is, per key code, the number of
  tuples of ``T`` whose ``e`` key has that code: ``np.bincount`` of
  ``t``'s filtered rows by ``e``-code, each row weighted by the product
  of the messages ``t``'s other neighbours in ``T`` send it;
- a subset ``S`` with leaf ``l`` on edge ``e`` (``leaf_split``) counts
  ``dot(message of {l} over e, message of S - {l} over e)``.

Messages are memoised per ``(T, e)`` for one call and freed when it
returns, so a count costs work proportional to the filtered base tables
and the key domains, whatever the size of the intermediate results.

Selection vectors are reused across queries through an
:class:`repro.engine.cache.ExecutionContext`, and counts through a
per-(sub-)query LRU cache bounded by a byte budget.  Both are exact, and
both are dropped — together with the key-code domains — by
:meth:`TrueCardinalityService.invalidate` or automatically when the
database's ``data_version`` moves after an insert batch.  Nothing in
this module is part of a *timed* benchmark measurement.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cache import ExecutionContext, LRUByteCache
from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.executor import ExecutionAborted
from repro.engine.join_build import DIRECTORY_SPAN_FACTOR
from repro.engine.predicates import conjunction_mask
from repro.engine.query import Query
from repro.engine.subsets import connected_subsets, leaf_split
from repro.engine.table import Column

#: Budget for the per-(sub-)query exact-count cache.  Counts are tiny;
#: this bounds the formerly unbounded dict at a fixed byte footprint.
COUNT_CACHE_BYTES = 8 * 1024 * 1024


class TrueCardinalityService:
    """Computes and caches exact (sub-plan) cardinalities."""

    def __init__(
        self,
        database: Database,
        max_intermediate_rows: int = 20_000_000,
        use_exec_cache: bool = True,
        count_cache_budget_bytes: int = COUNT_CACHE_BYTES,
    ):
        # Messages and dot products are float64, exact below 2**53: see
        # sub_plan_cards for why no partial value exceeds the budget.
        assert max_intermediate_rows < 2**53
        self._database = database
        self._context = ExecutionContext(database) if use_exec_cache else None
        self._max_rows = max_intermediate_rows
        self._cache = LRUByteCache(
            count_cache_budget_bytes,
            metric_prefix="cache.truecards",
            sizer=lambda value: 160,  # key tuple + int, nominal charge
        )
        #: Key-code domain of every join edge counted so far.
        self._domains: dict[tuple, _KeyDomain] = {}
        self._seen_version = getattr(database, "data_version", 0)

    @property
    def database(self) -> Database:
        return self._database

    @property
    def context(self) -> ExecutionContext | None:
        """The execution context carrying the selection cache (or None)."""
        return self._context

    def invalidate(self) -> None:
        """Drop all cached counts, key domains and selection vectors."""
        self._cache.clear()
        self._domains.clear()
        if self._context is not None:
            self._context.invalidate()

    # -- public API ------------------------------------------------------------

    def _check_version(self) -> None:
        version = getattr(self._database, "data_version", 0)
        if version != self._seen_version:
            self.invalidate()
            self._seen_version = version

    def cardinality(self, query: Query) -> int:
        """Exact result cardinality of ``query``."""
        self._check_version()
        count = self._cache.get(query.key())
        if count is None:
            count = self.sub_plan_cards(query)[query.tables]
        return count

    def sub_plan_cards(self, query: Query) -> dict[frozenset[str], int]:
        """Exact cardinality of every sub-plan query of ``query``.

        A multi-table query aborts with :class:`ExecutionAborted` as soon
        as a connected subset — a single table included, and a count the
        cache serves included — counts above the row budget; a
        single-table query never aborts.  Subsets are counted smallest
        first, so every message and every weight a count multiplies
        counts the tuples of a smaller connected subset that has already
        passed the budget: all partial values are integers below 2**53,
        where float64 ``bincount`` and ``dot`` are exact.  A final dot
        product above 2**53 may round, but stays above the budget.
        """
        self._check_version()
        messages = _Messages(self, query)
        result: dict[frozenset[str], int] = {}
        for subset in connected_subsets(query):
            key = query.subquery(subset).key()
            count = self._cache.get(key)
            if count is None:
                count = messages.count(subset)
                self._cache.put(key, count)
            if len(query.tables) > 1 and count > self._max_rows:
                raise ExecutionAborted(
                    f"intermediate result of {count} rows exceeds budget {self._max_rows}"
                )
            result[subset] = count
        return result

    # -- internals ----------------------------------------------------------------

    def _selection(self, query: Query, table: str) -> np.ndarray:
        """Row ids of ``table`` passing ``query``'s filters on it."""
        predicates = query.predicates_on(table)
        if self._context is not None:
            return self._context.selection_rows(table, predicates)
        mask = conjunction_mask(self._database.tables[table], list(predicates))
        return np.nonzero(mask)[0]

    def _domain(self, edge: JoinEdge) -> "_KeyDomain":
        key = (edge.left, edge.left_column, edge.right, edge.right_column)
        domain = self._domains.get(key)
        if domain is None:
            tables = self._database.tables
            domain = _KeyDomain(
                tables[edge.left].column(edge.left_column),
                tables[edge.right].column(edge.right_column),
            )
            self._domains[key] = domain
        return domain


class _KeyDomain:
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


class _Messages:
    """Message memo of one ``sub_plan_cards`` call.

    Only the call's frame holds it, and it recurses through methods, not
    closures, so it and its messages are freed when the call returns: a
    recursive closure over the memo forms a reference cycle that keeps a
    finished service, selection cache included, alive until a GC pass.
    """

    def __init__(self, service: TrueCardinalityService, query: Query):
        self._service = service
        self._query = query
        self._rows: dict[str, np.ndarray] = {}
        self._codes: dict[tuple[str, JoinEdge], np.ndarray] = {}
        self._memo: dict[tuple[frozenset[str], JoinEdge], np.ndarray] = {}
        self._neighbours: dict[str, list[tuple[str, JoinEdge]]] = {
            table: [] for table in query.tables
        }
        for edge in query.join_edges:
            self._neighbours[edge.left].append((edge.right, edge))
            self._neighbours[edge.right].append((edge.left, edge))

    def count(self, subset: frozenset[str]) -> int:
        if len(subset) == 1:
            (table,) = subset
            return len(self._selection(table))
        # Every connected subset of a tree query has a leaf.
        leaf, edge = leaf_split(self._query, subset)
        rest = subset - {leaf}
        leaf_message = self._message(frozenset((leaf,)), leaf, edge)
        rest_message = self._message(rest, edge.other(leaf), edge)
        # The dot product, elementwise: OpenBLAS's threaded ddot (np.dot)
        # took ~0.5 ms per call on 20 000 codes on a 2-CPU x86 box.
        return int(np.multiply(leaf_message, rest_message).sum())

    def _selection(self, table: str) -> np.ndarray:
        rows = self._rows.get(table)
        if rows is None:
            rows = self._rows[table] = self._service._selection(self._query, table)
        return rows

    def _row_codes(self, table: str, edge: JoinEdge) -> np.ndarray:
        codes = self._codes.get((table, edge))
        if codes is None:
            domain = self._service._domain(edge)
            codes = domain.codes(edge, table)[self._selection(table)]
            self._codes[(table, edge)] = codes
        return codes

    def _message(self, component: frozenset[str], sender: str, edge: JoinEdge) -> np.ndarray:
        """Tuples of ``component`` per code of ``edge``, which leaves the
        component through ``sender``."""
        message = self._memo.get((component, edge))
        if message is not None:
            return message
        weights = None
        for neighbour, inner in self._neighbours[sender]:
            if neighbour not in component:
                continue
            branch = self._branch(component, neighbour, sender)
            factor = self._message(branch, neighbour, inner)[self._row_codes(sender, inner)]
            weights = factor if weights is None else np.multiply(weights, factor, out=weights)
        message = np.bincount(
            self._row_codes(sender, edge),
            weights=weights,
            minlength=self._service._domain(edge).size,
        ).astype(np.float64, copy=False)
        self._memo[(component, edge)] = message
        return message

    def _branch(self, component: frozenset[str], start: str, cut: str) -> frozenset[str]:
        """Tables of ``component`` reachable from ``start`` without ``cut``."""
        reached = {start}
        frontier = [start]
        while frontier:
            for neighbour, _ in self._neighbours[frontier.pop()]:
                if neighbour in component and neighbour != cut and neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        return frozenset(reached)
