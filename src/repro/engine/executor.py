"""Vectorised plan executor.

An intermediate result is a dict of aligned row-id arrays — row ``i`` of
the join result combines ``columns[table][i]`` — plus its row count.  It
holds a column only for the tables in the node's ``keep`` set: those
whose row ids some ancestor join still reads as a join key.  A join
takes its key arrays from its full inputs, emits the ``keep`` columns
and returns ``(columns, count)``; the root of a ``COUNT(*)`` plan keeps
nothing, so it sums its per-probe match counts and materialises no
output at all — a hash join then probes ``COUNT_CHUNK_ROWS`` rows at a
time, so its working set is its build plus a few chunk-sized arrays,
however large its probe side.  The cost of an operator therefore
scales with the cardinalities flowing through it times the key columns
still live above it — PostgreSQL's narrow tuples — which is what makes
end-to-end time a meaningful signal for plan quality.

The three join operators do physically different work:

- **hash join**: builds a :class:`repro.engine.join_build.JoinBuild`
  over the build side's *keys only* — radix-ordered for INT keys whose
  span is below ``2**32`` — and probes it once per outer key — a
  direct-address directory look-up on dense INT key domains, so the
  operator does the linear build + probe + output work the cost model
  charges it; FLOAT keys and sparse domains probe by binary search;
- **merge join**: fully reorders *both* inputs (keys and every kept
  row-id column) by the join key with a comparison sort before matching
  — the expensive sort PostgreSQL charges for;
- **index nested-loop join**: probes the inner base table's key index
  per outer row, fetching all key matches and applying the inner
  filters *after* the fetch, exactly like an index scan qual.

Executors are **re-entrant**: per-execution state (the deadline, the
row-count accumulators) is threaded through calls rather than stored on
the instance, so one executor can be shared across interleaved or
concurrent executions.

Instrumentation is opt-in and wraps the one plan walk:
``execute(plan, collect_stats=True)`` — or any execution while a
:mod:`repro.obs.trace` tracer is active — additionally records per-node
:class:`NodeRuntimeStats` (actual rows in/out, inclusive elapsed time,
operator method), emits one trace span per operator, and feeds the
``executor.rows.<operator>`` counters in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.catalog import TableSchema
from repro.engine.database import Database
from repro.engine.join_build import JoinBuild
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.engine.predicates import Predicate, conjunction_mask
from repro.engine.table import Table
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Probe rows a count-only hash join matches at a time: its working set
#: is a few arrays of this length, whatever the size of its probe side.
COUNT_CHUNK_ROWS = 65_536


class ExecutionAborted(RuntimeError):
    """Raised when an execution exceeds its row or time budget.

    The benchmark harness reports such queries the way the paper
    reports ``> 25h`` entries: the estimator produced a plan too bad to
    finish.
    """


@dataclass
class NodeRuntimeStats:
    """EXPLAIN ANALYZE-grade runtime facts for one plan node.

    ``elapsed_seconds`` is inclusive of children (PostgreSQL's "actual
    total time" convention); subtract the children's stats for
    self-time.
    """

    tables: frozenset[str]
    method: str
    rows_out: int
    elapsed_seconds: float
    rows_in: tuple[int, ...] = ()


@dataclass
class ExecutionResult:
    """Outcome of executing one plan."""

    cardinality: int
    elapsed_seconds: float
    node_rows: dict[frozenset[str], int] = field(default_factory=dict)
    #: Per-node runtime stats; populated only on instrumented runs
    #: (``collect_stats=True`` or an active tracer).
    node_stats: dict[frozenset[str], NodeRuntimeStats] = field(default_factory=dict)


class Executor:
    """Executes physical plans against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        max_intermediate_rows: int = 20_000_000,
        timeout_seconds: float | None = None,
    ):
        self._database = database
        self._max_rows = max_intermediate_rows
        self._timeout = timeout_seconds

    def execute(
        self,
        plan: PlanNode,
        collect_stats: bool = False,
        timeout_seconds: float | None = None,
    ) -> ExecutionResult:
        """Run ``plan`` and return its output cardinality and timing.

        ``timeout_seconds`` overrides the executor's configured timeout
        for this one execution — the benchmark's timeout policy passes
        the remaining per-query/per-campaign budget here when it is
        tighter than the static execution timeout.
        """
        started = time.perf_counter()
        timeout = self._timeout if timeout_seconds is None else timeout_seconds
        deadline = None if timeout is None else started + timeout
        node_rows: dict[frozenset[str], int] = {}
        node_stats: dict[frozenset[str], NodeRuntimeStats] = {}
        stats = node_stats if collect_stats or obs_trace.is_active() else None
        try:
            # Nothing above the root reads a row id: it keeps no column.
            _, cardinality = self._run(plan, frozenset(), node_rows, stats, deadline)
        except ExecutionAborted as exc:
            obs_metrics.registry().counter("executor.aborts").inc()
            obs_events.emit(
                "executor.aborted",
                level="warning",
                tables=sorted(plan.tables),
                reason=str(exc),
            )
            raise
        return ExecutionResult(
            cardinality=cardinality,
            elapsed_seconds=time.perf_counter() - started,
            node_rows=node_rows,
            node_stats=node_stats,
        )

    def count(self, plan: PlanNode) -> int:
        """Output cardinality of ``plan``."""
        return self.execute(plan).cardinality

    def join_rows(
        self,
        node: JoinNode,
        left: dict[str, np.ndarray],
        right: dict[str, np.ndarray],
        keep: frozenset[str] | None = None,
        deadline: float | None = None,
    ) -> dict[str, np.ndarray]:
        """Run a single join operator over pre-materialized inputs.

        Returns the output's row-id columns for the tables in ``keep``
        (``None``: every table the inputs hold); the inputs need only
        hold the two key tables of ``node.edge`` plus whatever is kept.
        Budget enforcement (row limits) applies exactly as inside a full
        plan walk.
        """
        if keep is None:
            keep = node.tables
        return self._join(node, left, right, keep, deadline)[0]

    def scan_rows(self, node: ScanNode) -> dict[str, np.ndarray]:
        """Run a single scan operator."""
        return self._scan(node)

    def join_count(
        self,
        node: JoinNode,
        left: dict[str, np.ndarray],
        right: dict[str, np.ndarray],
    ) -> int:
        """Output cardinality of a single join without materializing it.

        The join kernel of :meth:`join_rows` with nothing kept: per-probe
        match counts are summed directly — no range expansion, no gather
        — so counting costs what building and probing cost, regardless
        of the output size, and a count beyond the row budget aborts.
        """
        return self._join(node, left, right, frozenset(), None)[1]

    # -- plan walking ------------------------------------------------------

    def _run(
        self,
        plan: PlanNode,
        keep: frozenset[str],
        node_rows: dict[frozenset[str], int],
        node_stats: dict[frozenset[str], NodeRuntimeStats] | None,
        deadline: float | None,
    ) -> tuple[dict[str, np.ndarray], int]:
        """Evaluate ``plan``; returns its ``keep`` columns and row count.

        ``keep`` holds the tables some ancestor join still reads as a
        key (it may name tables outside ``plan``; a scan always emits
        its one column).  ``node_stats`` is ``None`` on plain runs; on
        instrumented ones every node is also timed, traced and counted.
        """
        if deadline is not None and time.perf_counter() > deadline:
            raise ExecutionAborted("execution timed out")
        if node_stats is None:
            return self._evaluate(plan, keep, node_rows, None, deadline)[:2]
        started = time.perf_counter()
        with obs_trace.span(plan.method, tables=",".join(sorted(plan.tables))) as sp:
            columns, count, rows_in = self._evaluate(plan, keep, node_rows, node_stats, deadline)
            elapsed = time.perf_counter() - started
            node_stats[plan.tables] = NodeRuntimeStats(
                tables=plan.tables,
                method=plan.method,
                rows_out=count,
                elapsed_seconds=elapsed,
                rows_in=rows_in,
            )
            sp.set(rows_out=count, elapsed_ms=round(elapsed * 1000.0, 3))
            obs_metrics.registry().counter(f"executor.rows.{plan.method}").inc(count)
            obs_metrics.registry().counter(f"executor.nodes.{plan.method}").inc()
        return columns, count

    def _evaluate(
        self,
        plan: PlanNode,
        keep: frozenset[str],
        node_rows: dict[frozenset[str], int],
        node_stats: dict[frozenset[str], NodeRuntimeStats] | None,
        deadline: float | None,
    ) -> tuple[dict[str, np.ndarray], int, tuple[int, ...]]:
        """One node of the walk: children, operator, row budget."""
        rows_in: tuple[int, ...] = ()
        if isinstance(plan, ScanNode):
            columns = self._scan(plan)
            count = len(columns[plan.table])
        else:
            assert isinstance(plan, JoinNode)
            # Each child must also deliver this join's own key column.
            child_keep = keep.union((plan.edge.left, plan.edge.right))
            left, left_count = self._run(plan.left, child_keep, node_rows, node_stats, deadline)
            right, right_count = self._run(plan.right, child_keep, node_rows, node_stats, deadline)
            rows_in = (left_count, right_count)
            columns, count = self._join(plan, left, right, keep, deadline)
        if count > self._max_rows:
            raise ExecutionAborted(
                f"intermediate result of {count} rows exceeds budget {self._max_rows}"
            )
        node_rows[plan.tables] = count
        return columns, count, rows_in

    def _check_budget(self, counts: np.ndarray) -> int:
        """Abort *before* materializing a join whose output would blow
        past the row budget (essential on machines with bounded RAM);
        otherwise the join's output row count."""
        total = int(counts.sum())
        if total > self._max_rows:
            raise ExecutionAborted(
                f"join would produce {total} rows, exceeding budget {self._max_rows}"
            )
        return total

    # -- operators -----------------------------------------------------------

    def _scan(self, node: ScanNode) -> dict[str, np.ndarray]:
        table = self._database.tables[node.table]
        mask = conjunction_mask(table, list(node.predicates))
        return {node.table: np.nonzero(mask)[0]}

    def _join(
        self,
        node: JoinNode,
        left: dict[str, np.ndarray],
        right: dict[str, np.ndarray],
        keep: frozenset[str],
        deadline: float | None,
    ) -> tuple[dict[str, np.ndarray], int]:
        """The one join kernel: keys from the full inputs, then only the
        ``keep`` columns reach the operator, which emits what it is given
        and returns ``(columns, count)``.  A hash join that keeps nothing
        counts its probe side in chunks instead (:meth:`_count_probe`)."""
        edge = node.edge
        if node.method == JOIN_HASH and not keep:
            return {}, self._count_probe(left[edge.left], right[edge.right], edge, deadline)
        left_keys, left_valid = self._key_values(left[edge.left], edge.left, edge.left_column)
        left = {name: ids for name, ids in left.items() if name in keep}
        if node.method == JOIN_INDEX_NL:
            return self._index_nl_join(node, left, left_keys, left_valid, keep, deadline)
        right_keys, right_valid = self._key_values(right[edge.right], edge.right, edge.right_column)
        right = {name: ids for name, ids in right.items() if name in keep}
        if node.method == JOIN_HASH:
            build = JoinBuild(right_keys, right_valid, len(left_keys))
            return self._hash_join(left, left_keys, left_valid, right, build)
        assert node.method == JOIN_MERGE
        return self._merge_join(
            left, left_keys, left_valid, right, right_keys, right_valid
        )

    def _key_values(
        self,
        ids: np.ndarray,
        table: str,
        column: str,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Key array of the join column at row ``ids`` plus a not-NULL
        validity mask."""
        stored = self._database.tables[table].column(column)
        return stored.values[ids], ~stored.null_mask[ids]

    def _count_probe(self, probe_ids, build_ids, edge, deadline) -> int:
        """The hash join with nothing kept: probe ``COUNT_CHUNK_ROWS``
        rows at a time and sum their match counts.  Nothing the size of
        the probe side is allocated, the row budget aborts as soon as
        the running total passes it, and the deadline is checked between
        chunks."""
        build_keys, build_valid = self._key_values(build_ids, edge.right, edge.right_column)
        build = JoinBuild(build_keys, build_valid, len(probe_ids))
        total = 0
        for begin in range(0, len(probe_ids), COUNT_CHUNK_ROWS):
            if begin and deadline is not None and time.perf_counter() > deadline:
                raise ExecutionAborted("execution timed out (hash probe)")
            keys, valid = self._key_values(
                probe_ids[begin : begin + COUNT_CHUNK_ROWS], edge.left, edge.left_column
            )
            total += int(build.match(keys[valid])[1].sum())
            if total > self._max_rows:
                raise ExecutionAborted(
                    f"join would produce over {total} rows, exceeding budget {self._max_rows}"
                )
        return total

    def _hash_join(self, left, left_keys, left_valid, right, build: JoinBuild):
        starts, counts = build.match(left_keys[left_valid])
        total = self._check_budget(counts)

        # Expand a side's matches only when one of its columns is kept.
        columns = {name: np.repeat(ids[left_valid], counts) for name, ids in left.items()}
        if right:
            build_take = build.positions[_expand_ranges(starts, counts)]
            columns.update((name, ids[build_take]) for name, ids in right.items())
        return columns, total

    def _merge_join(self, left, left_keys, left_valid, right, right_keys, right_valid):
        # Sort both inputs entirely (keys and kept columns), then match.
        left_ids = np.nonzero(left_valid)[0]
        right_ids = np.nonzero(right_valid)[0]
        left_order = left_ids[np.argsort(left_keys[left_ids], kind="stable")]
        right_order = right_ids[np.argsort(right_keys[right_ids], kind="stable")]
        left_sorted = {name: ids[left_order] for name, ids in left.items()}
        right_sorted = {name: ids[right_order] for name, ids in right.items()}
        left_sorted_keys = left_keys[left_order]
        right_sorted_keys = right_keys[right_order]

        starts = np.searchsorted(right_sorted_keys, left_sorted_keys, side="left")
        ends = np.searchsorted(right_sorted_keys, left_sorted_keys, side="right")
        counts = ends - starts
        total = self._check_budget(counts)

        columns = {name: np.repeat(ids, counts) for name, ids in left_sorted.items()}
        if right_sorted:
            build_take = _expand_ranges(starts, counts)
            columns.update((name, ids[build_take]) for name, ids in right_sorted.items())
        return columns, total

    def _index_nl_join(self, node: JoinNode, left, left_keys, left_valid, keep, deadline):
        # Genuinely per-probe: each outer row performs its own index
        # descent (a Python-level loop), mirroring how a real nested
        # loop pays a per-tuple cost that batch hash/merge joins do
        # not.  This is what makes an under-estimation-induced NLJ on a
        # large outer *actually* slow in this engine, as in PostgreSQL.
        assert isinstance(node.right, ScanNode)
        inner_table = node.right.table
        index = self._database.index(inner_table, node.edge.right_column)

        probe_ids = np.nonzero(left_valid)[0]
        probe_keys = left_keys[probe_ids]
        sorted_keys = index.sorted_keys
        searchsorted = np.searchsorted
        starts = np.empty(len(probe_keys), dtype=np.int64)
        ends = np.empty(len(probe_keys), dtype=np.int64)
        total = 0
        for i in range(len(probe_keys)):
            key = probe_keys[i]
            lo = searchsorted(sorted_keys, key, side="left")
            hi = searchsorted(sorted_keys, key, side="right")
            starts[i] = lo
            ends[i] = hi
            total += hi - lo
            if total > self._max_rows:
                raise ExecutionAborted(
                    f"index nested loop would produce over {total} rows, "
                    f"exceeding budget {self._max_rows}"
                )
            if (
                deadline is not None
                and i % 65536 == 0
                and time.perf_counter() > deadline
            ):
                raise ExecutionAborted("execution timed out (nested loop)")
        counts = ends - starts

        fetched = index.positions[_expand_ranges(starts, counts)]

        # Inner filters run per fetched tuple, after the index fetch.
        passed = self._subset_mask(inner_table, fetched, node.right.predicates)

        columns = {}
        if left:
            probe_take = np.repeat(probe_ids, counts)[passed]
            columns.update((name, ids[probe_take]) for name, ids in left.items())
        if inner_table in keep:
            columns[inner_table] = fetched[passed]
        return columns, int(np.count_nonzero(passed))

    def _subset_mask(
        self,
        table_name: str,
        row_ids: np.ndarray,
        predicates: tuple[Predicate, ...],
    ) -> np.ndarray:
        """Predicate mask evaluated only on the given rows; gathers just
        the columns the predicates name, not the whole table."""
        if not predicates:
            return np.ones(len(row_ids), dtype=bool)
        table = self._database.tables[table_name]
        names = {predicate.column for predicate in predicates}
        metas = tuple(meta for meta in table.schema.columns if meta.name in names)
        columns = {name: table.column(name).take(row_ids) for name in names}
        subset = Table(TableSchema(table_name, metas), columns)
        return conjunction_mask(subset, list(predicates))


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all i.

    Vectorised building block for expanding per-probe match ranges:
    range ``i`` begins at output position ``begins[i]``, so its entries
    are ``starts[i] - begins[i]`` plus their output position — one
    ``repeat`` and one ``arange``, added in place.
    """
    shift = starts - np.cumsum(counts)
    shift += counts
    expanded = np.repeat(shift, counts)
    expanded += np.arange(len(expanded))
    return expanded
