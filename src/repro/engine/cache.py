"""Result-reuse caches for the execution engine.

The benchmark platform evaluates every estimator on the full sub-plan
query space of every workload query — thousands of plan-inject-execute
cycles over the same eight base tables.  Most of that work repeats:
the same ``(table, predicates)`` selection is re-filtered for every
sub-plan that touches the table, and the same hash-join build side is
rebuilt for every plan that probes it.  This module provides the
reuse layer:

- :class:`LRUByteCache` — a byte-budgeted least-recently-used cache
  with hit/miss/eviction counters exported through
  :mod:`repro.obs.metrics`;
- :class:`ExecutionContext` — the cache bundle an :class:`Executor
  <repro.engine.executor.Executor>` consults: a **selection-vector
  cache** (canonical ``(table, predicates)`` key → row-id array) and a
  **join build-side cache** (``(table, column, selection)`` key →
  :class:`repro.engine.join_build.JoinBuild`), both automatically
  invalidated when the database's ``data_version`` moves (i.e. after
  inserts).

**Measurement-fidelity policy.**  Caching is for *correctness-only*
work: exact-cardinality labelling, Q-/P-Error computation and plan
enumeration.  Timed end-to-end executions must keep paying the real
cost of every scan and build, so the benchmark's timed executor runs
without a context by default (see
:class:`repro.core.benchmark.EndToEndBenchmark`); tests assert this
policy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.engine.join_build import JoinBuild
from repro.engine.predicates import Predicate, conjunction_mask
from repro.obs import metrics as obs_metrics

#: Default byte budgets — generous for benchmark-scale synthetic data,
#: bounded so labelling huge workloads cannot grow memory without limit.
SELECTION_CACHE_BYTES = 128 * 1024 * 1024
JOIN_BUILD_CACHE_BYTES = 128 * 1024 * 1024


def default_sizer(value) -> int:
    """Byte footprint of a cached value (arrays and tuples of arrays)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(default_sizer(item) for item in value) + 64
    # Scalars, ints, small objects: a nominal fixed charge.
    return 64


class LRUByteCache:
    """Least-recently-used mapping bounded by a byte budget.

    ``get`` refreshes recency; ``put`` evicts from the cold end until
    the budget holds.  A value larger than the whole budget is simply
    not stored.  Hit/miss/eviction counts feed
    ``<metric_prefix>.hits`` / ``.misses`` / ``.evictions`` counters in
    the process metrics registry, and ``<metric_prefix>.bytes`` tracks
    the resident footprint.  ``get``/``put``/``clear`` hold a lock: an
    estimator's cache is reached from every serving thread.
    """

    def __init__(
        self,
        budget_bytes: int,
        metric_prefix: str = "cache",
        sizer: Callable[[object], int] = default_sizer,
    ):
        self._budget = int(budget_bytes)
        self._sizer = sizer
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.metric_prefix = metric_prefix
        # Metric names are resolved through the registry on every use
        # (not bound to Counter objects) so a metrics reset() cannot
        # detach the cache from its counters.
        self._hits_name = f"{metric_prefix}.hits"
        self._misses_name = f"{metric_prefix}.misses"
        self._evictions_name = f"{metric_prefix}.evictions"
        # Materialize the counters and the footprint gauge immediately
        # so cache behaviour is visible (at zero) in every metrics
        # snapshot, dump and Prometheus export — not only after the
        # first hit or eviction happens to touch them.
        registry = obs_metrics.registry()
        registry.counter(self._hits_name)
        registry.counter(self._misses_name)
        registry.counter(self._evictions_name)
        registry.gauge(f"{metric_prefix}.bytes")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def budget_bytes(self) -> int:
        return self._budget

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def get(self, key):
        """The cached value (refreshing recency), or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            obs_metrics.registry().counter(self._misses_name).inc()
            return None
        obs_metrics.registry().counter(self._hits_name).inc()
        return entry[0]

    def put(self, key, value, nbytes: int | None = None) -> None:
        """Store ``value``; evicts cold entries to respect the budget."""
        size = self._sizer(value) if nbytes is None else int(nbytes)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if size > self._budget:
                return  # larger than the whole cache: not worth storing
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self._budget and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                obs_metrics.registry().counter(self._evictions_name).inc()
            obs_metrics.registry().gauge(f"{self.metric_prefix}.bytes").set(self._bytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
        obs_metrics.registry().gauge(f"{self.metric_prefix}.bytes").set(0)


def predicates_key(predicates: tuple[Predicate, ...]) -> tuple:
    """Canonical hashable identity of a predicate conjunction.

    Order-insensitive (conjunctions commute), matching the predicate
    component of :meth:`repro.engine.query.Query.key`.
    """
    return tuple(
        sorted(
            (
                p.table,
                p.column,
                p.op,
                tuple(p.value) if isinstance(p.value, tuple) else p.value,
            )
            for p in predicates
        )
    )


class ExecutionContext:
    """Shared result-reuse state for one evaluation campaign.

    Holds the selection-vector and join-build caches an executor (and
    the true-cardinality service) consult.  Invalidation is wired to
    the data-update path: every access compares the database's
    ``data_version`` against the version the caches were filled at and
    drops everything when they diverge, so Table-6 style insert
    batches can never serve stale row ids.  ``invalidate()`` forces the
    same drop explicitly.
    """

    def __init__(
        self,
        database,
        enabled: bool = True,
        selection_budget_bytes: int = SELECTION_CACHE_BYTES,
        join_build_budget_bytes: int = JOIN_BUILD_CACHE_BYTES,
    ):
        self._database = database
        self.enabled = enabled
        self._seen_version = getattr(database, "data_version", 0)
        self.selection = LRUByteCache(
            selection_budget_bytes, metric_prefix="cache.selection"
        )
        self.join_build = LRUByteCache(
            join_build_budget_bytes, metric_prefix="cache.join_build"
        )

    @property
    def database(self):
        return self._database

    def invalidate(self) -> None:
        """Drop every cached selection vector and build structure."""
        self.selection.clear()
        self.join_build.clear()

    def _check_version(self) -> None:
        version = getattr(self._database, "data_version", 0)
        if version != self._seen_version:
            self.invalidate()
            self._seen_version = version

    # -- cached computations ---------------------------------------------------

    def selection_rows(
        self, table_name: str, predicates: tuple[Predicate, ...]
    ) -> np.ndarray:
        """Row ids of ``table_name`` satisfying ``predicates``.

        The returned array is shared across callers and must be treated
        as read-only (the engine only ever fancy-indexes row-id
        arrays, never mutates them).
        """
        self._check_version()
        key = (table_name, predicates_key(predicates))
        rows = self.selection.get(key)
        if rows is None:
            table = self._database.tables[table_name]
            mask = conjunction_mask(table, list(predicates))
            rows = np.nonzero(mask)[0]
            self.selection.put(key, rows, rows.nbytes)
        return rows

    def hash_build(
        self,
        table_name: str,
        column: str,
        predicates: tuple[Predicate, ...],
        keys: np.ndarray,
        valid: np.ndarray,
        probe_rows: int,
    ) -> JoinBuild:
        """Hash-join build structure for a base-table build side.

        ``keys``/``valid`` are the build side's join-key array and
        not-NULL mask as produced for the scan output of
        ``(table_name, predicates)``; the cached value is the
        :class:`JoinBuild` over them, whose positions index into that
        scan's row array.  ``probe_rows`` sizes the build made on a
        miss.  Match ranges do not depend on it, so cache hits are
        bit-identical to recomputation.
        """
        self._check_version()
        key = (table_name, column, predicates_key(predicates))
        build = self.join_build.get(key)
        if build is None:
            build = JoinBuild(keys, valid, probe_rows)
            self.join_build.put(key, build, build.nbytes)
        return build
