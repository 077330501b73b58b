"""Result-reuse caches for the execution engine.

Exact labelling counts the sub-plans of thousands of workload queries
over the same few base tables, and the same ``(table, predicates)``
selection recurs across the sub-plans and queries that touch the table.
This module provides the reuse layer:

- :class:`LRUByteCache` — a byte-budgeted least-recently-used cache
  with hit/miss/eviction counters exported through
  :mod:`repro.obs.metrics`;
- :func:`predicates_key` — the canonical identity of a predicate
  conjunction, which keys the true-cardinality service's
  **selection-vector cache** (``(table, predicates)`` → row-id array).

**Measurement-fidelity policy.**  Caching is for *correctness-only*
work: exact-cardinality labelling (:mod:`repro.core.truecards`).  The
executor takes no cache at all, so timed end-to-end executions pay the
real cost of every scan and hash build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.engine.predicates import Predicate
from repro.obs import metrics as obs_metrics

#: Default byte budget — generous for benchmark-scale synthetic data,
#: bounded so labelling huge workloads cannot grow memory without limit.
SELECTION_CACHE_BYTES = 128 * 1024 * 1024


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
