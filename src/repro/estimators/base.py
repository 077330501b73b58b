"""Estimator interfaces.

Every CardEst method is an independent tool that plugs into the
benchmark through one call: ``estimate(query) -> float``.  Data-driven
and traditional methods learn from the database (``fit``); query-driven
methods additionally require a labelled training workload
(``fit_queries``).  Methods that support incremental maintenance
implement ``update`` (the Table 6 experiment).
"""

from __future__ import annotations

import abc
import time
import zlib

from repro.engine.database import Database
from repro.engine.query import Query
from repro.engine.table import Table


def stable_hash(value: object) -> int:
    """A ``hash`` that is the same in every process.

    ``hash`` of a ``str`` is salted per process (``PYTHONHASHSEED``), so a
    random seed derived from it makes two runs fit or sample differently;
    seeds are derived from this CRC-32 of ``repr(value)`` instead.
    """
    return zlib.crc32(repr(value).encode())


class EstimationError(RuntimeError):
    """A *deterministic* inference failure.

    Estimators raise this (instead of a generic exception) when an
    estimate cannot succeed no matter how often it is retried — a model
    that never saw the queried column, corrupted persisted state, an
    unsupported join shape.  The benchmark's resilience layer treats
    any exception from :meth:`CardinalityEstimator.estimate` as a
    per-query failure rather than a campaign abort, but retries only
    errors *other* than this one; an ``EstimationError`` goes straight
    to the graceful-degradation fallback.
    """


class CardinalityEstimator(abc.ABC):
    """Base class for all CardEst methods."""

    #: short display name used in the paper's tables.
    name: str = "base"

    def __init__(self) -> None:
        self.training_seconds: float = 0.0

    # -- lifecycle ------------------------------------------------------------

    def fit(self, database: Database) -> "CardinalityEstimator":
        """Build the model from the database; records training time."""
        started = time.perf_counter()
        self._fit(database)
        self.training_seconds = time.perf_counter() - started
        return self

    @abc.abstractmethod
    def _fit(self, database: Database) -> None:
        """Model construction; implemented by subclasses."""

    @abc.abstractmethod
    def estimate(self, query: Query) -> float:
        """Estimated cardinality of ``query`` (>= 0)."""

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Estimated cardinalities for ``queries``, in order.

        The batch contract: ``estimate_batch(queries)`` must agree with
        ``[estimate(q) for q in queries]`` to floating-point noise
        (the ``batch`` metamorphic invariant of ``repro check`` holds
        every estimator to 1e-9 relative tolerance) and must raise if
        *any* individual estimate would raise — callers that need
        per-query failure isolation fall back to the per-query loop.

        The default implementation is exactly that loop.  The numpy
        families (LW-NN, MSCN, LW-XGB, and the vectorised traditional
        methods) override it to price a whole sub-plan space in one
        forward pass; the per-query-evaluation families (the fan-out
        PGMs BayesCard / DeepDB / FLAT, and PessEst) answer each
        distinct per-table model question or subtree bound once per
        call and recombine per sub-plan, ``estimate`` being a batch of
        one.  This is the benchmark's inference hot path, since the
        end-to-end protocol prices every connected sub-plan of every
        query.
        """
        return [float(self.estimate(query)) for query in queries]

    # -- practicality aspects ---------------------------------------------------

    @property
    def supports_update(self) -> bool:
        """Whether :meth:`update` performs an incremental update (rather
        than raising)."""
        return False

    def update(self, new_rows: dict[str, Table]) -> None:
        """Incrementally absorb inserted rows (already added to the DB).

        Only meaningful when :attr:`supports_update` is True; the
        default raises to make accidental use loud, mirroring the
        paper's observation that some methods simply cannot update.
        """
        raise NotImplementedError(f"{self.name} does not support incremental updates")

    def model_size_bytes(self) -> int:
        """Approximate size of the persisted model."""
        return 0


class QueryDrivenEstimator(CardinalityEstimator):
    """Estimators trained from executed queries (MSCN, LW-*, UAE-Q).

    ``fit`` only captures schema/featurization metadata; the actual
    model is trained by :meth:`fit_queries` from (query, cardinality)
    examples — the paper's 10^5 generated training queries.
    """

    def fit_queries(
        self,
        examples: list[tuple[Query, int]],
    ) -> "QueryDrivenEstimator":
        started = time.perf_counter()
        self._fit_queries(examples)
        self.training_seconds += time.perf_counter() - started
        return self

    @abc.abstractmethod
    def _fit_queries(self, examples: list[tuple[Query, int]]) -> None:
        """Train the regression model from labelled queries."""
