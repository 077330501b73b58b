"""Estimator interfaces.

Every CardEst method is an independent tool that plugs into the
benchmark through one call: ``estimate_batch(queries) -> list[float]``,
of which ``estimate(query)`` is a batch of one.  A batch agrees exactly
(``==``) with its queries priced one at a time, and a query's estimate
does not depend on what else shares its batch; MSCN and LW-NN are the
named exceptions (see :meth:`CardinalityEstimator.estimate_batch`).
Data-driven and traditional methods learn from the database (``fit``);
query-driven methods additionally require a labelled training workload
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
    """A typed inference failure.

    Raised (instead of a generic exception) when an estimate cannot
    succeed for this query — a model that never saw the queried column,
    corrupted persisted state, an unsupported join shape, a batch of the
    wrong length.  The benchmark's resilience layer treats any exception
    from :meth:`CardinalityEstimator.estimate` as a per-query failure
    rather than a campaign abort, and serves the failed sub-plan from
    the graceful-degradation fallback.
    """


class CardinalityEstimator(abc.ABC):
    """Base class for all CardEst methods."""

    #: short display name used in the paper's tables.
    name: str = "base"

    def __new__(cls, *args, **kwargs):
        # ``estimate`` and ``estimate_batch`` are defined by each other;
        # a class that overrides neither would recurse on first use.
        if (
            cls.estimate is CardinalityEstimator.estimate
            and cls.estimate_batch is CardinalityEstimator.estimate_batch
        ):
            raise TypeError(
                f"Can't instantiate {cls.__name__}: it overrides neither "
                "estimate nor estimate_batch"
            )
        return super().__new__(cls)

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

    def estimate(self, query: Query) -> float:
        """Estimated cardinality of ``query`` (>= 0): a batch of one."""
        return self.estimate_batch([query])[0]

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Estimated cardinalities for ``queries``, in order.

        The batch contract, held at ``==`` by the ``batch`` invariant of
        ``repro check`` and by tests/estimators/test_batch_equivalence.py:

        - ``estimate_batch(queries) == [estimate(q) for q in queries]``;
        - composition: ``estimate_batch(a + b)[len(a):] ==
          estimate_batch(b)``, so the serving micro-batcher may price a
          query beside other clients' queries;
        - it raises if *any* individual estimate would raise — callers
          that need per-query failure isolation fall back to the
          per-query loop.

        MSCN and LW-NN are the two exceptions: their dense layers are
        one matmul per batch, and BLAS picks its kernel by shape, so a
        row of a stacked product may differ from the same row priced
        alone in the last few ulps (<= 5.3e-15 relative measured).

        Every subclass overrides this method or :meth:`estimate`.  The
        default implementation is the per-query loop, for the families
        with only a per-query path (TrueCard, the samplers, NeuroCard,
        UAE, UAE-Q, the fault-injection wrappers).  The numpy families
        (LW-NN, MSCN, LW-XGB, and the memoised traditional methods)
        price a whole sub-plan space in one pass; the
        per-query-evaluation families (the fan-out PGMs BayesCard /
        DeepDB / FLAT, and PessEst) answer each distinct per-table model
        question or subtree bound once per call and recombine per
        sub-plan.  This is the benchmark's inference hot
        path, since the end-to-end protocol prices every connected
        sub-plan of every query.
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
