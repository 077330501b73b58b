"""Plugging a custom CardEst method into the evaluation platform.

The benchmark treats every estimator as an independent tool behind a
single interface (``fit`` / ``estimate``, or ``estimate_batch`` for a
method that prices many queries at once; each is derived from the
other), exactly like the paper's injection into PostgreSQL.  This
example implements a deliberately
naive estimator — per-table filtered counts combined with a fixed
join-selectivity constant — and shows how the platform exposes its
weaknesses via Q-Error, P-Error and end-to-end time.

Run with::

    python examples/custom_estimator.py
"""

import numpy as np

from repro.core import EndToEndBenchmark, abort_penalties, percentiles
from repro.core.report import format_seconds, render_table
from repro.datasets.stats_db import StatsConfig, build_stats
from repro.engine.database import Database
from repro.engine.predicates import conjunction_mask
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.workloads import build_stats_ceb


class MagicConstantEstimator(CardinalityEstimator):
    """Exact single-table counts + a magic constant per join.

    Caricature of what the paper criticises in commercial ``LIKE``
    estimators: wherever real statistics are missing, multiply by a
    magic number and hope.
    """

    name = "MagicConstant"

    def __init__(self, join_selectivity: float = 1e-4):
        super().__init__()
        self._join_selectivity = join_selectivity
        self._database: Database | None = None

    def _fit(self, database: Database) -> None:
        self._database = database

    def estimate(self, query: Query) -> float:
        assert self._database is not None
        estimate = 1.0
        for table in query.tables:
            data = self._database.tables[table]
            mask = conjunction_mask(data, list(query.predicates_on(table)))
            estimate *= max(float(mask.sum()), 1.0)
        estimate *= self._join_selectivity ** len(query.join_edges)
        return estimate


def main() -> None:
    database = build_stats(StatsConfig().scaled(0.1))
    workload = build_stats_ceb(
        database, num_queries=25, num_templates=12, max_cardinality=500_000
    )
    benchmark = EndToEndBenchmark(database, workload)

    rows = []
    penalties = None
    for estimator in (
        TrueCardEstimator(),
        PostgresEstimator(),
        MagicConstantEstimator(),
    ):
        estimator.fit(database)
        run = benchmark.run(estimator)
        if penalties is None:
            penalties = abort_penalties(run)
        q = percentiles(run.all_q_errors())
        p = percentiles(run.all_p_errors())
        rows.append(
            [
                estimator.name,
                format_seconds(
                    run.total_end_to_end_seconds(penalties), run.aborted_count > 0
                ),
                f"{q[90]:.1f}",
                f"{p[90]:.2f}",
                str(run.aborted_count),
            ]
        )
    print(
        render_table(
            ["Method", "End-to-end", "Q-Error 90%", "P-Error 90%", "Aborts"],
            rows,
            title="A custom estimator under the benchmark",
        )
    )
    print(
        "\nNote how the magic constant can look acceptable on Q-Error medians\n"
        "yet produce plans whose P-Error (and runtime) betray it — the same\n"
        "disconnect the paper demonstrates for Q-Error in Section 7."
    )


if __name__ == "__main__":
    main()
