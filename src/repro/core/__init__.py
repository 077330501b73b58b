"""The paper's contribution: the end-to-end CardEst evaluation platform.

- :mod:`repro.core.injection` — sub-plan query space derivation and
  cardinality injection (the ``calc_joinrel_size_estimate`` overwrite).
- :mod:`repro.core.truecards` — exact sub-plan cardinalities (TrueCard).
- :mod:`repro.core.metrics` — Q-Error and the proposed P-Error.
- :mod:`repro.core.benchmark` — end-to-end benchmark driver.
- :mod:`repro.core.workload_split` — OLTP/OLAP split (Table 5).
- :mod:`repro.core.update_bench` — dynamic-data experiment (Table 6).
- :mod:`repro.core.report` — plain-text table rendering.
"""

from repro.core.benchmark import (
    EndToEndBenchmark,
    EstimatorRun,
    QueryRun,
    abort_penalties,
)
from repro.core.injection import estimate_sub_plans, sub_plan_queries, sub_plan_sets
from repro.core.metrics import p_error, percentiles, q_error, rank_correlation
from repro.core.truecards import TrueCardinalityService
from repro.core.update_bench import UpdateResult, run_update_experiment
from repro.core.workload_split import SplitTimes, split_query_names, split_times

__all__ = [
    "EndToEndBenchmark",
    "EstimatorRun",
    "QueryRun",
    "SplitTimes",
    "TrueCardinalityService",
    "UpdateResult",
    "abort_penalties",
    "estimate_sub_plans",
    "p_error",
    "percentiles",
    "q_error",
    "rank_correlation",
    "run_update_experiment",
    "split_query_names",
    "split_times",
    "sub_plan_queries",
    "sub_plan_sets",
]
