"""Shared experiment context: datasets, workloads, estimators, runs.

The context lazily builds every asset an experiment needs and caches
the expensive parts on disk:

- labelled workloads, each through :mod:`repro.workloads.cache`'s one
  builder, as the annotated SQL ``repro export-workload`` writes,
- full estimator evaluation passes, one
  :class:`~repro.resilience.checkpoint.CampaignCheckpoint` file each,

so Tables 3-7 and Figure 3 all read from one evaluation campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.benchmark import EndToEndBenchmark, EstimatorRun
from repro.datasets.imdb_light import ImdbConfig, build_imdb_light
from repro.datasets.stats_db import StatsConfig, build_stats
from repro.engine.database import Database
from repro.estimators.base import QueryDrivenEstimator
from repro.estimators.datad import (
    BayesCardEstimator,
    DeepDBEstimator,
    FlatEstimator,
    NeuroCardEstimator,
    UAEEstimator,
)
from repro.estimators.multihist import MultiHistEstimator
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.queryd import (
    LWNNEstimator,
    LWXGBEstimator,
    MSCNEstimator,
    UAEQEstimator,
)
from repro.estimators.truecard import TrueCardEstimator
from repro.estimators.unisample import UniSampleEstimator
from repro.estimators.wjsample import WanderJoinEstimator
from repro.experiments.config import ExperimentConfig
from repro.obs import manifest as obs_manifest
from repro.resilience import CampaignCheckpoint, TimeoutPolicy
from repro.workloads import cache as workload_cache
from repro.workloads.generator import Workload
from repro.workloads.job_light import build_job_light
from repro.workloads.stats_ceb import build_stats_ceb
from repro.workloads.training import build_training_workload, flatten_to_examples

#: Estimator order used by every report (mirrors Table 3's grouping).
ESTIMATOR_ORDER = (
    "PostgreSQL",
    "TrueCard",
    "MultiHist",
    "UniSample",
    "WJSample",
    "PessEst",
    "MSCN",
    "LW-XGB",
    "LW-NN",
    "UAE-Q",
    "NeuroCard",
    "BayesCard",
    "DeepDB",
    "FLAT",
    "UAE",
)

CATEGORY_OF = {
    "PostgreSQL": "Baseline",
    "TrueCard": "Baseline",
    "MultiHist": "Traditional",
    "UniSample": "Traditional",
    "WJSample": "Traditional",
    "PessEst": "Traditional",
    "MSCN": "Query-driven",
    "LW-XGB": "Query-driven",
    "LW-NN": "Query-driven",
    "UAE-Q": "Query-driven",
    "NeuroCard": "Data-driven",
    "BayesCard": "Data-driven",
    "DeepDB": "Data-driven",
    "FLAT": "Data-driven",
    "UAE": "Query + Data",
}


@dataclass
class EstimatorRecord:
    """One estimator's full evaluation pass over one workload."""

    name: str
    workload: str
    training_seconds: float
    model_size_bytes: int
    run: EstimatorRun


class ExperimentContext:
    """Lazily builds and caches everything the experiments need."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig.quick()
        self._databases: dict[str, Database] = {}
        self._workloads: dict[str, Workload] = {}
        self._training: dict[str, list] = {}
        self._benchmarks: dict[str, EndToEndBenchmark] = {}
        self._records: dict[tuple[str, str], EstimatorRecord] = {}

    # -- assets -----------------------------------------------------------------

    def database(self, name: str) -> Database:
        if name not in self._databases:
            if name == "stats":
                self._databases[name] = build_stats(
                    StatsConfig().scaled(self.config.scale)
                )
            elif name == "imdb":
                base = ImdbConfig()
                self._databases[name] = build_imdb_light(
                    ImdbConfig(
                        seed=base.seed,
                        title=int(base.title * self.config.scale),
                        cast_info=int(base.cast_info * self.config.scale),
                        movie_companies=int(base.movie_companies * self.config.scale),
                        movie_info=int(base.movie_info * self.config.scale),
                        movie_info_idx=int(base.movie_info_idx * self.config.scale),
                        movie_keyword=int(base.movie_keyword * self.config.scale),
                    )
                )
            else:
                raise KeyError(name)
        return self._databases[name]

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            if name == "stats-ceb":
                self._workloads[name] = build_stats_ceb(
                    self.database("stats"),
                    num_queries=self.config.stats_queries,
                    num_templates=self.config.stats_templates,
                    max_cardinality=self.config.max_cardinality,
                    cache_dir=self.config.workload_cache_dir,
                )
            elif name == "job-light":
                self._workloads[name] = build_job_light(
                    self.database("imdb"),
                    num_queries=self.config.imdb_queries,
                    num_templates=self.config.imdb_templates,
                    max_cardinality=self.config.max_cardinality,
                    cache_dir=self.config.workload_cache_dir,
                )
            else:
                raise KeyError(name)
        return self._workloads[name]

    def database_for_workload(self, workload_name: str) -> Database:
        return self.database("stats" if workload_name == "stats-ceb" else "imdb")

    def training_examples(self, database_name: str) -> list:
        if database_name not in self._training:
            database = self.database(database_name)
            workload = build_training_workload(
                database,
                num_queries=self.config.training_queries,
                max_tables=8 if database_name == "stats" else 5,
                max_cardinality=self.config.max_cardinality,
                cache_dir=self.config.workload_cache_dir,
            )
            self._training[database_name] = flatten_to_examples(workload)
        return self._training[database_name]

    def benchmark(self, workload_name: str) -> EndToEndBenchmark:
        if workload_name not in self._benchmarks:
            self._benchmarks[workload_name] = EndToEndBenchmark(
                self.database_for_workload(workload_name),
                self.workload(workload_name),
                workers=self.config.workers,
                timeout_policy=self.timeout_policy(),
            )
        return self._benchmarks[workload_name]

    # -- resilience -----------------------------------------------------------------

    def timeout_policy(self) -> TimeoutPolicy | None:
        config = self.config
        if config.query_timeout_seconds is None and config.campaign_timeout_seconds is None:
            return None
        return TimeoutPolicy(
            per_query_seconds=config.query_timeout_seconds,
            campaign_seconds=config.campaign_timeout_seconds,
        )

    # -- estimators -----------------------------------------------------------------

    def make_estimator(self, name: str):
        config = self.config
        factories = {
            "TrueCard": TrueCardEstimator,
            "PostgreSQL": PostgresEstimator,
            "MultiHist": MultiHistEstimator,
            "UniSample": UniSampleEstimator,
            "WJSample": WanderJoinEstimator,
            "PessEst": PessimisticEstimator,
            "MSCN": lambda: MSCNEstimator(epochs=config.query_model_epochs),
            "LW-XGB": LWXGBEstimator,
            "LW-NN": lambda: LWNNEstimator(epochs=config.query_model_epochs),
            "UAE-Q": lambda: UAEQEstimator(epochs=config.query_model_epochs),
            "NeuroCard": lambda: NeuroCardEstimator(
                num_samples=config.neurocard_samples,
                epochs=config.neurocard_epochs,
            ),
            "BayesCard": BayesCardEstimator,
            "DeepDB": DeepDBEstimator,
            "FLAT": FlatEstimator,
            "UAE": lambda: UAEEstimator(
                neurocard_kwargs={
                    "num_samples": config.neurocard_samples,
                    "epochs": config.neurocard_epochs,
                },
                uae_q_kwargs={"epochs": config.query_model_epochs},
            ),
        }
        return factories[name]()

    def fitted_estimator(self, name: str, workload_name: str):
        database = self.database_for_workload(workload_name)
        estimator = self.make_estimator(name)
        estimator.fit(database)
        if isinstance(estimator, QueryDrivenEstimator):
            database_name = "stats" if workload_name == "stats-ceb" else "imdb"
            estimator.fit_queries(self.training_examples(database_name))
        return estimator

    # -- evaluation passes ------------------------------------------------------------

    def evaluate(self, name: str, workload_name: str) -> EstimatorRecord:
        """Fit + benchmark one estimator, cached on disk as a checkpoint.

        A run-cache file that records every workload query and the fit
        is served without fitting.  A partial one (a killed pass, or
        queries a campaign deadline skipped) is resumed: the estimator
        is fitted and only the missing queries run.
        """
        key = (name, workload_name)
        if key in self._records:
            return self._records[key]
        workload = self.workload(workload_name)
        with CampaignCheckpoint.resume(self._record_path(name, workload_name)) as cache:
            fit = cache.fit(name)
            runs = [cache.get(name, labeled.query.name) for labeled in workload.queries]
            if fit is None or None in runs:
                estimator = self.fitted_estimator(name, workload_name)
                run = self.benchmark(workload_name).run(estimator, checkpoint=cache)
                fit = (estimator.training_seconds, estimator.model_size_bytes())
                cache.append_fit(name, *fit)
            else:
                run = EstimatorRun(name, workload.name, runs)
        record = self._records[key] = EstimatorRecord(name, workload_name, *fit, run)
        obs_manifest.collect_run(f"{name}/{workload_name}", record.run)
        return record

    def evaluate_all(self, workload_name: str, names=ESTIMATOR_ORDER):
        return {name: self.evaluate(name, workload_name) for name in names}

    def _record_path(self, name: str, workload_name: str) -> Path:
        database = self.database_for_workload(workload_name)
        key = workload_cache.fingerprint(
            {
                "estimator": name,
                "workload": workload_name,
                "mode": self.config.mode,
                "scale": self.config.scale,
                "queries": len(self.workload(workload_name)),
                "checksum": workload_cache.database_checksum(database),
            }
        )
        return self.config.cache_dir / "runs" / f"{name}-{workload_name}-{key}.jsonl"
