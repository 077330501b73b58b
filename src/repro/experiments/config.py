"""Experiment configuration presets.

``full`` reproduces every table at the repository's default benchmark
scale; ``quick`` shrinks the datasets, workloads and model training so
a complete pass stays in CI-friendly time.  Both are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    mode: str = "quick"
    #: dataset scale factor applied to the default table sizes.
    scale: float = 0.25
    #: evaluation workload sizes.
    stats_queries: int = 60
    stats_templates: int = 30
    imdb_queries: int = 40
    imdb_templates: int = 15
    #: training workload for the query-driven methods.
    training_queries: int = 120
    #: per-query row cap used when labelling.
    max_cardinality: int = 1_500_000
    #: estimator heaviness.
    neurocard_samples: int = 4_000
    neurocard_epochs: int = 4
    query_model_epochs: int = 25
    #: worker processes for benchmark runs (1 = serial; >1 forks).
    workers: int = 1
    #: wall-clock budget per (estimator, query) pair, seconds
    #: (None = only the per-execution timeout applies).
    query_timeout_seconds: float | None = None
    #: wall-clock budget per campaign (one estimator over one
    #: workload), seconds; queries that cannot start in time are
    #: recorded as failed, never silently dropped.
    campaign_timeout_seconds: float | None = None
    #: where evaluation-run caches (resumable campaign checkpoints) live.
    cache_dir: Path = field(default=Path(".cache") / "experiments")
    #: where labelled workloads are cached, one ``export-workload`` SQL
    #: file each (None = the package default, shared with direct
    #: ``build_stats_ceb``/``build_job_light`` calls).
    workload_cache_dir: Path | None = None

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        return cls()

    @classmethod
    def full(cls) -> "ExperimentConfig":
        return cls(
            mode="full",
            scale=1.0,
            stats_queries=146,
            stats_templates=70,
            imdb_queries=70,
            imdb_templates=23,
            training_queries=300,
            max_cardinality=6_000_000,
            neurocard_samples=8_000,
            neurocard_epochs=6,
            query_model_epochs=40,
        )

    @classmethod
    def named(cls, mode: str) -> "ExperimentConfig":
        if mode == "full":
            return cls.full()
        if mode == "quick":
            return cls.quick()
        raise ValueError(f"unknown mode {mode!r} (expected 'quick' or 'full')")
