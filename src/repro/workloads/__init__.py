"""Benchmark query workloads.

- :mod:`repro.workloads.templates` — join-template enumeration.
- :mod:`repro.workloads.generator` — predicate sampling and labelling.
- :mod:`repro.workloads.cache` — the one cached builder of labelled workloads.
- :mod:`repro.workloads.sql_io` — annotated SQL, the workloads' one file format.
- :mod:`repro.workloads.stats_ceb` — the STATS-CEB analog workload.
- :mod:`repro.workloads.job_light` — the JOB-LIGHT analog workload.
- :mod:`repro.workloads.describe` — the Table-2 statistics.
"""

from repro.workloads.generator import Workload
from repro.workloads.job_light import build_job_light
from repro.workloads.stats_ceb import build_stats_ceb
from repro.workloads.templates import JoinTemplate, enumerate_templates

__all__ = [
    "JoinTemplate",
    "Workload",
    "build_job_light",
    "build_stats_ceb",
    "enumerate_templates",
]
