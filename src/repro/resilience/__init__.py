"""Fault tolerance for benchmark campaigns.

The paper's end-to-end evaluation is a long campaign of (estimator,
query) pairs; this package keeps such campaigns alive through
estimator exceptions, hung executions, dead fork workers and process
kills:

- :mod:`~repro.resilience.policy` — per-execution / per-query /
  per-campaign timeout policies,
- :mod:`~repro.resilience.fallback` — PostgreSQL-default estimates
  injected for failed sub-plans,
- :mod:`~repro.resilience.checkpoint` — streaming JSONL checkpoints
  and ``--resume`` support.

Nothing is retried: estimation, planning and execution are
deterministic, so a second attempt could only fail the same way.  A
failed call is isolated to its query instead, and a failed sub-plan
estimate is served by the fallback.  Failure-isolated sub-plan
estimation itself — the consumer of the deadline and the fallback — is
:func:`repro.core.injection.price_sub_plans`.

The checkpoint symbols are loaded lazily (PEP 562): that module imports
:mod:`repro.core.benchmark`, which itself uses this package's policies,
so an eager import here would close an import cycle.
"""

from repro.resilience.fallback import PostgresDefaultFallback
from repro.resilience.policy import Deadline, TimeoutPolicy

_LAZY = {
    "CampaignCheckpoint": ("repro.resilience.checkpoint", "CampaignCheckpoint"),
    "query_run_from_dict": ("repro.resilience.checkpoint", "query_run_from_dict"),
    "query_run_to_dict": ("repro.resilience.checkpoint", "query_run_to_dict"),
}

__all__ = [
    "CampaignCheckpoint",
    "Deadline",
    "PostgresDefaultFallback",
    "TimeoutPolicy",
    "query_run_from_dict",
    "query_run_to_dict",
]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
