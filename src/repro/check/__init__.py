"""Differential correctness oracle for the numpy mini-DBMS.

Every metric this reproduction reports — true cardinalities, Q-Error,
P-Error, end-to-end runtimes — assumes the engine executes SQL
correctly.  This package independently validates that assumption:

- :mod:`repro.check.oracle` loads any :class:`~repro.engine.database.
  Database` into an in-memory SQLite instance (stdlib ``sqlite3``) and
  re-executes every query and every enumerated sub-plan there,
  asserting row-count equality against the engine executor and against
  :class:`~repro.core.truecards.TrueCardinalityService`;
- :mod:`repro.check.fuzz` generates random schemas, data and
  multi-join queries from a seed (skew, NULLs, duplicate join keys,
  dangling keys, empty and single-row tables);
- :mod:`repro.check.invariants` runs metamorphic invariants per case:
  cold and warm labelling against
  :func:`~repro.check.oracle.planned_sub_plan_cards` (every subset
  planned and executed), serial vs parallel workers, checkpoint-resume
  vs fresh run, plan-choice independence (every plan the planner
  could pick must return the same count), and the planner against its
  scalar reference;
- :mod:`repro.check.reference_planner` is that reference: the
  one-candidate-at-a-time DP the production planner must match bit for
  bit;
- :mod:`repro.check.shrink` minimizes a failing case to a small repro;
- :mod:`repro.check.artifacts` serializes it as a JSON bundle (schema
  + rows + SQL) that replays via ``repro check --replay`` or pytest;
- :mod:`repro.check.runner` drives the whole sweep (the ``repro
  check`` CLI subcommand and the CI fuzz jobs).
"""

from repro.check.artifacts import load_artifact, write_artifact
from repro.check.fuzz import CheckCase, FuzzConfig, build_case
from repro.check.invariants import ALL_INVARIANTS, Discrepancy
from repro.check.oracle import SQLiteOracle, planned_sub_plan_cards
from repro.check.runner import (
    CheckOptions,
    CheckReport,
    check_workload,
    replay_artifact,
    replay_command,
    run_check,
)

__all__ = [
    "ALL_INVARIANTS",
    "CheckCase",
    "CheckOptions",
    "CheckReport",
    "Discrepancy",
    "FuzzConfig",
    "SQLiteOracle",
    "build_case",
    "check_workload",
    "load_artifact",
    "planned_sub_plan_cards",
    "replay_artifact",
    "replay_command",
    "run_check",
    "write_artifact",
]
