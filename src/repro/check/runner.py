"""The differential-check driver behind ``repro check``.

Three entry points:

- :func:`run_check` — the fuzz sweep: generate ``cases`` seeded cases,
  compare each against the SQLite oracle, run the metamorphic
  invariants, shrink failures and write replay artifacts;
- :func:`replay_artifact` — re-run every check against a previously
  written artifact (regression corpus, CI-uploaded failures);
- :func:`check_workload` — validate a real benchmark workload (e.g.
  STATS-CEB) against the oracle: sub-plan counts, stored labels and the
  SQL parse/render round-trip.

Failures never raise mid-sweep: everything lands in the returned
:class:`CheckReport` so a 200-case run reports *all* discrepancies and
the CLI can print every replay command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.artifacts import load_artifact, write_artifact
from repro.check.fuzz import CheckCase, FuzzConfig, build_case
from repro.check.invariants import (
    ALL_INVARIANTS,
    CHECKERS,
    Discrepancy,
    check_oracle,
    parallel_applicable,
)
from repro.check.oracle import SQLiteOracle
from repro.check.shrink import shrink
from repro.core.injection import sub_plan_sets
from repro.core.truecards import TrueCardinalityService
from repro.engine.database import Database
from repro.engine.sql import parse_query, query_to_sql
from repro.engine.subsets import clear_space_cache
from repro.workloads.generator import Workload


@dataclass(frozen=True)
class CheckOptions:
    """Configuration of one ``repro check`` fuzz sweep."""

    seed: int = 0
    cases: int = 50
    oracle: bool = True
    invariants: tuple[str, ...] = ALL_INVARIANTS
    #: Where failing-case artifacts are written (``None`` = don't write).
    artifact_dir: str | Path | None = None
    config: FuzzConfig = field(default_factory=FuzzConfig)
    shrink_failures: bool = True
    #: The benchmark-harness invariants (``parallel``/``resume``) fork
    #: worker pools and re-run campaigns, so they sample every Nth case
    #: instead of every case.  The sampling is deterministic in the
    #: case index and reported in the CheckReport — never a silent skip.
    harness_every: int = 5


@dataclass
class CheckFailure:
    """One failing case: its discrepancy and the replay artifact."""

    case_name: str
    discrepancy: Discrepancy
    artifact: Path | None = None

    def describe(self) -> str:
        lines = [f"{self.case_name}: {self.discrepancy}"]
        if self.artifact is not None:
            lines.append(f"  replay: {replay_command(self.artifact)}")
        return "\n".join(lines)


@dataclass
class CheckReport:
    """Outcome of a fuzz sweep / replay / workload check."""

    cases_run: int = 0
    queries_checked: int = 0
    sub_plans_checked: int = 0
    invariants_run: dict[str, int] = field(default_factory=dict)
    #: Structural skips, by reason (e.g. fork unavailable) — reported,
    #: not silent.
    skipped: dict[str, int] = field(default_factory=dict)
    failures: list[CheckFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"cases={self.cases_run} queries={self.queries_checked} "
            f"sub_plans={self.sub_plans_checked} "
            f"failures={len(self.failures)} "
            f"elapsed={self.elapsed_seconds:.1f}s"
        ]
        if self.invariants_run:
            counted = " ".join(
                f"{name}={count}"
                for name, count in sorted(self.invariants_run.items())
            )
            lines.append(f"invariants: {counted}")
        for reason, count in sorted(self.skipped.items()):
            lines.append(f"skipped ({reason}): {count} cases")
        for failure in self.failures:
            lines.append(failure.describe())
        return "\n".join(lines)


def replay_command(artifact: str | Path) -> str:
    """The shell command that replays one failing-case artifact."""
    return f"PYTHONPATH=src python -m repro.cli check --replay {artifact}"


#: Invariants that spin up the full benchmark harness (sampled).
_HARNESS_INVARIANTS = ("parallel", "resume")


def _checks_for(
    options: CheckOptions, index: int
) -> list[tuple[str, object]]:
    checks: list[tuple[str, object]] = []
    if options.oracle:
        checks.append(("oracle", check_oracle))
    for name in options.invariants:
        if name in _HARNESS_INVARIANTS and index % options.harness_every:
            continue
        checks.append((name, CHECKERS[name]))
    return checks


def check_case(
    case: CheckCase, options: CheckOptions, report: CheckReport
) -> list[Discrepancy]:
    """Run the configured checks over one case, updating ``report``."""
    discrepancies: list[Discrepancy] = []
    for name, checker in _checks_for(options, case.index):
        if name == "parallel" and not parallel_applicable(case):
            report.skipped["parallel: fork unavailable or <2 queries"] = (
                report.skipped.get(
                    "parallel: fork unavailable or <2 queries", 0
                )
                + 1
            )
            continue
        report.invariants_run[name] = report.invariants_run.get(name, 0) + 1
        discrepancies.extend(checker(case))
    return discrepancies


def _record_failure(
    case: CheckCase,
    discrepancy: Discrepancy,
    options: CheckOptions,
    report: CheckReport,
) -> None:
    artifact: Path | None = None
    final_case, final_discrepancy = case, discrepancy
    if options.shrink_failures:
        checker = ({"oracle": check_oracle} | CHECKERS)[discrepancy.invariant]

        def fails(candidate: CheckCase) -> Discrepancy | None:
            found = checker(candidate)
            return found[0] if found else None

        shrunk, shrunk_discrepancy = shrink(case, fails)
        if shrunk_discrepancy is not None:
            final_case, final_discrepancy = shrunk, shrunk_discrepancy
    if options.artifact_dir is not None:
        artifact = write_artifact(
            final_case,
            Path(options.artifact_dir)
            / f"{case.name}-{final_discrepancy.invariant}.json",
            failure=final_discrepancy,
        )
    report.failures.append(
        CheckFailure(
            case_name=case.name,
            discrepancy=final_discrepancy,
            artifact=artifact,
        )
    )


def run_check(options: CheckOptions) -> CheckReport:
    """Run the full fuzz sweep described by ``options``."""
    report = CheckReport()
    started = time.perf_counter()
    for index in range(options.cases):
        # Every fuzz case is a fresh join-graph shape; without this the
        # per-shape space memo (and the numpy level templates each space
        # pins) would fill with shapes no later case revisits.
        clear_space_cache()
        case = build_case(options.seed, index, options.config)
        report.cases_run += 1
        report.queries_checked += len(case.queries)
        report.sub_plans_checked += sum(
            len(sub_plan_sets(query)) for query in case.queries
        )
        # One recorded failure (and one shrink pass) per invariant per
        # case: a single root cause often disagrees on many sub-plans.
        reported: set[str] = set()
        for discrepancy in check_case(case, options, report):
            if discrepancy.invariant in reported:
                continue
            reported.add(discrepancy.invariant)
            _record_failure(case, discrepancy, options, report)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def replay_artifact(
    path: str | Path, options: CheckOptions | None = None
) -> CheckReport:
    """Re-run every configured check against one saved artifact.

    Harness invariants are *not* sampled on replay — an artifact is a
    known repro, so everything runs.
    """
    options = options or CheckOptions()
    case, _recorded = load_artifact(path)
    report = CheckReport()
    started = time.perf_counter()
    report.cases_run = 1
    report.queries_checked = len(case.queries)
    report.sub_plans_checked = sum(
        len(sub_plan_sets(query)) for query in case.queries
    )
    checks: list[tuple[str, object]] = []
    if options.oracle:
        checks.append(("oracle", check_oracle))
    checks.extend(
        (name, CHECKERS[name]) for name in options.invariants
    )
    for name, checker in checks:
        if name == "parallel" and not parallel_applicable(case):
            report.skipped["parallel: fork unavailable or <2 queries"] = 1
            continue
        report.invariants_run[name] = report.invariants_run.get(name, 0) + 1
        for discrepancy in checker(case):
            report.failures.append(
                CheckFailure(
                    case_name=case.name,
                    discrepancy=discrepancy,
                    artifact=Path(path),
                )
            )
    report.elapsed_seconds = time.perf_counter() - started
    return report


def check_workload(
    database: Database,
    workload: Workload,
    limit: int | None = None,
) -> CheckReport:
    """Validate a real benchmark workload against the SQLite oracle.

    For every labelled query (up to ``limit``): the oracle's sub-plan
    counts must match both the workload's stored labels and a freshly
    computed :class:`TrueCardinalityService` map, and the query must
    survive the SQL round-trip (render → parse → identical canonical
    key).
    """
    report = CheckReport()
    started = time.perf_counter()
    service = TrueCardinalityService(database)
    queries = workload.queries[: limit if limit is not None else None]
    with SQLiteOracle(database) as oracle:
        for labeled in queries:
            query = labeled.query
            report.queries_checked += 1

            rendered = query_to_sql(query)
            reparsed = parse_query(
                rendered, join_graph=database.join_graph, name=query.name
            )
            if reparsed.key() != query.key():
                report.failures.append(
                    CheckFailure(
                        case_name=query.name,
                        discrepancy=Discrepancy(
                            "roundtrip",
                            query.name,
                            "SQL render/parse round-trip changed the "
                            f"query: {rendered}",
                        ),
                    )
                )

            engine = service.sub_plan_cards(query)
            reference = oracle.sub_plan_counts(query)
            report.sub_plans_checked += len(reference)
            for subset in sorted(reference, key=sorted):
                expected = reference[subset]
                stored = labeled.sub_plan_true_cards.get(subset)
                if engine.get(subset) != expected:
                    report.failures.append(
                        CheckFailure(
                            case_name=query.name,
                            discrepancy=Discrepancy(
                                "oracle",
                                query.name,
                                f"sub-plan {sorted(subset)}: engine "
                                f"{engine.get(subset)} != SQLite {expected}",
                            ),
                        )
                    )
                if stored is not None and stored != expected:
                    report.failures.append(
                        CheckFailure(
                            case_name=query.name,
                            discrepancy=Discrepancy(
                                "labels",
                                query.name,
                                f"sub-plan {sorted(subset)}: stored label "
                                f"{stored} != SQLite {expected}",
                            ),
                        )
                    )
    report.cases_run = len(queries)
    report.elapsed_seconds = time.perf_counter() - started
    return report
