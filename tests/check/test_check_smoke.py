"""Tier-1 deterministic check smoke: a fixed-seed fuzz sweep with the
oracle and every metamorphic invariant, kept small enough to finish in
seconds (the CI front line of the differential-testing subsystem)."""

import time

from repro.check import CheckOptions, run_check
from repro.check.runner import CheckReport
from repro.cli import main


class TestFixedSeedSweep:
    def test_seed0_sweep_is_clean_and_fast(self):
        started = time.perf_counter()
        report = run_check(CheckOptions(seed=0, cases=15))
        elapsed = time.perf_counter() - started
        assert report.ok, report.summary()
        assert report.cases_run == 15
        assert report.queries_checked > 15
        assert report.sub_plans_checked > report.queries_checked
        # Oracle + per-case invariants ran on every case.
        assert report.invariants_run["oracle"] == 15
        assert report.invariants_run["cache"] == 15
        assert report.invariants_run["plans"] == 15
        assert report.invariants_run["serve"] == 15
        # The harness invariants are sampled, never silently absent.
        assert report.invariants_run.get("resume", 0) >= 1
        assert elapsed < 10, f"smoke took {elapsed:.1f}s (budget 10s)"

    def test_sweep_is_deterministic(self):
        first = run_check(CheckOptions(seed=0, cases=8))
        second = run_check(CheckOptions(seed=0, cases=8))
        assert first.queries_checked == second.queries_checked
        assert first.sub_plans_checked == second.sub_plans_checked
        assert first.ok and second.ok


class TestCli:
    def test_check_subcommand_exits_zero(self, capsys):
        assert main(["check", "--seed", "0", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "cases=5" in out
        assert "OK" in out

    def test_failure_reporting_prints_replay_command(self, tmp_path):
        # Simulate a failing sweep via the report object the CLI prints:
        # the replay command must point at the artifact.
        from repro.check.runner import CheckFailure
        from repro.check.invariants import Discrepancy

        report = CheckReport()
        report.failures.append(
            CheckFailure(
                case_name="check-0-1",
                discrepancy=Discrepancy("oracle", "q", "engine 2 != 3"),
                artifact=tmp_path / "a.json",
            )
        )
        text = report.summary()
        assert "repro.cli check --replay" in text
        assert not report.ok
