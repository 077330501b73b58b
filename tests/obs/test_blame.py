"""Misestimation attribution: blame engine, roll-ups, artifacts."""

import math
import types

import pytest

from repro.core.injection import estimate_sub_plans
from repro.engine.planner import Planner
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.experiments.blame import blame_workload, plan_subsets
from repro.obs.blame import (
    load_blame_json,
    render_blame_report,
    report_to_dict,
    write_blame_json,
)


@pytest.fixture(scope="module")
def subset(stats_workload):
    multi = [q for q in stats_workload.queries if q.query.num_tables >= 2]
    assert len(multi) >= 4
    return multi[:4]


@pytest.fixture(scope="module")
def sub_workload(subset):
    return types.SimpleNamespace(name="stats-ceb-subset", queries=subset)


@pytest.fixture(scope="module")
def postgres(stats_db):
    return PostgresEstimator().fit(stats_db)


@pytest.fixture(scope="module")
def report(stats_db, sub_workload, postgres):
    return blame_workload(stats_db, sub_workload, postgres)


class TestBlameWorkload:
    def test_one_blame_per_query(self, report, subset):
        assert len(report.queries) == len(subset)
        assert report.estimator == postgres_name()
        assert report.workload == "stats-ceb-subset"
        for blame in report.queries:
            assert blame.p_error >= 1.0
            assert blame.attributions, blame.query_name
            # Ranking invariant: worst ratio first.
            ratios = [a.ratio for a in blame.attributions]
            assert ratios == sorted(ratios, reverse=True)

    def test_top_attribution_is_largest_est_vs_true_ratio_on_slowest_query(
        self, stats_db, report, subset, postgres
    ):
        """ISSUE acceptance: the top blame entry on the slowest query
        names the sub-plan with the largest est/actual ratio, verified
        against an independent re-computation from the raw plans."""
        slowest = report.slowest_query()
        assert slowest is not None
        labeled = next(q for q in subset if q.query.name == slowest.query_name)

        estimates = estimate_sub_plans(postgres, labeled.query)
        true_cards = {
            s: float(c) for s, c in labeled.sub_plan_true_cards.items()
        }
        planner = Planner(stats_db)
        est_plan = planner.plan(labeled.query, estimates).plan
        true_plan = planner.plan(labeled.query, true_cards).plan

        expected = {}
        for node_set in plan_subsets(est_plan).keys() | plan_subsets(true_plan).keys():
            est = max(estimates.get(node_set, float("nan")), 1.0)
            true = max(true_cards.get(node_set, float("nan")), 1.0)
            if math.isfinite(est) and math.isfinite(true):
                expected[node_set] = max(est / true, true / est)
        worst_ratio = max(expected.values())

        top = slowest.top
        assert top is not None
        assert top.ratio == pytest.approx(worst_ratio)
        assert frozenset(top.tables) in {
            s for s, r in expected.items() if r == pytest.approx(worst_ratio)
        }

    def test_truecard_estimator_blames_nothing(self, stats_db, sub_workload):
        """Under exact cardinalities every attribution is exact and
        P-Error is 1 — the blame engine's null hypothesis."""
        report = blame_workload(
            stats_db, sub_workload, TrueCardEstimator().fit(stats_db), analyze=False
        )
        for blame in report.queries:
            assert blame.p_error == pytest.approx(1.0)
            assert not blame.plans_differ
            assert all(a.direction == "exact" for a in blame.attributions)

    def test_limit_bounds_work(self, stats_db, sub_workload, postgres):
        limited = blame_workload(
            stats_db, sub_workload, postgres, analyze=False, limit=2
        )
        assert len(limited.queries) == 2

    def test_rollups_cover_offenders(self, report):
        rollup = report.rollup_by_subplan()
        offenders = [b.top.tables for b in report.queries if b.top.ratio > 1.0]
        assert sum(e["times_top_offender"] for e in rollup) == len(offenders)
        if rollup:
            counts = [e["times_top_offender"] for e in rollup]
            assert counts == sorted(counts, reverse=True)
        templates = report.rollup_by_template()
        assert sum(e["queries"] for e in templates) == len(report.queries)

    def test_render_mentions_worst_query_and_offender(self, report):
        text = render_blame_report(report)
        worst = report.worst_queries(1)[0]
        assert worst.query_name in text
        assert "P-Error" in text
        if worst.top is not None and worst.top.ratio > 1.0:
            assert worst.top.label() in text


class TestBlameArtifacts:
    def test_json_round_trip(self, tmp_path, report):
        path = write_blame_json(tmp_path / "blame.json", report)
        payload = load_blame_json(path)
        assert payload == report_to_dict(report)
        assert payload["schema_version"] == 1
        top = payload["queries"][0]["attributions"][0]
        assert top["tables"] == list(report.queries[0].top.tables)
        assert top["ratio"] == pytest.approx(report.queries[0].top.ratio)

    def test_incompatible_schema_rejected(self, tmp_path, report):
        import json

        path = write_blame_json(tmp_path / "blame.json", report)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_blame_json(path)


def postgres_name() -> str:
    return PostgresEstimator().name
