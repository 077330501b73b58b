"""Tests for Q-Error and P-Error."""

import warnings

import numpy as np
import pytest

from repro.core.metrics import p_error, percentiles, q_error, rank_correlation
from repro.core.truecards import TrueCardinalityService
from repro.engine.planner import Planner
from repro.engine.predicates import Predicate
from repro.engine.query import Query


class TestQError:
    def test_exact_is_one(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_clamps_below_one_row(self):
        assert q_error(0.0, 1.0) == 1.0
        assert q_error(1.0, 0.0) == 1.0

    def test_paper_o12_example(self):
        """Q-Error cannot distinguish small from large mistakes — the
        motivating flaw."""
        assert q_error(1, 10) == q_error(1e11, 1e12)

    def test_paper_o13_example(self):
        """...nor under- from over-estimation."""
        assert q_error(1e9, 1e10) == q_error(1e11, 1e10)


@pytest.fixture(scope="module")
def planning_setup(tiny_db):
    graph = tiny_db.join_graph
    query = Query(
        tables=frozenset({"users", "posts", "comments"}),
        join_edges=tuple(graph.edges),
        predicates=(Predicate("users", "Reputation", ">", 3),),
        name="perr",
    )
    service = TrueCardinalityService(tiny_db)
    true_cards = {
        s: float(c) for s, c in service.sub_plan_cards(query).items()
    }
    return Planner(tiny_db), query, true_cards


class TestPError:
    def test_true_cards_give_one(self, planning_setup):
        planner, query, true_cards = planning_setup
        assert p_error(planner, query, true_cards, true_cards) == pytest.approx(1.0)

    def test_never_below_one(self, planning_setup):
        planner, query, true_cards = planning_setup
        bad = {s: 1.0 for s in true_cards}
        assert p_error(planner, query, bad, true_cards) >= 1.0

    def test_distinguishes_under_from_overestimation(self, planning_setup):
        """The property Q-Error lacks (O13): a 10x under- and a 10x
        over-estimate may produce different plans, hence different
        P-Errors, even though their Q-Errors are identical."""
        planner, query, true_cards = planning_setup
        under = {s: v / 10 for s, v in true_cards.items()}
        over = {s: v * 10 for s, v in true_cards.items()}
        p_under = p_error(planner, query, under, true_cards)
        p_over = p_error(planner, query, over, true_cards)
        assert q_error(10, 100) == q_error(1000, 100)  # identical Q-Error
        assert p_under != pytest.approx(p_over) or (
            p_under == pytest.approx(1.0) and p_over == pytest.approx(1.0)
        )

    def test_catastrophic_underestimation_costs_more(self, planning_setup):
        planner, query, true_cards = planning_setup
        terrible = {
            s: (1.0 if len(s) > 1 else v) for s, v in true_cards.items()
        }
        assert p_error(planner, query, terrible, true_cards) > 1.0


class TestPErrorClamp:
    def test_cost_model_tie_artifact_clamped_to_one(self):
        """A floating-point tie can make the estimator-induced plan cost
        epsilon *less* than the true-cardinality plan; the ratio must
        clamp to 1.0, not report an impossible P-Error below 1."""
        from types import SimpleNamespace

        class TiePlanner:
            def __init__(self):
                self.calls = 0
                self.cost_model = SimpleNamespace(
                    plan_cost=lambda plan, cards: (
                        0.9999999 if plan == "estimated" else 1.0
                    )
                )

            def plan(self, query, cards):
                self.calls += 1
                return SimpleNamespace(
                    plan="estimated" if self.calls == 1 else "true"
                )

        assert p_error(TiePlanner(), None, {}, {}) == 1.0

    def test_genuine_regression_not_clamped(self):
        from types import SimpleNamespace

        class Regressed:
            def __init__(self):
                self.calls = 0
                self.cost_model = SimpleNamespace(
                    plan_cost=lambda plan, cards: (
                        5.0 if plan == "estimated" else 1.0
                    )
                )

            def plan(self, query, cards):
                self.calls += 1
                return SimpleNamespace(
                    plan="estimated" if self.calls == 1 else "true"
                )

        assert p_error(Regressed(), None, {}, {}) == pytest.approx(5.0)


class TestHelpers:
    def test_percentiles(self):
        values = list(range(1, 101))
        result = percentiles([float(v) for v in values])
        assert result[50] == pytest.approx(50.5)
        assert result[99] == pytest.approx(99.01)

    def test_percentiles_empty(self):
        result = percentiles([])
        assert np.isnan(result[50])

    def test_rank_correlation_perfect(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert rank_correlation(x, x) == pytest.approx(1.0)
        assert rank_correlation(x, x[::-1]) == pytest.approx(-1.0)

    def test_rank_correlation_degenerate(self):
        assert np.isnan(rank_correlation([1.0], [1.0]))
        assert np.isnan(rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0], [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            ([0.5, 0.5, 0.5, 0.5, 2.0], [1.0, 2.0, 3.0, 4.0, 4.0]),
            ([1e9, 1e-3, 7.0, 7.0], [4.0, 4.0, 4.0, 5.0]),
            ([3.0, 1.0, 2.0], [1.0, 3.0, 2.0]),
        ],
    )
    def test_rank_correlation_matches_scipy_on_ties(self, x, y):
        scipy_stats = pytest.importorskip("scipy.stats")
        expected = float(scipy_stats.spearmanr(x, y).statistic)
        assert rank_correlation(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_rank_correlation_matches_scipy_on_random_series(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(7)
        for n in (3, 4, 10, 60):
            for _ in range(20):
                x = rng.integers(0, 4, n).astype(float)
                y = rng.lognormal(size=n).round(1)
                if np.ptp(x) == 0 or np.ptp(y) == 0:
                    continue
                expected = float(scipy_stats.spearmanr(x, y).statistic)
                assert rank_correlation(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_rank_correlation_is_nan_where_scipy_is(self):
        """Constants and NaNs give NaN, as scipy does; fewer than three
        pairs give NaN too (scipy would call two pairs +-1)."""
        scipy_stats = pytest.importorskip("scipy.stats")
        for x, y in (
            ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 2.0, float("nan")], [1.0, 2.0, 3.0]),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns on constants
                assert np.isnan(float(scipy_stats.spearmanr(x, y).statistic))
            assert np.isnan(rank_correlation(x, y))
        assert np.isnan(rank_correlation([1.0, 2.0], [2.0, 1.0]))
        assert np.isnan(rank_correlation([1.0, 2.0, 3.0], [1.0, 2.0]))
