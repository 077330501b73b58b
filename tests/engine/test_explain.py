"""Tests for EXPLAIN / EXPLAIN ANALYZE rendering."""

import pytest

from repro.core.truecards import TrueCardinalityService
from repro.engine.explain import explain
from repro.engine.predicates import Predicate
from repro.engine.query import Query


@pytest.fixture(scope="module")
def setup(tiny_db):
    query = Query(
        tables=frozenset({"users", "posts", "comments"}),
        join_edges=tuple(tiny_db.join_graph.edges),
        predicates=(Predicate("users", "Reputation", ">", 3),),
        name="explain-test",
    )
    cards = {
        s: float(c)
        for s, c in TrueCardinalityService(tiny_db).sub_plan_cards(query).items()
    }
    return query, cards


class TestExplain:
    def test_plain_explain(self, tiny_db, setup):
        query, cards = setup
        result = explain(tiny_db, query, cards, analyze=False)
        assert "Join" in result.text
        assert "Seq Scan" in result.text
        assert "Filter:" in result.text
        assert result.actual_rows is None
        assert result.estimated_cost > 0

    def test_analyze_reports_actuals(self, tiny_db, setup):
        query, cards = setup
        result = explain(tiny_db, query, cards, analyze=True)
        assert result.actual_rows == cards[query.tables]
        assert "actual=" in result.text
        assert "Execution time" in result.text

    def test_analyze_reports_per_node_timing(self, tiny_db, setup):
        query, cards = setup
        result = explain(tiny_db, query, cards, analyze=True)
        assert "time=" in result.text
        assert result.node_stats
        root = result.node_stats[query.tables]
        assert root.rows_out == result.actual_rows
        assert root.elapsed_seconds > 0
        # Every rendered node line shows estimate and actual side by side.
        for line in result.text.splitlines():
            if "actual=" in line:
                assert "rows=" in line and "time=" in line

    def test_analyze_with_true_cards_matches_estimates(self, tiny_db, setup):
        """Under exact cardinalities, every node's actual equals its
        estimate (the TrueCard invariant made visible)."""
        query, cards = setup
        result = explain(tiny_db, query, cards, analyze=True)
        for line in result.text.splitlines():
            if "actual=" in line:
                estimated = float(line.split("rows=")[1].split(" ")[0])
                actual = float(line.split("actual=")[1].split(" ")[0])
                assert estimated == pytest.approx(actual)

    def test_aborted_execution_flagged(self, tiny_db, setup):
        from repro.engine.executor import Executor

        query, cards = setup
        result = explain(
            tiny_db,
            query,
            cards,
            analyze=True,
            executor=Executor(tiny_db, max_intermediate_rows=5),
        )
        assert result.aborted
        assert "ABORTED" in result.text
