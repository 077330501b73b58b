"""Tests for the planner's vectorised DP against its scalar reference.

The contract under test: for any query and any injected cards map, the
planner and :class:`repro.check.reference_planner.ReferencePlanner`
produce the *bit-identical* ``(plan, estimated_cost)`` pair — including
under cost ties, zero cardinalities and sub-row fractional
cardinalities — because the level kernel re-evaluates the scalar cost
formulas elementwise and both apply the codified deterministic total
order ``(cost, method_rank, left_mask)``.
"""

import numpy as np
import pytest

from repro.check.reference_planner import ReferencePlanner
from repro.core.truecards import TrueCardinalityService
from repro.engine.catalog import JoinEdge
from repro.engine.cost import CostModel, MissingCardinalityError, table_infos
from repro.engine.planner import MAX_DENSE_TABLES, Planner
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    JoinNode,
    ScanNode,
)
from repro.engine.predicates import Predicate
from repro.engine.query import Query


@pytest.fixture(scope="module")
def three_way_query(tiny_db):
    graph = tiny_db.join_graph
    return Query(
        tables=frozenset({"users", "posts", "comments"}),
        join_edges=tuple(graph.edges),
        predicates=(
            Predicate("users", "Reputation", ">", 3),
            Predicate("posts", "Id", "<", 1_500),
        ),
        name="vectorised-test",
    )


@pytest.fixture(scope="module")
def true_cards(tiny_db, three_way_query):
    service = TrueCardinalityService(tiny_db)
    return {
        subset: float(count)
        for subset, count in service.sub_plan_cards(three_way_query).items()
    }


def both_paths(database, query, cards):
    scalar = ReferencePlanner(database).plan(query, cards)
    vector = Planner(database).plan(query, cards)
    return scalar, vector


class TestBitIdentity:
    """Planner output must equal the scalar reference bit for bit."""

    def test_true_cards(self, tiny_db, three_way_query, true_cards):
        scalar, vector = both_paths(tiny_db, three_way_query, true_cards)
        assert scalar.plan == vector.plan
        assert float(scalar.estimated_cost) == float(vector.estimated_cost)

    @pytest.mark.parametrize("value", [1.0, 0.0, 0.25, 1e9])
    def test_uniform_cards(self, tiny_db, three_way_query, true_cards, value):
        # All-tied, all-zero, sub-row and huge cardinalities: the
        # degenerate maps most likely to expose tie-break or clamp
        # divergence between the paths.
        cards = {subset: value for subset in true_cards}
        scalar, vector = both_paths(tiny_db, three_way_query, cards)
        assert scalar.plan == vector.plan
        assert float(scalar.estimated_cost) == float(vector.estimated_cost)

    def test_random_cards(self, tiny_db, three_way_query, true_cards):
        rng = np.random.default_rng(42)
        pool = np.array([0.0, 0.25, 1.0, 2.0, 640.0, 1e6])
        for _ in range(25):
            cards = {
                subset: float(rng.choice(pool)) for subset in true_cards
            }
            scalar, vector = both_paths(tiny_db, three_way_query, cards)
            assert scalar.plan == vector.plan, cards
            assert float(scalar.estimated_cost) == float(
                vector.estimated_cost
            ), cards

    def test_two_table_query(self, tiny_db, true_cards):
        graph = tiny_db.join_graph
        query = Query(
            tables=frozenset({"users", "posts"}),
            join_edges=tuple(graph.edges_between("users", "posts")),
            name="two-way",
        )
        cards = {
            frozenset({"users"}): 500.0,
            frozenset({"posts"}): 2_000.0,
            frozenset({"users", "posts"}): 2_000.0,
        }
        scalar, vector = both_paths(tiny_db, query, cards)
        assert scalar.plan == vector.plan
        assert float(scalar.estimated_cost) == float(vector.estimated_cost)

    def test_stats_ceb_pool_two_to_eight_tables(self, stats_db, stats_workload):
        # Every query of the STATS-CEB pool, from its 2-table queries
        # (one join level, where numpy has the least to batch) to the
        # 8-table query spanning the whole schema.
        sizes = {len(labeled.query.tables) for labeled in stats_workload.queries}
        assert {2, len(stats_db.tables)} <= sizes
        for labeled in stats_workload.queries:
            cards = {
                subset: float(count)
                for subset, count in labeled.sub_plan_true_cards.items()
            }
            scalar, vector = both_paths(stats_db, labeled.query, cards)
            assert scalar.plan == vector.plan, labeled.query.name
            assert float(scalar.estimated_cost) == float(
                vector.estimated_cost
            ), labeled.query.name


class TestDeterministicTieBreaking:
    """Satellite: cost ties resolve by (cost, method_rank, left_mask)."""

    def test_tied_costs_pick_same_plan_in_both_paths(
        self, tiny_db, three_way_query, true_cards
    ):
        cards = {subset: 1.0 for subset in true_cards}
        scalar, vector = both_paths(tiny_db, three_way_query, cards)
        assert scalar.plan == vector.plan

    def test_tied_costs_are_reproducible(
        self, tiny_db, three_way_query, true_cards
    ):
        cards = {subset: 1.0 for subset in true_cards}
        plans = [
            planner(tiny_db).plan(three_way_query, cards).plan
            for planner in (ReferencePlanner, Planner, ReferencePlanner, Planner)
        ]
        assert all(plan == plans[0] for plan in plans)

    def test_tie_prefers_lower_method_rank(self, tiny_db, true_cards):
        # With every candidate cost identical per split, the winner's
        # method must be the lowest-ranked one that achieves the
        # champion cost — never an arbitrary enumeration-order artifact.
        cards = {subset: 1.0 for subset in true_cards}
        query = Query(
            tables=frozenset({"users", "posts", "comments"}),
            join_edges=tuple(tiny_db.join_graph.edges),
            name="tie-rank",
        )
        planned = Planner(tiny_db).plan(query, cards)
        cost_model = Planner(tiny_db).cost_model
        for node in planned.plan.walk():
            if not isinstance(node, JoinNode):
                continue
            chosen_rank = [JOIN_HASH, JOIN_MERGE, JOIN_INDEX_NL].index(
                node.method
            )
            chosen_cost = cost_model.plan_cost(node, cards)
            for rank, method in enumerate([JOIN_HASH, JOIN_MERGE, JOIN_INDEX_NL]):
                if rank >= chosen_rank:
                    continue
                if method == JOIN_INDEX_NL and not isinstance(
                    node.right, ScanNode
                ):
                    continue
                alternative = JoinNode(
                    tables=node.tables,
                    left=node.left,
                    right=node.right,
                    edge=node.edge,
                    method=method,
                )
                assert cost_model.plan_cost(alternative, cards) > chosen_cost


class TestMissingCardinality:
    """Missing sub-plans raise a typed error naming the subset."""

    @pytest.mark.parametrize("production", [False, True])
    def test_planner_raises_typed_error(
        self, tiny_db, three_way_query, true_cards, production
    ):
        cards = dict(true_cards)
        dropped = frozenset({"users", "posts"})
        del cards[dropped]
        planner = (Planner if production else ReferencePlanner)(tiny_db)
        with pytest.raises(MissingCardinalityError) as excinfo:
            planner.plan(three_way_query, cards)
        assert excinfo.value.tables == dropped

    def test_error_names_the_subset(self):
        error = MissingCardinalityError(frozenset({"b", "a"}))
        assert error.tables == frozenset({"a", "b"})
        assert str(error) == "no injected cardinality for sub-plan a+b"

    def test_error_is_a_keyerror(self):
        # Existing `except KeyError` handlers must keep working.
        assert issubclass(MissingCardinalityError, KeyError)


class TestInputCheck:
    def test_more_than_max_dense_tables_is_rejected(self, tiny_db):
        names = [f"t{i}" for i in range(MAX_DENSE_TABLES + 1)]
        query = Query(
            tables=frozenset(names),
            join_edges=tuple(
                JoinEdge(left, "id", right, "fk")
                for left, right in zip(names, names[1:])
            ),
            name="too-wide",
        )
        with pytest.raises(ValueError, match=f"at most {MAX_DENSE_TABLES}"):
            Planner(tiny_db).plan(query, {})


class TestBatchKernelParity:
    """The level kernel must reproduce the scalar formulas bit for bit."""

    def test_join_cost_level_matches_per_method_scalar_join_cost(self, tiny_db):
        cost_model = CostModel(table_infos(tiny_db))
        rng = np.random.default_rng(7)
        num = 40
        # Negatives exercise the clamps; the pinned rows cover zero and
        # sub-row cardinalities on every side.
        out_rows = rng.uniform(-1.0, 1e6, num)
        left_rows = rng.uniform(-1.0, 1e6, num)
        right_rows = rng.uniform(-1.0, 1e6, num)
        out_rows[:4] = [0.0, 0.25, 0.0, 0.5]
        left_rows[:4] = [0.0, 0.25, 3.0, 0.0]
        right_rows[:4] = [0.0, 0.25, 0.0, 0.75]
        left_costs = rng.uniform(0.0, 1e5, num)
        right_costs = rng.uniform(0.0, 1e5, num)
        inl_rows = np.union1d(
            np.arange(4), np.flatnonzero(rng.random(num) < 0.4)
        ).astype(np.intp)
        num_predicates = rng.integers(0, 3, len(inl_rows))

        fused = cost_model.join_cost_level(
            out_rows,
            left_rows,
            right_rows,
            left_costs,
            right_costs,
            inl_rows,
            np.full(len(inl_rows), float(cost_model.infos["posts"].raw_rows)),
            num_predicates.astype(float),
        )

        users, posts = frozenset({"users"}), frozenset({"posts"})
        edge = tiny_db.join_graph.edges_between("users", "posts")[0]
        left = ScanNode(tables=users, table="users")

        def scalar(row, method, predicates=0):
            right = ScanNode(
                tables=posts,
                table="posts",
                predicates=(Predicate("posts", "Score", ">", 0),) * predicates,
            )
            node = JoinNode(
                tables=users | posts, left=left, right=right, edge=edge, method=method
            )
            cards = {
                users: left_rows[row],
                posts: right_rows[row],
                users | posts: out_rows[row],
            }
            return cost_model.join_cost(
                node, cards, float(left_costs[row]), float(right_costs[row])
            )

        expected = (
            [scalar(row, JOIN_HASH) for row in range(num)]
            + [scalar(row, JOIN_MERGE) for row in range(num)]
            + [
                scalar(row, JOIN_INDEX_NL, predicates)
                for row, predicates in zip(inl_rows, num_predicates)
            ]
        )
        np.testing.assert_array_equal(fused, np.array(expected))  # bitwise
