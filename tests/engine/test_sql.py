"""Tests for SQL rendering and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.engine.sql import SqlParseError, parse_query, query_to_sql


def make_query(tiny_db):
    graph = tiny_db.join_graph
    return Query(
        tables=frozenset({"users", "posts", "comments"}),
        join_edges=tuple(graph.edges),
        predicates=(
            Predicate("users", "Reputation", ">=", 10),
            Predicate("posts", "Score", "between", (0, 20)),
            Predicate("comments", "Score", "in", (1.0, 3.0)),
        ),
        name="sql-test",
    )


class TestRender:
    def test_contains_all_parts(self, tiny_db):
        sql = query_to_sql(make_query(tiny_db))
        assert sql.startswith("SELECT COUNT(*) FROM comments, posts, users")
        assert "users.Id = posts.OwnerUserId" in sql
        assert "posts.Score BETWEEN 0 AND 20" in sql
        assert "comments.Score IN (1, 3)" in sql
        assert sql.endswith(";")

    def test_no_where_for_bare_scan(self):
        sql = query_to_sql(Query(tables=frozenset({"users"})))
        assert "WHERE" not in sql


class TestRoundTrip:
    def test_full_round_trip(self, tiny_db):
        original = make_query(tiny_db)
        parsed = parse_query(query_to_sql(original), tiny_db.join_graph, name="sql-test")
        assert parsed.key() == original.key()

    def test_edge_orientation_recovered(self, tiny_db):
        sql = "SELECT COUNT(*) FROM posts, users WHERE posts.OwnerUserId = users.Id"
        parsed = parse_query(sql, tiny_db.join_graph)
        edge = parsed.join_edges[0]
        assert edge.one_to_many
        assert edge.left == "users"  # PK side per the schema

    def test_without_graph_defaults_many_to_many(self):
        sql = "SELECT COUNT(*) FROM a, b WHERE a.x = b.y"
        parsed = parse_query(sql)
        assert not parsed.join_edges[0].one_to_many


class TestParseDetails:
    def test_operators(self):
        for op in ("=", "<", "<=", ">", ">="):
            parsed = parse_query(f"SELECT COUNT(*) FROM t WHERE t.a {op} 5")
            assert parsed.predicates[0].op == op
            assert parsed.predicates[0].value == 5.0

    def test_between(self):
        parsed = parse_query("SELECT COUNT(*) FROM t WHERE t.a BETWEEN 1 AND 9")
        assert parsed.predicates[0].op == "between"
        assert parsed.predicates[0].value == (1.0, 9.0)

    def test_in_list(self):
        parsed = parse_query("SELECT COUNT(*) FROM t WHERE t.a IN (1, 2, 3)")
        assert parsed.predicates[0].value == (1.0, 2.0, 3.0)

    def test_negative_and_float_literals(self):
        parsed = parse_query("SELECT COUNT(*) FROM t WHERE t.a >= -12.5")
        assert parsed.predicates[0].value == -12.5

    def test_case_insensitive_keywords(self):
        parsed = parse_query("select count(*) from t where t.a = 1")
        assert parsed.num_predicates == 1

    def test_trailing_semicolon_optional(self):
        assert parse_query("SELECT COUNT(*) FROM t;").tables == frozenset({"t"})

    def test_keyword_named_columns_parse(self):
        # STATS has a real ``tags.Count`` column; after a ``.`` any
        # word is a column name, keyword or not.
        parsed = parse_query("SELECT COUNT(*) FROM tags WHERE tags.Count >= 5")
        assert parsed.predicates[0].column == "Count"
        parsed = parse_query(
            "SELECT COUNT(*) FROM t WHERE t.Between BETWEEN 1 AND 2 AND t.In IN (3, 4)"
        )
        assert {p.column for p in parsed.predicates} == {"Between", "In"}
        joined = parse_query("SELECT COUNT(*) FROM a, b WHERE a.From = b.Count")
        assert joined.join_edges[0].left_column in ("From", "Count")


class TestParseErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM t WHERE t.a LIKE 5",
            "SELECT COUNT(*) FROM t WHERE t.a != 5",
            "SELECT COUNT(*) FROM a, b WHERE a.x < b.y",  # non-equi join
            "SELECT COUNT(*) FROM t WHERE",
            "SELECT COUNT(*) FROM t WHERE t.a = 1 extra",
        ],
    )
    def test_rejected(self, sql):
        with pytest.raises(SqlParseError):
            parse_query(sql)


@settings(max_examples=40, deadline=None)
@given(
    low=st.integers(-100, 100),
    width=st.integers(0, 50),
    eq=st.integers(-100, 100),
)
def test_predicate_round_trip_property(low, width, eq):
    query = Query(
        tables=frozenset({"t"}),
        predicates=(
            Predicate("t", "a", "between", (low, low + width)),
            Predicate("t", "b", "=", eq),
        ),
    )
    parsed = parse_query(query_to_sql(query))
    assert parsed.key() == query.key()
