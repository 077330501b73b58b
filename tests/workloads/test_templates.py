"""Tests for join-template enumeration."""

from repro.workloads.templates import JoinTemplate, enumerate_templates, random_template


class TestRandomTemplate:
    def test_template_is_tree(self, stats_db, rng):
        for _ in range(20):
            template = random_template(rng, stats_db.join_graph, 5)
            assert len(template.edges) == template.num_tables - 1

    def test_respects_size(self, stats_db, rng):
        sizes = {random_template(rng, stats_db.join_graph, 4).num_tables for _ in range(20)}
        assert sizes == {4}


class TestEnumerate:
    def test_count_and_distinctness(self, stats_db):
        templates = enumerate_templates(stats_db.join_graph, count=40, seed=3)
        assert len(templates) == 40
        assert len({t.signature() for t in templates}) == 40

    def test_size_coverage(self, stats_db):
        templates = enumerate_templates(stats_db.join_graph, count=40, seed=3)
        sizes = {t.num_tables for t in templates}
        assert sizes >= {2, 3, 4, 5, 6, 7, 8}

    def test_deterministic(self, stats_db):
        a = enumerate_templates(stats_db.join_graph, count=20, seed=5)
        b = enumerate_templates(stats_db.join_graph, count=20, seed=5)
        assert [t.signature() for t in a] == [t.signature() for t in b]

    def test_includes_fk_fk(self, stats_db):
        templates = enumerate_templates(stats_db.join_graph, count=60, seed=3)
        assert any(t.has_fk_fk for t in templates)

    def test_star_schema_limits_sizes(self, imdb_db):
        templates = enumerate_templates(
            imdb_db.join_graph, count=23, seed=2, max_tables=5
        )
        assert all(2 <= t.num_tables <= 5 for t in templates)
        assert all(not t.has_fk_fk for t in templates)

    def test_exhaustion_returns_fewer(self, imdb_db):
        # Only 5 two-table templates exist in a 5-edge star.
        templates = enumerate_templates(
            imdb_db.join_graph, count=100, seed=1, min_tables=2, max_tables=2
        )
        assert len(templates) == 5


class TestTemplateProperties:
    def test_join_type_label(self, stats_db):
        templates = enumerate_templates(stats_db.join_graph, count=60, seed=3)
        fk = next(t for t in templates if t.has_fk_fk)
        pk = next(t for t in templates if not t.has_fk_fk)
        assert fk.join_type == "PK-FK/FK-FK"
        assert pk.join_type == "PK-FK"

    def test_form_classification(self, stats_db):
        templates = enumerate_templates(stats_db.join_graph, count=70, seed=3)
        forms = {t.form(stats_db.join_graph) for t in templates}
        assert forms >= {"chain", "star"}

    def test_signature_order_invariant(self):
        from repro.engine.catalog import JoinEdge

        e1 = JoinEdge("a", "x", "b", "y")
        e2 = JoinEdge("b", "z", "c", "w")
        t1 = JoinTemplate(frozenset({"a", "b", "c"}), (e1, e2))
        t2 = JoinTemplate(frozenset({"a", "b", "c"}), (e2, e1))
        assert t1.signature() == t2.signature()
