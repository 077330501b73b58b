"""Tests for query generation and labelling."""

import numpy as np
import pytest

from repro.core.truecards import TrueCardinalityService
from repro.workloads.generator import (
    WorkloadSpec,
    build_workload,
    label_query,
    sample_predicate,
    sample_query,
)
from repro.workloads.templates import enumerate_templates


@pytest.fixture(scope="module")
def service(stats_db):
    return TrueCardinalityService(stats_db)


class TestSamplePredicate:
    def test_predicate_is_satisfiable(self, stats_db, rng):
        """Anchored predicates must admit at least one row."""
        for _ in range(40):
            predicate = sample_predicate(rng, stats_db, "posts", "Score")
            assert predicate is not None
            assert predicate.mask(stats_db.tables["posts"]).any()

    def test_small_domain_uses_eq_or_in(self, stats_db, rng):
        ops = {
            sample_predicate(rng, stats_db, "posts", "PostTypeId").op
            for _ in range(30)
        }
        assert ops <= {"=", "in"}

    def test_none_for_all_null_column(self, stats_db, rng):
        # Votes' BountyAmount is mostly NULL but not all; craft an
        # artificial empty case through a zero-row slice instead.
        empty = stats_db.tables["posts"].take(np.empty(0, dtype=np.int64))
        from repro.engine.database import Database

        tiny = Database("empty", {"posts": empty}, stats_db.join_graph)
        assert sample_predicate(rng, tiny, "posts", "Score") is None


class TestSampleQuery:
    def test_query_respects_template(self, stats_db, rng):
        template = enumerate_templates(stats_db.join_graph, 10, seed=3)[5]
        query = sample_query(rng, stats_db, template, num_predicates=4)
        assert query.tables == template.tables
        assert query.join_edges == template.edges
        assert query.num_predicates <= 4

    def test_predicates_land_on_query_tables(self, stats_db, rng):
        template = enumerate_templates(stats_db.join_graph, 10, seed=3)[5]
        query = sample_query(rng, stats_db, template, num_predicates=6)
        for predicate in query.predicates:
            assert predicate.table in query.tables

    def test_at_most_one_predicate_per_column(self, stats_db, rng):
        template = enumerate_templates(stats_db.join_graph, 10, seed=3)[7]
        query = sample_query(rng, stats_db, template, num_predicates=12)
        columns = [(p.table, p.column) for p in query.predicates]
        assert len(columns) == len(set(columns))


class TestLabelQuery:
    def test_label_contains_full_subplan_space(self, stats_db, service, rng):
        from repro.core.injection import sub_plan_sets

        template = enumerate_templates(stats_db.join_graph, 10, seed=3)[2]
        query = sample_query(rng, stats_db, template, num_predicates=2)
        labeled = label_query(service, query)
        assert labeled is not None
        assert set(labeled.sub_plan_true_cards) == set(sub_plan_sets(query))
        assert labeled.true_cardinality == labeled.sub_plan_true_cards[query.tables]

    def test_min_cardinality_rejects(self, stats_db, service, rng):
        template = enumerate_templates(stats_db.join_graph, 10, seed=3)[2]
        query = sample_query(rng, stats_db, template, num_predicates=2)
        assert label_query(service, query, min_cardinality=10**15) is None


class TestBuildWorkload:
    def test_workload_size_and_determinism(self, stats_db, service):
        templates = enumerate_templates(stats_db.join_graph, 8, seed=3)
        spec = WorkloadSpec(name="t", total_queries=12, seed=4, min_cardinality=1)
        a = build_workload(stats_db, templates, spec, service)
        b = build_workload(stats_db, templates, spec, service)
        assert len(a) == 12
        assert [q.query.key() for q in a] == [q.query.key() for q in b]

    def test_every_template_represented(self, stats_db, service):
        templates = enumerate_templates(stats_db.join_graph, 5, seed=3)
        spec = WorkloadSpec(name="t", total_queries=10, seed=4, min_cardinality=1)
        workload = build_workload(stats_db, templates, spec, service)
        used = {
            (tuple(sorted(q.query.tables)), len(q.query.join_edges))
            for q in workload
        }
        assert len(used) >= 4  # nearly all of the 5 templates

    def test_names_unique(self, stats_db, service):
        templates = enumerate_templates(stats_db.join_graph, 5, seed=3)
        spec = WorkloadSpec(name="t", total_queries=10, seed=4, min_cardinality=1)
        workload = build_workload(stats_db, templates, spec, service)
        names = [q.query.name for q in workload]
        assert len(names) == len(set(names))


class TestWorkloadContainer:
    def test_cardinality_range(self, stats_workload):
        low, high = stats_workload.cardinality_range()
        assert 0 < low <= high

    def test_subset(self, stats_workload):
        names = {stats_workload.queries[0].query.name}
        sub = stats_workload.subset(names)
        assert len(sub) == 1
