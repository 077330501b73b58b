"""Shared fixtures: small-scale databases and workloads.

Tests run against reduced-scale versions of the benchmark databases so
the whole suite stays fast; labelled workloads are cached under
``tests/.workload-cache`` across runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.truecards import TrueCardinalityService
from repro.datasets.imdb_light import ImdbConfig, build_imdb_light
from repro.datasets.stats_db import StatsConfig, build_stats
from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.database import Database
from repro.engine.table import Table
from repro.workloads.job_light import build_job_light
from repro.workloads.stats_ceb import build_stats_ceb

TEST_CACHE = Path(__file__).parent / ".workload-cache"


@pytest.fixture(scope="session")
def stats_db() -> Database:
    return build_stats(StatsConfig().scaled(0.08))


@pytest.fixture(scope="session")
def imdb_db() -> Database:
    return build_imdb_light(
        ImdbConfig(
            title=2_000,
            cast_info=7_500,
            movie_companies=3_000,
            movie_info=5_000,
            movie_info_idx=2_500,
            movie_keyword=4_500,
        )
    )


@pytest.fixture(scope="session")
def stats_workload(stats_db):
    return build_stats_ceb(
        stats_db,
        num_queries=30,
        num_templates=15,
        min_cardinality=5,
        max_cardinality=300_000,
        cache_dir=TEST_CACHE,
    )


@pytest.fixture(scope="session")
def imdb_workload(imdb_db):
    return build_job_light(
        imdb_db,
        num_queries=20,
        num_templates=10,
        min_cardinality=5,
        max_cardinality=300_000,
        cache_dir=TEST_CACHE,
    )


@pytest.fixture(scope="session")
def truecards(stats_db) -> TrueCardinalityService:
    return TrueCardinalityService(stats_db)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_tiny_db() -> Database:
    """A fresh hand-built 3-table database with known contents.

    Use this factory (instead of the session-scoped ``tiny_db``
    fixture) in tests that mutate the database, e.g. insert batches.
    """
    rng = np.random.default_rng(0)
    users = TableSchema(
        "users",
        (
            ColumnMeta("Id", is_key=True, filterable=False),
            ColumnMeta("Reputation"),
        ),
        primary_key="Id",
    )
    posts = TableSchema(
        "posts",
        (
            ColumnMeta("Id", is_key=True, filterable=False),
            ColumnMeta("OwnerUserId", is_key=True, filterable=False),
            ColumnMeta("Score"),
        ),
        primary_key="Id",
    )
    comments = TableSchema(
        "comments",
        (
            ColumnMeta("Id", is_key=True, filterable=False),
            ColumnMeta("PostId", is_key=True, filterable=False),
            ColumnMeta("Score"),
        ),
        primary_key="Id",
    )
    n_users, n_posts, n_comments = 500, 2_000, 3_500
    graph = JoinGraph()
    graph.add(JoinEdge("users", "Id", "posts", "OwnerUserId"))
    graph.add(JoinEdge("posts", "Id", "comments", "PostId"))
    return Database(
        name="tiny",
        tables={
            "users": Table.from_arrays(
                users,
                {
                    "Id": np.arange(n_users),
                    "Reputation": rng.zipf(1.5, n_users).clip(max=1_000),
                },
            ),
            "posts": Table.from_arrays(
                posts,
                {
                    "Id": np.arange(n_posts),
                    "OwnerUserId": rng.integers(0, n_users, n_posts),
                    "Score": rng.integers(-5, 50, n_posts),
                },
            ),
            "comments": Table.from_arrays(
                comments,
                {
                    "Id": np.arange(n_comments),
                    "PostId": rng.integers(0, n_posts, n_comments),
                    "Score": rng.integers(0, 10, n_comments),
                },
            ),
        },
        join_graph=graph,
    )


def make_key_db(left_keys, left_valid, right_keys, right_valid) -> Database:
    """Two single-column tables ``l`` and ``r`` joined FK-FK on ``k``.

    Row ``i`` of a table holds key ``keys[i]``, NULL where ``valid[i]``
    is False — for driving one join operator with hand-made key arrays.
    """
    sides = {"l": (left_keys, left_valid), "r": (right_keys, right_valid)}
    graph = JoinGraph()
    graph.add(JoinEdge("l", "k", "r", "k", one_to_many=False))
    return Database(
        name="keys",
        tables={
            name: Table.from_arrays(
                TableSchema(name, (ColumnMeta("k", is_key=True, filterable=False),)),
                {"k": keys},
                {"k": ~np.asarray(valid)},
            )
            for name, (keys, valid) in sides.items()
        },
        join_graph=graph,
    )


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    """A hand-built 3-table database with known contents."""
    return make_tiny_db()
