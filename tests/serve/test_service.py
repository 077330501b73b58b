"""EstimationService: parse cache, batched estimation, fallback,
sub-plan pricing, and hot-swap promotion."""

import pytest

import repro.serve.service as service_module
from repro.core.injection import estimate_sub_plans
from repro.engine.sql import parse_query
from repro.estimators.base import CardinalityEstimator
from repro.estimators.persistence import save_estimator
from repro.estimators.postgres import PostgresEstimator
from repro.resilience.fallback import PostgresDefaultFallback
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.serve.service import BadRequestError, EstimationService

SINGLE = "SELECT COUNT(*) FROM posts WHERE posts.Score > 10;"
JOIN = (
    "SELECT COUNT(*) FROM users, posts "
    "WHERE users.Id = posts.OwnerUserId AND users.Reputation > 5;"
)
CHAIN = (
    "SELECT COUNT(*) FROM users, posts, comments "
    "WHERE users.Id = posts.OwnerUserId AND posts.Id = comments.PostId "
    "AND comments.Score > 2;"
)


class _BrokenEstimator(CardinalityEstimator):
    name = "broken"

    def _fit(self, database):
        pass

    def estimate_batch(self, queries):
        raise RuntimeError("model on fire")


@pytest.fixture(scope="module")
def fitted(tiny_db):
    return PostgresEstimator().fit(tiny_db)


@pytest.fixture()
def service(tiny_db, fitted):
    registry = ModelRegistry()
    registry.promote(fitted, source="trained:PostgreSQL")
    svc = EstimationService(
        tiny_db, registry=registry, batch_window_seconds=0.0
    ).start()
    yield svc
    svc.close()


class TestEstimate:
    def test_matches_direct_estimator(self, service, tiny_db, fitted):
        result = service.estimate_many([SINGLE, JOIN])
        query = parse_query(SINGLE, tiny_db.join_graph)
        join_query = parse_query(JOIN, tiny_db.join_graph)
        expected = [
            max(1.0, fitted.estimate(query)),
            max(1.0, fitted.estimate(join_query)),
        ]
        assert result["estimates"] == pytest.approx(expected)
        assert result["model"] == "default"
        assert result["version"] == 1
        assert result["fallback"] is False

    def test_unknown_model_raises_before_queueing(self, service):
        with pytest.raises(UnknownModelError):
            service.estimate_many([SINGLE], model="nope")

    def test_bad_sql_is_a_bad_request(self, service):
        with pytest.raises(BadRequestError, match="cannot parse"):
            service.estimate_many(["SELECT nonsense"])
        with pytest.raises(BadRequestError):
            service.estimate_many([])
        with pytest.raises(BadRequestError):
            service.estimate_many([42])


class TestParseCache:
    def test_cache_returns_same_object_and_stays_bounded(
        self, tiny_db, fitted, monkeypatch
    ):
        monkeypatch.setattr(service_module, "PARSE_CACHE_SIZE", 2)
        registry = ModelRegistry()
        registry.promote(fitted)
        svc = EstimationService(tiny_db, registry=registry).start()
        first = svc.parse(SINGLE)
        assert svc.parse(SINGLE) is first  # cache hit
        svc.parse(JOIN)
        svc.parse(CHAIN)  # evicts SINGLE (LRU, size 2)
        assert len(svc._parse_cache) == 2
        assert svc.parse(SINGLE) is not first


class TestFallback:
    def test_estimator_failure_degrades_to_fallback(self, tiny_db):
        registry = ModelRegistry()
        registry.promote(_BrokenEstimator())
        svc = EstimationService(
            tiny_db, registry=registry, batch_window_seconds=0.0
        ).start()
        try:
            result = svc.estimate_many([SINGLE, JOIN])
        finally:
            svc.close()
        assert result["fallback"] is True
        assert "model on fire" in result["error"]
        fallback = PostgresDefaultFallback(tiny_db)
        expected = [
            max(1.0, fallback.estimate(parse_query(sql, tiny_db.join_graph)))
            for sql in (SINGLE, JOIN)
        ]
        assert result["estimates"] == pytest.approx(expected)


class TestSubPlans:
    def test_matches_injection_path(self, service, tiny_db, fitted):
        result = service.sub_plans(CHAIN)
        query = parse_query(CHAIN, tiny_db.join_graph)
        expected = estimate_sub_plans(fitted, query)
        assert result["estimator"] == fitted.name
        assert result["failed_sub_plans"] == 0
        assert result["fallback_estimates"] == 0
        by_tables = {
            frozenset(entry["tables"]): entry["estimate"]
            for entry in result["sub_plans"]
        }
        assert by_tables.keys() == expected.keys()
        for subset, estimate in expected.items():
            assert by_tables[subset] == pytest.approx(estimate)
        # Sorted smallest sub-plans first.
        sizes = [len(entry["tables"]) for entry in result["sub_plans"]]
        assert sizes == sorted(sizes)


class TestPromote:
    def test_promote_via_trainer(self, tiny_db, fitted):
        registry = ModelRegistry()
        registry.promote(fitted)

        def trainer(name):
            if name != "PostgreSQL":
                raise KeyError(name)
            return PostgresEstimator().fit(tiny_db)

        svc = EstimationService(tiny_db, registry=registry, trainer=trainer).start()
        outcome = svc.promote(estimator_name="PostgreSQL")
        assert outcome["promoted"]["version"] == 2
        assert outcome["promoted"]["source"] == "trained:PostgreSQL"
        assert outcome["prepare_seconds"] >= 0.0
        with pytest.raises(BadRequestError, match="unknown estimator"):
            svc.promote(estimator_name="nope")

    def test_promote_via_saved_model(self, tiny_db, fitted, tmp_path):
        path = tmp_path / "model.bin"
        save_estimator(fitted, path)
        svc = EstimationService(tiny_db).start()
        outcome = svc.promote(path=str(path))
        assert outcome["promoted"]["version"] == 1
        assert outcome["promoted"]["source"] == f"loaded:{path}"
        assert svc.estimate_many([SINGLE])["fallback"] is False
        with pytest.raises(BadRequestError, match="cannot load"):
            svc.promote(path=str(tmp_path / "missing.bin"))

    def test_promote_needs_exactly_one_source(self, tiny_db):
        svc = EstimationService(tiny_db).start()
        with pytest.raises(BadRequestError, match="exactly one"):
            svc.promote()
        with pytest.raises(BadRequestError, match="exactly one"):
            svc.promote(estimator_name="PostgreSQL", path="x.bin")
        with pytest.raises(BadRequestError, match="no trainer"):
            svc.promote(estimator_name="PostgreSQL")

    def test_promotion_applies_to_later_requests(self, service, tiny_db):
        before = service.estimate_many([SINGLE])
        assert before["version"] == 1
        service.registry.promote(PostgresEstimator().fit(tiny_db))
        after = service.estimate_many([SINGLE])
        assert after["version"] == 2


class TestHealth:
    def test_healthz_shape(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["models"] == {"default": 1}
        assert health["uptime_seconds"] >= 0.0
