"""The metamorphic invariants: they pass on healthy cases and, just as
importantly, they actually detect injected disagreements."""

import math
import time

import pytest

from repro.check import build_case, invariants
from repro.check.invariants import (
    ALL_INVARIANTS,
    check_batch,
    check_cache,
    check_oracle,
    check_parallel,
    check_planner_vectorised,
    check_plans,
    check_resume,
    check_serve,
    parallel_applicable,
    run_invariants,
)
from repro.core.truecards import TrueCardinalityService
from repro.engine.cost import CostModel
from repro.engine.executor import Executor
from repro.engine.jointree import JoinTree
from repro.estimators.postgres import PostgresEstimator
from repro.obs.trace import Tracer
from repro.serve.service import EstimationService


class TestHealthyCases:
    @pytest.mark.parametrize("index", range(6))
    def test_oracle_cache_plans_pass(self, index):
        case = build_case(0, index)
        assert check_oracle(case) == []
        assert check_cache(case) == []
        assert check_plans(case) == []

    def test_resume_passes(self):
        assert check_resume(build_case(0, 0)) == []

    @pytest.mark.parametrize("index", range(4))
    def test_planner_vectorised_passes(self, index):
        assert check_planner_vectorised(build_case(0, index)) == []

    def test_parallel_passes_when_applicable(self):
        for index in range(20):
            case = build_case(0, index)
            if parallel_applicable(case):
                assert check_parallel(case) == []
                return
        pytest.skip("no parallel-applicable case in range (fork unavailable?)")

    @pytest.mark.parametrize("index", range(6))
    def test_serve_passes(self, index):
        assert check_serve(build_case(0, index)) == []

    def test_run_invariants_runs_all(self):
        assert run_invariants(build_case(0, 1), ALL_INVARIANTS) == []


class TestDetection:
    """A checker that can't fail is worthless: corrupt one side of the
    comparison and assert the discrepancy is reported."""

    def _multi_table_case(self):
        for index in range(40):
            case = build_case(2, index)
            if any(len(q.tables) >= 2 for q in case.queries) and all(
                t.num_rows for t in case.database.tables.values()
            ):
                return case
        raise AssertionError("no suitable case found")

    def test_oracle_detects_corrupted_engine_counts(self, monkeypatch):
        case = self._multi_table_case()
        original = TrueCardinalityService.sub_plan_cards

        def off_by_one(self, query):
            return {
                subset: count + 1
                for subset, count in original(self, query).items()
            }

        monkeypatch.setattr(
            TrueCardinalityService, "sub_plan_cards", off_by_one
        )
        discrepancies = check_oracle(case)
        assert discrepancies
        assert discrepancies[0].invariant == "oracle"

    def test_oracle_detects_a_wrong_full_outer_join(self, monkeypatch):
        case = self._multi_table_case()
        total = JoinTree.total
        monkeypatch.setattr(JoinTree, "total", property(lambda tree: total.fget(tree) + 1))
        discrepancies = check_oracle(case)
        assert discrepancies
        assert all("join tree from" in d.detail for d in discrepancies)

    def test_cache_detects_diverging_services(self, monkeypatch):
        case = self._multi_table_case()
        original = TrueCardinalityService.sub_plan_cards

        def biased_when_cached(self, query):
            counts = original(self, query)
            if self.selection_cache is not None:  # the cache-backed service lies
                counts = {s: c + 1 for s, c in counts.items()}
            return counts

        monkeypatch.setattr(
            TrueCardinalityService, "sub_plan_cards", biased_when_cached
        )
        discrepancies = check_cache(case)
        assert discrepancies
        assert discrepancies[0].invariant == "cache"

    def test_plans_detects_a_wrong_inner_count(self, monkeypatch):
        # Root count right, inner join counts off by one: only the
        # per-node comparison against the labels can see it.
        case = next(
            case
            for case in (build_case(2, index) for index in range(40))
            if any(len(q.tables) >= 3 for q in case.queries)
        )
        original = Executor.execute

        def inner_off_by_one(self, plan, *args, **kwargs):
            result = original(self, plan, *args, **kwargs)
            for tables in result.node_rows:
                if 1 < len(tables) < len(plan.tables):
                    result.node_rows[tables] += 1
            return result

        monkeypatch.setattr(Executor, "execute", inner_off_by_one)
        discrepancies = check_plans(case)
        assert discrepancies
        assert discrepancies[0].invariant == "plans"

    def test_planner_vectorised_detects_kernel_drift(self, monkeypatch):
        # A level kernel whose costs drift by even one part in 10^9
        # breaks bit-identity with the scalar reference; the invariant
        # demands *exact* float equality, so it must fire.
        case = self._multi_table_case()
        original = CostModel.join_cost_level

        def drifted(self, *args, **kwargs):
            return original(self, *args, **kwargs) * (1.0 + 1e-9)

        monkeypatch.setattr(CostModel, "join_cost_level", drifted)
        discrepancies = check_planner_vectorised(case)
        assert discrepancies
        assert discrepancies[0].invariant == "planner-vectorised"

    def test_planner_vectorised_detects_tie_break_drift(self, monkeypatch):
        # Same costs, different champion: corrupt only the production
        # planner's method choice on tied candidates by inverting the rank
        # key, and the structural plan comparison must catch it.
        case = self._multi_table_case()
        from repro.engine import planner as planner_module

        monkeypatch.setattr(
            planner_module,
            "JOIN_METHOD_BY_RANK",
            tuple(reversed(planner_module.JOIN_METHOD_BY_RANK)),
        )
        discrepancies = check_planner_vectorised(case)
        assert discrepancies
        assert discrepancies[0].invariant == "planner-vectorised"

    @pytest.mark.parametrize("mixed", [False, True], ids=["alone", "composition"])
    def test_batch_detects_one_ulp_of_batch_dependence(self, monkeypatch, mixed):
        # One ulp is below any tolerance worth naming, so only ``==`` sees
        # it.  Drifting whenever a batch holds more than one sub-plan shows
        # against pricing each alone; drifting only when a batch mixes two
        # queries' sub-plans shows only behind another query's batch.
        case = next(
            case
            for case in (build_case(0, index) for index in range(40))
            if len(case.queries) >= 2 and any(len(q.tables) >= 2 for q in case.queries)
        )
        original = PostgresEstimator.estimate_batch

        def drifting(self, queries):
            values = original(self, queries)
            size = len({q.name for q in queries}) if mixed else len(queries)
            if size > 1:
                values = [math.nextafter(value, math.inf) for value in values]
            return values

        monkeypatch.setattr(PostgresEstimator, "estimate_batch", drifting)
        discrepancies = check_batch(case)
        assert discrepancies
        assert all(d.invariant == "batch" for d in discrepancies)
        details = [d.detail for d in discrepancies]
        if mixed:
            assert all("behind" in detail for detail in details)
        else:
            assert any("alone" in detail for detail in details)

    def test_serve_detects_swapped_slices(self, monkeypatch):
        # A round that hands two coalesced jobs each other's slice: the
        # estimates are all genuine, only their owners are wrong.  Only
        # HTTP rounds hold several jobs (an in-process call is a round of
        # one), so this is caught over HTTP.
        case = next(
            case
            for case in (build_case(2, index) for index in range(40))
            if len(case.queries) >= 2
        )
        price_chunk = EstimationService._price_chunk

        def swapped(self, model, jobs):
            time.sleep(0.001)  # other clients queue up behind this round
            price_chunk(self, model, jobs)
            if len(jobs) >= 2 and jobs[0].values != jobs[1].values:
                jobs[0].values, jobs[1].values = jobs[1].values, jobs[0].values

        monkeypatch.setattr(EstimationService, "_price_chunk", swapped)
        discrepancies = check_serve(case)
        assert discrepancies
        assert discrepancies[0].invariant == "serve"
        assert "http" in discrepancies[0].detail

    def test_serve_detects_a_tracer_shared_by_all_clients(self, monkeypatch):
        # What a process-global tracer amounts to: every client's calls
        # record into one tracer, so no call's trace is its own.
        case = build_case(0, 0)
        shared = Tracer(trace_id="shared")
        monkeypatch.setattr(invariants, "Tracer", lambda trace_id=None: shared)
        discrepancies = check_serve(case)
        assert discrepancies
        assert all(d.invariant == "serve" for d in discrepancies)
        assert "trace" in discrepancies[0].detail
