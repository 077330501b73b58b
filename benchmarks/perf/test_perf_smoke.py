"""Smoke test of the benchmark itself: ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.

Runs every workload for a fraction of a second, untraced and traced, and
checks the benchmark's own contract: the declared metrics are the measured
ones, nothing fails on the current tree, span self times add up, and a
wrong label or a bad HTTP answer makes verification fail.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
import run  # puts benchmarks/perf and src/ on sys.path

import inputs
import labelling
import serving
from spans import self_times

SPEC = run.spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = 0.4


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-out")
    return out, {
        (name, trace): run.run_workload(
            name, seed=0, seconds=SECONDS, trace=trace, setup_rounds=1, out_dir=out
        )
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_declared_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]) for metric in metrics)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_end_to_end_metric_is_measured_and_nothing_fails(results, name):
    for trace in (False, True):
        result = results[1][name, trace]
        assert result["problems"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = run.declared_metrics(results[1][name, False], trace=False)
    assert list(emitted) == [metric["name"] for metric in SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in emitted.values())


def test_per_layer_metrics_are_the_declared_ones(results):
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    measured = set()
    for name in WORKLOADS:
        result = results[1][name, True]
        measured |= set(result["metrics"])
        assert set(run.declared_metrics(result, trace=True)) == declared
    # Nothing a workload measures is dropped, and no declared metric is
    # one that no workload measures.
    assert measured == declared


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_self_times_sum_to_the_op_span(results, name):
    out = results[0]
    spans = [json.loads(line) for line in (out / f"trace-{name}.jsonl").read_text().splitlines()]
    assert spans
    own = self_times(spans)
    per_op: dict[str, float] = {}
    for span in spans:
        per_op[span["op"]] = per_op.get(span["op"], 0.0) + own[span["id"]]
    roots = [span for span in spans if span["parent"] is None]
    assert len(roots) == len(per_op)
    for root in roots:
        duration = root["end"] - root["start"]
        assert per_op[root["op"]] == pytest.approx(duration, rel=0.01)


def test_a_corrupted_label_fails_verification():
    workload = run.workloads()["joblight-campaign"]
    built = workload.setup(0, inputs.SetupClock())
    timed = workload.timed(built, 0.1)
    assert workload.verify(built, timed)[1] == 0
    first = built.workload.queries[0]
    built.workload.queries[0] = dataclasses.replace(
        first, true_cardinality=first.true_cardinality + 1
    )
    attempted, failed, problems = workload.verify(built, timed)
    assert failed >= 1 and "label says" in " ".join(problems)

    counted = {q.query.name: dict(q.sub_plan_true_cards) for q in built.workload.queries}
    assert labelling.check_cards(built.workload, counted) == []
    subset = next(iter(counted[first.query.name]))
    counted[first.query.name][subset] += 1
    assert len(labelling.check_cards(built.workload, counted)) == 1


def test_a_changed_label_fails_the_golden_digest():
    workload = run.workloads()["joblight-campaign"]
    built = workload.setup(0, inputs.SetupClock())
    expected = inputs.golden()["label_digest"]["job-light"]
    assert inputs.label_digest(built.workload) == expected
    first = built.workload.queries[0]
    subset = next(iter(first.sub_plan_true_cards))
    first.sub_plan_true_cards[subset] += 1
    assert inputs.label_digest(built.workload) != expected


def test_a_bad_http_answer_fails_verification():
    good = serving.Sample(0.0, 0.001, 200, 0, json.dumps({"estimate": 12.5, "fallback": False}).encode())
    assert serving.check_responses("/estimate", [good], [12.5]) == []
    for bad in (
        dataclasses.replace(good, status=503, body=b"{}"),
        dataclasses.replace(good, status=-1, body=b""),
        dataclasses.replace(good, body=json.dumps({"estimate": 12.6, "fallback": False}).encode()),
        dataclasses.replace(good, body=json.dumps({"estimate": 12.5, "fallback": True}).encode()),
    ):
        assert len(serving.check_responses("/estimate", [bad], [12.5])) == 1

    reply = {
        "sub_plans": [{"tables": ["a"], "estimate": 3.0}, {"tables": ["a", "b"], "estimate": 9.0}],
        "fallback_estimates": 0,
        "failed_sub_plans": 0,
    }
    reference = [{("a",): 3.0, ("a", "b"): 9.0}]
    ok = serving.Sample(0.0, 0.001, 200, 0, json.dumps(reply).encode())
    assert serving.check_responses("/subplans", [ok], reference) == []
    reply["sub_plans"][1]["estimate"] = 9.5
    wrong = dataclasses.replace(ok, body=json.dumps(reply).encode())
    assert len(serving.check_responses("/subplans", [wrong], reference)) == 1
