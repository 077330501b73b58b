"""The shared JSONL append/recover contract, at every append site.

A writer killed mid-line leaves a torn tail with no newline.  The next
writer on the same file (``repro bench --resume … --events-out
same.jsonl``, a restarted server) must not glue its first record onto
that fragment: readers skip unparseable lines, so both would be lost.
"""

import pytest

from repro.core.benchmark import QueryRun
from repro.obs.events import EventLog, load_events
from repro.obs.jsonl import open_append, read_jsonl
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.serve.drift import DriftMonitor
from repro.serve.tracing import AccessLog


def _events(path, tags):
    with EventLog(path) as log:
        for tag in tags:
            log.emit(tag)
    return [record["event"] for record in load_events(path)]


def _drift_pairs(path, tags):
    monitor = DriftMonitor(pairs_path=path)
    for tag in tags:
        monitor.observe(
            model=tag, version=1, template=("posts",), estimate=1.0, actual=1.0
        )
    monitor.close()
    return [pair["model"] for pair in read_jsonl(path)]


def _access_log(path, tags):
    log = AccessLog(path)
    for tag in tags:
        log.record(
            request_id=tag, route="estimate", method="POST", status=200,
            latency_seconds=0.001,
        )
    log.close()
    return [record["request_id"] for record in read_jsonl(path)]


def _checkpoint(path, tags):
    with CampaignCheckpoint.resume(path) as checkpoint:
        for tag in tags:
            checkpoint.append(
                "PostgreSQL",
                QueryRun(
                    query_name=tag, num_tables=2, inference_seconds=0.0,
                    planning_seconds=0.0, execution_seconds=0.0, aborted=False,
                    result_cardinality=1, p_error=1.0,
                ),
            )
    return sorted(CampaignCheckpoint.resume(path).completed_queries("PostgreSQL"))


@pytest.mark.parametrize(
    "write_then_read", [_events, _drift_pairs, _access_log, _checkpoint]
)
def test_append_after_torn_tail_keeps_every_record(tmp_path, write_then_read):
    path = tmp_path / "log.jsonl"
    assert write_then_read(path, ["a"]) == ["a"]
    with path.open("a") as handle:
        handle.write('{"ts": 1, "level": "in')  # killed mid-line
    assert write_then_read(path, ["b", "c"]) == ["a", "b", "c"]
    assert path.read_text().count('{"ts": 1, "level": "in\n') == 1


def test_open_append_leaves_whole_files_alone(tmp_path):
    path = tmp_path / "nested" / "log.jsonl"
    with open_append(path) as handle:
        assert handle.tell() == 0
        handle.write('{"n": 1}\n')
    with open_append(path) as handle:
        handle.write('{"n": 2}\n')
    assert path.read_text() == '{"n": 1}\n{"n": 2}\n'
    assert read_jsonl(path) == [{"n": 1}, {"n": 2}]


def test_read_jsonl_missing_file(tmp_path):
    assert read_jsonl(tmp_path / "nope.jsonl") == []
    with pytest.raises(FileNotFoundError):
        read_jsonl(tmp_path / "nope.jsonl", missing_ok=False)
