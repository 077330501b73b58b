"""Self-contained HTML campaign dashboard.

Renders one static HTML page — no JavaScript frameworks, no external
assets, openable from disk or a CI artifact tab — from whatever
campaign artifacts exist:

- the **checkpoint** (completed per-query runs, the durable ground
  truth even for a killed campaign),
- the **event log** (campaign begin/end, fallbacks, worker crashes — also the source of the campaign's intended query total, so
  partial progress renders as ``done / total``),
- the **run manifest** (config + metrics snapshot),
- a **blame report** (per-sub-plan misestimation attribution), and
- the **serving artifacts** — the access log and drift pairs a
  ``repro serve --obs-dir`` process appends — rendered as a live
  serve panel: per-route request/error/latency rollup plus windowed
  est-vs-actual drift.

Every input is optional: the dashboard of a campaign killed after its
first query is just a shorter page, not an error.  Artifacts with a
``schema_version`` are validated on load and rejected loudly when
incompatible.
"""

from __future__ import annotations

import html
import statistics
import time
from pathlib import Path

from repro.obs import blame as obs_blame
from repro.obs import events as obs_events
from repro.obs.jsonl import read_jsonl
from repro.obs.manifest import load_run_manifest
from repro.resilience.checkpoint import CampaignCheckpoint

#: Events shown in the "recent events" tail.
_EVENT_TAIL = 50

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a2330; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { border: 1px solid #d5dbe3; padding: 0.3rem 0.55rem; text-align: left; }
th { background: #eef1f5; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { background: #e4e8ee; border-radius: 4px; height: 1.1rem;
       overflow: hidden; margin: 0.4rem 0; }
.bar > div { background: #3c78c3; height: 100%; }
.ok { color: #1d7a35; } .bad { color: #b3261e; } .warn { color: #9a6700; }
.muted { color: #68727f; font-size: 0.85rem; }
code { background: #f2f4f7; padding: 0.1rem 0.25rem; border-radius: 3px; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        if value != value:  # NaN
            return "–"
        return f"{value:.{digits}f}"
    return _esc(value)


def _status(run: dict) -> str:
    if run.get("failed"):
        return '<span class="bad">failed</span>'
    if run.get("aborted"):
        return '<span class="warn">aborted</span>'
    return '<span class="ok">ok</span>'


# -- artifact loading ---------------------------------------------------------


def _load_checkpoint_runs(path) -> list[dict]:
    """Completed (estimator, query) pairs as plain dicts."""
    runs = []
    for estimator, run in sorted(
        CampaignCheckpoint.resume(path).runs(),
        key=lambda pair: (pair[0], pair[1].query_name),
    ):
        runs.append(
            {
                "estimator": estimator,
                "query": run.query_name,
                "num_tables": run.num_tables,
                "p_error": run.p_error,
                "end_to_end_seconds": run.end_to_end_seconds,
                "failed": run.failed,
                "aborted": run.aborted,
                "error": run.error,
            }
        )
    return runs


def _campaign_from_events(events: list[dict]) -> dict:
    """Campaign framing (total, estimator, end state) from the event log."""
    campaign: dict = {}
    for record in events:
        if record.get("event") == "campaign.begin":
            campaign = {
                "total": record.get("total"),
                "estimator": record.get("estimator"),
                "workload": record.get("workload"),
                "ended": False,
            }
        elif record.get("event") == "campaign.end":
            campaign["ended"] = True
            campaign["failed"] = record.get("failed")
            campaign["aborted"] = record.get("aborted")
    return campaign


# -- section renderers --------------------------------------------------------


def _progress_section(runs: list[dict], campaign: dict) -> list[str]:
    done = len(runs)
    total = campaign.get("total") or done
    failed = sum(1 for r in runs if r["failed"])
    aborted = sum(1 for r in runs if r["aborted"])
    percent = 100.0 * done / total if total else 0.0
    label = " / ".join(
        part
        for part in (campaign.get("estimator"), campaign.get("workload"))
        if part
    )
    state = (
        "completed"
        if campaign.get("ended")
        else "in progress or interrupted (partial artifacts)"
    )
    lines = ["<h2>Campaign progress</h2>"]
    if label:
        lines.append(f"<p><strong>{_esc(label)}</strong> — {state}</p>")
    lines.append(
        f'<div class="bar"><div style="width:{percent:.1f}%"></div></div>'
    )
    lines.append(
        f"<p>{done} / {total} queries completed"
        f" ({percent:.0f}%) — "
        f'<span class="bad">{failed} failed</span>, '
        f'<span class="warn">{aborted} aborted</span></p>'
    )
    return lines


def _runs_section(runs: list[dict]) -> list[str]:
    if not runs:
        return []
    lines = ["<h2>Completed queries (from checkpoint)</h2>", "<table>"]
    lines.append(
        "<tr><th>query</th><th>estimator</th><th>tables</th><th>P-Error</th>"
        "<th>end-to-end</th><th>status</th></tr>"
    )
    for run in runs:
        lines.append(
            "<tr>"
            f"<td>{_esc(run['query'])}</td>"
            f"<td>{_esc(run['estimator'])}</td>"
            f'<td class="num">{run["num_tables"]}</td>'
            f'<td class="num">{_fmt(run["p_error"])}</td>'
            f'<td class="num">{_fmt(run["end_to_end_seconds"], 4)}s</td>'
            f"<td>{_status(run)}</td>"
            "</tr>"
        )
    lines.append("</table>")
    errors = [r for r in runs if r.get("error")]
    if errors:
        lines.append('<p class="muted">Errors: '
                     + "; ".join(
                         f"<code>{_esc(r['query'])}: {_esc(r['error'])}</code>"
                         for r in errors
                     )
                     + "</p>")
    return lines


def _blame_section(payload: dict) -> list[str]:
    lines = [
        "<h2>Plan-quality blame</h2>",
        f"<p>Estimator <strong>{_esc(payload.get('estimator', '?'))}</strong> "
        f"on {_esc(payload.get('workload', '?'))}</p>",
    ]
    queries = payload.get("queries", [])
    if queries:
        ranked = sorted(
            queries,
            key=lambda q: -(q.get("p_error") or 0.0),
        )[:10]
        lines.append("<h3>Worst queries</h3><table>")
        lines.append(
            "<tr><th>query</th><th>P-Error</th><th>runtime gap</th>"
            "<th>plans differ</th><th>top offending sub-plan</th></tr>"
        )
        for query in ranked:
            attributions = query.get("attributions", [])
            top = attributions[0] if attributions else None
            offender = "–"
            if top is not None:
                offender = (
                    f"{_esc(' ⋈ '.join(top['tables']))} "
                    f"({_esc(top['direction'])} {top['ratio']:.1f}×: "
                    f"est {top['estimated_rows']:.0f} vs "
                    f"true {top['true_rows']:.0f})"
                )
            gap = query.get("runtime_gap_seconds")
            lines.append(
                "<tr>"
                f"<td>{_esc(query['query'])}</td>"
                f'<td class="num">{_fmt(query.get("p_error"))}</td>'
                f'<td class="num">{_fmt(gap, 4)}</td>'
                f"<td>{'yes' if query.get('plans_differ') else 'no'}</td>"
                f"<td>{offender}</td>"
                "</tr>"
            )
        lines.append("</table>")
    rollup = payload.get("rollup_by_subplan", [])
    if rollup:
        lines.append("<h3>Repeat-offender sub-plans</h3><table>")
        lines.append(
            "<tr><th>sub-plan</th><th>times top offender</th>"
            "<th>worst ratio</th><th>runtime gap</th></tr>"
        )
        for entry in rollup[:10]:
            lines.append(
                "<tr>"
                f"<td>{_esc(' ⋈ '.join(entry['tables']))}</td>"
                f'<td class="num">{entry["times_top_offender"]}</td>'
                f'<td class="num">{entry["max_ratio"]:.1f}×</td>'
                f'<td class="num">{_fmt(entry.get("runtime_gap_seconds"), 4)}</td>'
                "</tr>"
            )
        lines.append("</table>")
    return lines


def _events_section(events: list[dict]) -> list[str]:
    if not events:
        return []
    lines = [
        f"<h2>Recent events (last {min(len(events), _EVENT_TAIL)} "
        f"of {len(events)})</h2>",
        "<table>",
        "<tr><th>time</th><th>level</th><th>event</th><th>detail</th></tr>",
    ]
    for record in events[-_EVENT_TAIL:]:
        ts = time.strftime("%H:%M:%S", time.localtime(record.get("ts", 0)))
        level = record.get("level", "info")
        css = {"error": "bad", "warning": "warn"}.get(level, "muted")
        detail = ", ".join(
            f"{key}={value}"
            for key, value in sorted(record.items())
            if key not in ("ts", "level", "event")
        )
        lines.append(
            "<tr>"
            f"<td>{ts}</td>"
            f'<td><span class="{css}">{_esc(level)}</span></td>'
            f"<td>{_esc(record.get('event', '?'))}</td>"
            f"<td>{_esc(detail)}</td>"
            "</tr>"
        )
    lines.append("</table>")
    return lines


def _phases_section(manifest: dict) -> list[str]:
    """Per-estimator phase table from the manifest's ``runs[].totals``."""
    runs = [run for run in manifest.get("runs") or [] if run.get("totals")]
    if not runs:
        return []
    lines = [
        "<h2>Phase times (from manifest)</h2>",
        "<table>",
        "<tr><th>estimator</th><th>workload</th><th>phase</th>"
        "<th>queries</th><th>wall s</th></tr>",
    ]
    for run in runs:
        prefix = (
            f"<tr><td>{_esc(run.get('estimator', '?'))}</td>"
            f"<td>{_esc(run.get('workload', '?'))}</td>"
        )
        queries = len(run.get("queries") or [])
        for phase in ("inference", "planning", "execution"):
            seconds = run["totals"].get(f"{phase}_seconds")
            lines.append(
                f"{prefix}<td>{phase}</td>"
                f'<td class="num">{queries}</td>'
                f'<td class="num">{_fmt(seconds, 4)}</td></tr>'
            )
    lines.append("</table>")
    return lines


def _serve_section(access: list[dict], drift_pairs: list[dict]) -> list[str]:
    """Live serve panel: per-route outcomes + accuracy-drift windows."""
    lines: list[str] = ["<h2>Serving</h2>"]
    if access:
        routes: dict[str, dict] = {}
        for record in access:
            entry = routes.setdefault(
                record.get("route", "?"),
                {"count": 0, "errors": 0, "client_errors": 0, "latencies": []},
            )
            entry["count"] += 1
            status = record.get("status", 0)
            if status >= 500:
                entry["errors"] += 1
            elif status >= 400:
                entry["client_errors"] += 1
            entry["latencies"].append(float(record.get("latency_ms", 0.0)))
        lines.append(
            f"<p>{len(access)} requests in the access log.</p><table>"
            "<tr><th>route</th><th>requests</th><th>4xx</th><th>5xx</th>"
            "<th>p50 ms</th><th>p99 ms</th></tr>"
        )
        for route in sorted(routes):
            entry = routes[route]
            ordered = sorted(entry["latencies"])
            p50 = ordered[len(ordered) // 2]
            p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
            css = "bad" if entry["errors"] else "num"
            lines.append(
                "<tr>"
                f"<td><code>{_esc(route)}</code></td>"
                f'<td class="num">{entry["count"]}</td>'
                f'<td class="num">{entry["client_errors"]}</td>'
                f'<td class="{css}">{entry["errors"]}</td>'
                f'<td class="num">{_fmt(p50, 3)}</td>'
                f'<td class="num">{_fmt(p99, 3)}</td>'
                "</tr>"
            )
        lines.append("</table>")
    if drift_pairs:
        windows: dict[tuple, dict] = {}
        for pair in drift_pairs:
            key = (
                pair.get("model", "?"),
                pair.get("version", 0),
                tuple(pair.get("tables", [])),
            )
            entry = windows.setdefault(key, {"q_errors": [], "sources": set()})
            entry["q_errors"].append(float(pair.get("q_error", 0.0)))
            entry["sources"].add(pair.get("source", "?"))
        lines.append(
            f"<h3>Accuracy drift ({len(drift_pairs)} est-vs-actual pairs)</h3>"
            "<table><tr><th>model</th><th>version</th><th>join template</th>"
            "<th>pairs</th><th>median q-error</th><th>max q-error</th>"
            "<th>sources</th></tr>"
        )
        for (model, version, tables), entry in sorted(windows.items()):
            median_q = statistics.median(entry["q_errors"])
            css = "bad" if median_q > 4.0 else "num"
            lines.append(
                "<tr>"
                f"<td>{_esc(model)}</td>"
                f'<td class="num">{_esc(version)}</td>'
                f"<td>{_esc(' ⋈ '.join(tables) or 'single-table')}</td>"
                f'<td class="num">{len(entry["q_errors"])}</td>'
                f'<td class="{css}">{_fmt(median_q, 2)}</td>'
                f'<td class="num">{_fmt(max(entry["q_errors"]), 2)}</td>'
                f"<td>{_esc(', '.join(sorted(entry['sources'])))}</td>"
                "</tr>"
            )
        lines.append("</table>")
    if len(lines) == 1:
        lines.append("<p>No serving traffic recorded yet.</p>")
    return lines


def _metrics_section(manifest: dict) -> list[str]:
    counters = manifest.get("metrics", {}).get("counters", {})
    if not counters:
        return []
    lines = [
        "<h2>Metrics (from manifest)</h2>",
        "<table>",
        "<tr><th>counter</th><th>value</th></tr>",
    ]
    for name in sorted(counters):
        lines.append(
            f'<tr><td><code>{_esc(name)}</code></td>'
            f'<td class="num">{counters[name]:g}</td></tr>'
        )
    lines.append("</table>")
    return lines


# -- assembly -----------------------------------------------------------------


def render_dashboard(
    checkpoint_path: str | Path | None = None,
    events_path: str | Path | None = None,
    manifest_path: str | Path | None = None,
    blame_path: str | Path | None = None,
    serve_access_path: str | Path | None = None,
    serve_drift_path: str | Path | None = None,
    title: str = "repro campaign dashboard",
) -> str:
    """Render the dashboard HTML from whichever artifacts are given."""
    runs = (
        _load_checkpoint_runs(checkpoint_path)
        if checkpoint_path is not None and Path(checkpoint_path).exists()
        else []
    )
    events = (
        obs_events.load_events(events_path) if events_path is not None else []
    )
    campaign = _campaign_from_events(events)
    manifest = (
        load_run_manifest(manifest_path)
        if manifest_path is not None and Path(manifest_path).exists()
        else {}
    )
    blame_payload = (
        obs_blame.load_blame_json(blame_path)
        if blame_path is not None and Path(blame_path).exists()
        else {}
    )
    access_records = read_jsonl(serve_access_path) if serve_access_path is not None else []
    drift_pairs = read_jsonl(serve_drift_path) if serve_drift_path is not None else []

    sources = [
        ("checkpoint", checkpoint_path),
        ("events", events_path),
        ("manifest", manifest_path),
        ("blame", blame_path),
        ("serve access", serve_access_path),
        ("serve drift", serve_drift_path),
    ]
    source_line = ", ".join(
        f"{label}: <code>{_esc(path)}</code>"
        for label, path in sources
        if path is not None
    )

    body: list[str] = [f"<h1>{_esc(title)}</h1>"]
    if source_line:
        body.append(f'<p class="muted">Artifacts — {source_line}</p>')
    if runs or campaign:
        body.extend(_progress_section(runs, campaign))
    body.extend(_runs_section(runs))
    if blame_payload:
        body.extend(_blame_section(blame_payload))
    if access_records or drift_pairs:
        body.extend(_serve_section(access_records, drift_pairs))
    body.extend(_events_section(events))
    if manifest:
        body.extend(_phases_section(manifest))
        body.extend(_metrics_section(manifest))
    if len(body) <= 2:
        body.append("<p>No campaign artifacts found.</p>")
    generated = time.strftime("%Y-%m-%d %H:%M:%S")
    body.append(f'<p class="muted">Generated {generated}.</p>')

    return (
        "<!doctype html>\n<html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>\n"
        "<body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def write_dashboard(
    path: str | Path,
    checkpoint_path: str | Path | None = None,
    events_path: str | Path | None = None,
    manifest_path: str | Path | None = None,
    blame_path: str | Path | None = None,
    serve_access_path: str | Path | None = None,
    serve_drift_path: str | Path | None = None,
    title: str = "repro campaign dashboard",
) -> Path:
    """Render and write the dashboard; returns the output path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        render_dashboard(
            checkpoint_path=checkpoint_path,
            events_path=events_path,
            manifest_path=manifest_path,
            blame_path=blame_path,
            serve_access_path=serve_access_path,
            serve_drift_path=serve_drift_path,
            title=title,
        )
    )
    return path
