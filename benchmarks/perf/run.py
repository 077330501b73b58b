"""The repo's performance benchmark (described by ``BENCHMARK.json``).

    python3 benchmarks/perf/run.py                       # all workloads, one result file
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --compare A.json [A2.json ...] -- B.json [B2.json ...]

One workload run builds its inputs cold from ``--seed``, measures for
``--seconds``, checks every output, prints every metric by name and unit,
and ends with one JSON line.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` halves the timed pass and spends
the other half on a traced pass that attributes the time to layers and
writes ``out/trace-<workload>.jsonl``.  Without ``--workload`` every
workload runs both ways, each run in a fresh child process and never two
at once, and the numbers land in one result file stamped with its
environment.  See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import stamp  # noqa: E402

OUT = HERE / "out"
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> dict:
    """Name -> workload object; imports the program, so it needs ``src/``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    from campaign import Campaign
    from labelling import Labelling
    from serving import Serving

    return {
        "stats-campaign": Campaign(database="stats", pool="stats-ceb"),
        "joblight-campaign": Campaign(database="imdb", pool="job-light"),
        "stats-labelling": Labelling(),
        "serve-estimate": Serving(path="/estimate", clients=2),
        "serve-subplans": Serving(path="/subplans", clients=1),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def undisturbed(rounds: list) -> list:
    """The faster half of a run's rounds.

    Every round does the same work, and a neighbour on the shared box can
    only slow a round down, never speed it up (bursts of 10-35 % lasting
    seconds to minutes were measured).  The end-to-end metrics are taken
    over the half of the rounds that was disturbed least.
    """
    ranked = sorted(rounds, key=lambda r: r.ops / r.seconds, reverse=True)
    return ranked[: math.ceil(len(ranked) / 2)]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_rounds: int = SETUP_ROUNDS,
    out_dir: Path = OUT,
) -> dict:
    """One run of one workload: set up, measure, verify.

    Returns ``correct``, ``attempted``, ``failed``, ``problems`` and every
    metric the run measured (name -> value), end-to-end ones for
    ``trace=False`` and per-layer ones for ``trace=True``.
    """
    workload = workloads()[name]
    from inputs import SetupClock  # imports the program, which workloads() has found

    clocks: list[SetupClock] = []
    built = None
    for _ in range(1 if trace else setup_rounds):
        if built is not None:
            built.close()
            built = None
            gc.collect()
        clocks.append(SetupClock())
        built = workload.setup(seed, clocks[-1])
    try:
        timed = workload.timed(built, seconds / 2 if trace else seconds)
        attempted, failed, problems = workload.verify(built, timed)
        if not trace:
            kept = undisturbed(timed.rounds)
            latencies = sorted(value for r in kept for value in r.latencies)
            metrics = {
                "ops_per_s": statistics.median(r.ops / r.seconds for r in kept),
                "op_p50_ms": percentile(latencies, 0.50) * 1000.0,
                "op_p95_ms": percentile(latencies, 0.95) * 1000.0,
                "setup_s": statistics.median(clock.total for clock in clocks),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            metrics, traced_problems = workload.layers(
                built, seconds / 2, timed, out_dir / f"trace-{name}.jsonl"
            )
            problems += traced_problems
            failed += len(traced_problems)
            metrics.update(workload.setup_layers(built))
            metrics.update(clocks[0].seconds)
            latencies = sorted(value for r in timed.rounds for value in r.latencies)
            metrics["tail.op_p99_ms"] = percentile(latencies, 0.99) * 1000.0
            metrics["run.rounds"] = float(len(timed.rounds))
    finally:
        built.close()
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "rounds": len(timed.rounds),
    }


def declared_metrics(result: dict, trace: bool) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` declares for this kind of run.

    A per-layer metric of a layer the workload does not exercise reads 0.
    """
    declared = spec()["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    return {
        metric["name"]: {
            "value": measured.get(metric["name"], 0.0) if trace else measured[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }


def run_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = declared_metrics(result, bool(args.trace))
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"rounds={result['rounds']}"
    )
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["problems"][:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    described = spec()
    load_start = stamp.load_average()
    results = {}
    exit_code = 0
    for name in (entry["name"] for entry in described["workloads"]):
        entry = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            exit_code = exit_code or done.returncode
            if not lines or not lines[-1].startswith("{"):
                print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
                exit_code = exit_code or 1
                continue
            report = json.loads(lines[-1])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = report["metrics"]
            entry[f"{key}_ops"] = {k: report[k] for k in ("correct", "attempted", "failed")}
            entry[f"{key}_ops"]["rounds"] = int(lines[0].rpartition("rounds=")[2])
        if "end_to_end_ops" in entry:
            ops = entry["end_to_end_ops"]
            entry["failed_share"] = ops["failed"] / ops["attempted"]
        results[name] = entry
    load_end = stamp.load_average()
    document = {
        "schema": 1,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": stamp.environment(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_rounds": SETUP_ROUNDS,
        "load_average": {"start": load_start, "end": load_end},
        "noisy": stamp.noisy(load_start, load_end),
        "repetitions": {
            name: {
                "rounds": entry.get("end_to_end_ops", {}).get("rounds"),
                "ops": entry.get("end_to_end_ops", {}).get("attempted"),
            }
            for name, entry in results.items()
        },
        "workloads": results,
    }
    path = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"# wrote {path}" + (" (noisy: load average above half the CPUs)" if document["noisy"] else ""))
    return exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--compare" in argv:
        from compare import compare

        rest = argv[argv.index("--compare") + 1 :]
        if "--" not in rest or not rest.index("--") or rest[-1] == "--":
            raise SystemExit("usage: --compare A.json [A2.json ...] -- B.json [B2.json ...]")
        split = rest.index("--")
        return compare(rest[:split], rest[split + 1 :], spec())

    described = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in described["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=described["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file of a run over all workloads")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
