"""Serving benchmark: committed SUSHI scenarios through ``run_scenario``.

One run::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 22 --trace 0

measures one workload and prints every metric by name with its unit, then,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` from untraced runs; ``--trace 1`` reports the per-layer
metrics from separate traced runs.  An operation is one offered simulated
query; the queries of a run that raises or fails its output check count as
failed, and the command then exits with 1.

Every workload, both modes, and the baseline table (``sim_qps`` and the
largest layer shares per workload)::

    python3 perfbench/run.py --workload all --seed 1

The workloads are defined in ``workloads.json`` (each one's reason to
exist is its ``why`` in ``BENCHMARK.json``); ``reference.json`` holds the
committed seed and the record digests and work counters at it, written by
``record_reference.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Figures printed for reading but not gated by ``BENCHMARK.json``.
EXTRA_UNITS = {
    "response_p50_ms": "sim_ms",
    "response_p999_ms": "sim_ms",
    "response_samples": "count",
    "drop_rate": "fraction",
}


def _print_report(report, units: dict[str, str]) -> None:
    print(
        f"perfbench {report.workload} seed={report.seed} trace={int(report.trace)} "
        f"correct={report.correct} attempted={report.attempted} failed={report.failed}"
    )
    for name, unit in {**units, **EXTRA_UNITS}.items():
        if name in report.metrics:
            print(f"  {name:28s} {report.metrics[name]:>16.6g}  {unit}")
    for note in report.notes:
        print(f"  note: {note}")
    for problem in report.problems:
        print(f"  CHECK FAILED: {problem}")


def run_one(args: argparse.Namespace) -> int:
    import bench

    config = bench.load_workloads()
    if args.workload not in config:
        print(f"unknown workload {args.workload!r}; have {sorted(config)}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {name: m["unit"] for name, m in bench.metric_specs(kind).items()}
    try:
        measure = bench.measure_traced if args.trace else bench.measure
        report = measure(args.workload, args.seed, args.seconds)
    except Exception:  # a crashed run is reported as failed, not as a result
        traceback.print_exc()
        offered = config[args.workload]["overrides"]["num_queries"] * bench.EPISODES
        print(json.dumps({"correct": False, "attempted": offered, "failed": offered, "metrics": {}}))
        return 1
    _print_report(report, units)
    metrics = {
        name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if report.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, each in its own process, then the table."""
    import bench

    status = 0
    rows = []
    for name in bench.load_workloads():
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    str(BENCH_DIR / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=600,
            )
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            results[trace] = json.loads(lines[-1])["metrics"]
        if len(results) == 2:
            rows.append((name, results[0], results[1]))
    print()
    print("| Workload | sim_qps (queries / CPU s) | Largest layer shares (traced) |")
    print("|---|---|---|")
    for name, e2e, layers in rows:
        shares = sorted(
            ((key[: -len(".share")], m["value"]) for key, m in layers.items() if key.endswith(".share")),
            key=lambda item: -item[1],
        )
        top = ", ".join(f"{layer} {share:.0%}" for layer, share in shares[:4])
        print(f"| `{name}` | {e2e['sim_qps']['value']:.0f} | {top} |")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
