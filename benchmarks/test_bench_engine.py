"""Benchmark (extension): the engine fast path — queries/sec by tier.

Times the three execution strategies of ``ServingEngine.run`` on a synthetic
constant-work pool (a near-free backend, so the measurement is the event
loop itself, not a model):

* ``reference`` — the EventHeap loop (``fast_path=False``), the oracle the
  other loops are checked against,
* ``fast``      — numpy arrival buffer + cursor + raw-tuple completion heap
  (the engine's default for a static pool),
* ``shard``     — per-replica independent simulation (round-robin pools).

Each (tier, mode) cell runs in a **fresh subprocess** via
``tools/profile_engine.py``.  Sequential in-process measurement is
systematically unfair to whichever mode runs later: the hundreds of MB of
outcome objects kept alive by earlier runs inflate allocator and cache
pressure enough to halve the later mode's throughput.  A fresh interpreter
per cell (with GC disabled around the timed region, which the harness does
itself) removes the ordering effect.  The subprocesses run through the
``run_quiet`` fixture so conda activation noise from the CI image's login
shell never reaches the bench logs.

Two tiers run on every PR (10k and 1M queries); the 10M tier only runs when
``BENCH_ENGINE_10M=1`` (nightly / local baselining — the reference loop
alone takes minutes there).  The 10k tier also runs all three strategies
in-process and asserts them bit-identical — same outcomes, drops and
per-replica stats — so the speedup is never bought with a behavioral
change; the exhaustive identity evidence lives in the hypothesis property
tests under ``tests/``.

Wall-clock queries/sec land in a fresh JSON which CI diffs against the
committed ``benchmarks/BENCH_engine.json`` via ``regression_gate.py --kind
engine`` (wide tolerance: these are wall times on shared runners, unlike
the deterministic simulation metrics the batching gate checks; the
``fast_speedup`` ratio is the stable signal).
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.metrics import QueryRecord
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.core import poisson_arrivals
from repro.serving.workload import WorkloadGenerator, WorkloadSpec

#: Where the fresh metrics JSON lands (CI diffs it against BENCH_engine.json).
FRESH_JSON = os.environ.get("BENCH_ENGINE_JSON", "benchmark-engine-fresh.json")

REPO_ROOT = Path(__file__).resolve().parents[1]
REPLICAS = 4
RATE_PER_MS = 0.8
SERVICE_MS = 1.2
SEED = 3

#: profile_engine.py's summary line, e.g. "... (231,883 queries/sec; ...".
_QPS_RE = re.compile(r"\(([\d,]+) queries/sec")


class ConstantWorkServer:
    """Near-free backend: constant service, one shared record.

    The engine never reads the record's ``query_index`` (outcomes carry the
    query's own index), so sharing one record is safe and keeps
    ``serve_query`` down to an attribute read — the identity runs then
    exercise the event loop, not record construction.  Mirrors the server
    ``tools/profile_engine.py`` uses for the timed cells.
    """

    __slots__ = ("record",)

    def __init__(self) -> None:
        self.record = QueryRecord(
            query_index=-1,
            accuracy_constraint=0.5,
            latency_constraint_ms=1e9,
            subnet_name="bench-stub",
            served_accuracy=0.9,
            served_latency_ms=SERVICE_MS,
        )

    def serve_query(self, query, *, effective_latency_constraint_ms=None):
        return self.record


def _measure_qps(run_quiet, mode: str, num_queries: int) -> float:
    """queries/sec of one (mode, tier) cell in a fresh interpreter."""
    proc = run_quiet(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "profile_engine.py"),
            "--num-queries", str(num_queries),
            "--replicas", str(REPLICAS),
            "--rate", str(RATE_PER_MS),
            "--service-ms", str(SERVICE_MS),
            "--seed", str(SEED),
            "--mode", mode,
        ],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    match = _QPS_RE.search(proc.stdout)
    assert match, f"no queries/sec in output: {proc.stdout!r}"
    return float(match.group(1).replace(",", ""))


def _tier(run_quiet, num_queries: int) -> dict:
    metrics: dict = {"num_queries": num_queries}
    metrics["reference_qps"] = _measure_qps(run_quiet, "reference", num_queries)
    metrics["fast_qps"] = _measure_qps(run_quiet, "fast", num_queries)
    metrics["shard_qps"] = _measure_qps(run_quiet, "shard", num_queries)
    metrics["fast_speedup"] = metrics["fast_qps"] / metrics["reference_qps"]
    metrics["shard_speedup"] = metrics["shard_qps"] / metrics["reference_qps"]
    return metrics


def _merge_fresh_json(key: str, tier_metrics: dict) -> None:
    """Read-merge-write so the PR tiers and the 10M tier share one file."""
    path = Path(FRESH_JSON)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[key] = tier_metrics
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _show_tier(show, label: str, m: dict) -> None:
    show(
        f"{label}:  reference={m['reference_qps']:,.0f} q/s  "
        f"fast={m['fast_qps']:,.0f} q/s  shard={m['shard_qps']:,.0f} q/s  "
        f"fastx={m['fast_speedup']:.2f}  shardx={m['shard_speedup']:.2f}"
    )


def test_engine_modes_identical_at_10k():
    """The fast and sharded loops are execution strategies, not semantics."""
    gen = WorkloadGenerator(
        WorkloadSpec(num_queries=10_000, pattern="uniform"), seed=SEED
    )
    arrivals = poisson_arrivals(
        10_000, RATE_PER_MS, rng=np.random.default_rng(SEED + 1)
    )
    atrace = gen.generate_array_trace()

    def _run(trace, **kwargs):
        engine = ServingEngine(
            [AcceleratorReplica(ConstantWorkServer()) for _ in range(REPLICAS)],
            admission="drop_expired",
        )
        return engine.run(trace, arrivals, **kwargs)

    ref = _run(gen.generate(), fast_path=False)
    for result in (_run(atrace), _run(atrace, shard=True)):
        assert result.outcomes == ref.outcomes
        assert result.dropped == ref.dropped
        assert result.replica_stats == ref.replica_stats
        assert result.duration_ms == ref.duration_ms


def test_bench_engine_tiers(show, run_quiet):
    m10k = _tier(run_quiet, 10_000)
    m1m = _tier(run_quiet, 1_000_000)

    # The acceptance bar: the fast loop clears 3x the reference loop's
    # throughput at the 1M tier (asserted with margin for runner noise; the
    # committed baseline records the measured ratio).
    assert m1m["fast_speedup"] >= 2.0, m1m

    _merge_fresh_json("q10k", m10k)
    _merge_fresh_json("q1m", m1m)
    _show_tier(show, "q10k", m10k)
    _show_tier(show, "q1m", m1m)


@pytest.mark.skipif(
    os.environ.get("BENCH_ENGINE_10M") != "1",
    reason="10M tier is nightly/local only (set BENCH_ENGINE_10M=1)",
)
def test_bench_engine_10m(show, run_quiet):
    m10m = _tier(run_quiet, 10_000_000)
    assert m10m["fast_speedup"] >= 2.0, m10m
    _merge_fresh_json("q10m", m10m)
    _show_tier(show, "q10m", m10m)


def test_profile_hotspots_smoke(run_quiet):
    """The cProfile path of the harness stays runnable."""
    proc = run_quiet(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "profile_engine.py"),
            "--num-queries", "2000",
            "--mode", "fast",
            "--hotspots", "3",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "queries/sec" in proc.stdout
    assert "_fast_drain" in proc.stdout  # the hotspot listing found the loop
