"""Workloads, output checks and measurements of the serving benchmark.

A workload is a committed scenario (``scenarios/``) with the overrides
listed in ``workloads.json``.  One benchmark seed expands into
:data:`EPISODES` scenario seeds (``seed * EPISODES + j``), each overriding
the scenario's ``seed``, ``arrivals.seed`` and ``faults.seed``; the
simulated metrics pool every episode of a run.

Host time is process CPU time: the simulator is single-threaded, and CPU
time does not count the time other processes hold the machine's cores.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serving import api  # noqa: E402
from repro.serving.spec import ScenarioSpec  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPAN_DIR = ROOT / ".perfbench-out"
CLOCK = time.process_time
EPISODES = 4
SETUP_PROBES = 8
#: Largest share of a traced run's wall time allowed to lie in no layer.
UNATTRIBUTED_LIMIT = 0.05
WARMUP_QUERIES = 2000


def load_workloads() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def load_reference() -> dict:
    """Record digests and work counters at ``committed_seed``."""
    return json.loads((BENCH_DIR / "reference.json").read_text())


def metric_specs(kind: str) -> dict[str, dict]:
    """The ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json`` by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def episode_specs(workload: dict, seed: int) -> list[ScenarioSpec]:
    """The scenario of every episode one benchmark seed expands into."""
    base = ScenarioSpec.from_json((BENCH_DIR / workload["scenario"]).read_text())
    base = base.override_many(list(workload["overrides"].items()))
    specs = []
    for j in range(EPISODES):
        s = seed * EPISODES + j
        paths = [("seed", s), ("arrivals.seed", s)]
        if base.faults is not None:
            paths.append(("faults.seed", s))
        specs.append(base.override_many(paths))
    return specs


# ---------------------------------------------------------------- checks
def digest(result) -> str:
    """SHA-256 over every outcome and drop record, floats at full precision."""
    h = hashlib.sha256()
    for o in result.outcomes:
        r = o.record
        h.update(
            repr(
                (
                    o.query_index,
                    o.arrival_ms,
                    o.start_ms,
                    o.service_ms,
                    o.latency_constraint_ms,
                    o.served_accuracy,
                    o.replica_index,
                    o.batch_size,
                    r.subnet_name,
                    r.served_latency_ms,
                    r.cache_hit_ratio,
                    r.offchip_energy_mj,
                    r.cache_load_ms,
                )
            ).encode()
        )
    for d in result.dropped:
        h.update(
            repr(
                (
                    d.query_index,
                    d.arrival_ms,
                    d.dropped_at_ms,
                    d.latency_constraint_ms,
                    d.replica_index,
                    d.reason,
                )
            ).encode()
        )
    return h.hexdigest()


def check(result, offered: int) -> list[str]:
    """Conservation problems of one run (empty when the run is sound)."""
    problems = []
    if result.num_served + result.num_dropped != offered:
        problems.append(
            f"served {result.num_served} + dropped {result.num_dropped} "
            f"!= offered {offered}"
        )
    seen = np.zeros(offered, dtype=np.int64)
    indices = [o.query_index for o in result.outcomes]
    indices += [d.query_index for d in result.dropped]
    idx = np.asarray(indices, dtype=np.int64)
    outside = (idx < 0) | (idx >= offered)
    if outside.any():
        problems.append(f"{int(outside.sum())} query indices outside [0, {offered})")
    np.add.at(seen, idx[~outside], 1)
    if (seen != 1).any():
        problems.append(
            f"{int((seen == 0).sum())} queries missing, "
            f"{int((seen > 1).sum())} recorded more than once"
        )
    if any(o.start_ms < o.arrival_ms or o.service_ms <= 0 for o in result.outcomes):
        problems.append("a served query started before it arrived or took no time")
    return problems


@dataclass
class Serving:
    """Simulated serving quality pooled over the episodes of one run."""

    offered: int = 0
    dropped: int = 0
    met: int = 0
    replica_seconds: float = 0.0
    responses: list[np.ndarray] = field(default_factory=list)
    accuracies: list[np.ndarray] = field(default_factory=list)

    def add(self, result) -> None:
        outcomes = result.outcomes
        self.offered += result.num_offered
        self.dropped += result.num_dropped
        self.met += sum(o.meets_slo for o in outcomes)
        self.replica_seconds += result.weighted_replica_seconds
        self.responses.append(
            np.fromiter((o.response_ms for o in outcomes), float, len(outcomes))
        )
        self.accuracies.append(
            np.fromiter((o.served_accuracy for o in outcomes), float, len(outcomes))
        )

    def metrics(self) -> dict[str, float]:
        responses = np.concatenate(self.responses)
        p50, p99, p999 = np.percentile(responses, [50, 99, 99.9])
        return {
            "slo_attainment": self.met / self.offered,
            "served_accuracy_pct": 100.0 * float(np.concatenate(self.accuracies).mean()),
            "response_mean_ms": float(responses.mean()),
            "response_p50_ms": float(p50),
            "response_p99_ms": float(p99),
            "response_p999_ms": float(p999),
            "response_samples": len(responses),
            "replica_seconds": self.replica_seconds,
            "served_fraction": 1.0 - self.dropped / self.offered,
            "drop_rate": self.dropped / self.offered,
        }


@dataclass
class Report:
    """Everything one benchmark run prints."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def record(self, offered: int, problems: list[str]) -> None:
        """Account one simulated run: a failed check fails all its queries."""
        self.attempted += offered
        if problems:
            self.failed += offered
            self.problems.extend(problems)


def _run(spec: ScenarioSpec, cache: dict):
    """One ``run_scenario`` call: ``(result, cpu seconds, wall seconds)``."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), CLOCK()
    result = api.run_scenario(spec, stack_cache=cache)
    return result, CLOCK() - cpu0, time.perf_counter() - wall0


def _warm(specs: list[ScenarioSpec], cache: dict) -> None:
    """Fill the stack cache and run a short scenario so nothing is cold."""
    for spec in specs:
        api.build_engine(spec, stack_cache=cache)
    n = min(WARMUP_QUERIES, specs[0].num_queries or WARMUP_QUERIES)
    api.run_scenario(specs[0].override("num_queries", n), stack_cache=cache)


def _reference_problems(name: str, seed: int, index: int, got: str) -> list[str]:
    """A digest that differs from the recorded one at the committed seed."""
    reference = load_reference()
    if seed != reference["committed_seed"]:
        return []
    want = reference["workloads"][name]["digests"][index]
    if got != want:
        return [f"episode {index} digest {got[:12]} != reference {want[:12]}"]
    return []


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(name: str, seed: int) -> float:
    """Median CPU seconds of a fresh process that imports the stack and
    builds the workload's stack cache from cold (``setup_probe.py``)."""
    times = []
    for _ in range(SETUP_PROBES):
        before = _children_cpu()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            timeout=120,
            check=True,
        )
        times.append(_children_cpu() - before)
    return statistics.median(times)


# ------------------------------------------------------------ timed runs
def measure(name: str, seed: int, seconds: float) -> Report:
    """End-to-end metrics: whole cycles over every episode, tracing off.

    The first cycle is checked and gives the simulated metrics; later cycles
    must reproduce its digests.  A cycle starts only while the previous
    one still fits in the time left, so a run measures about ``seconds``.
    ``sim_qps`` is the queries of one cycle over the sum, across episodes,
    of each episode's median CPU seconds: the episodes' costs differ by
    seed, so every one counts once, and the median drops the runs a busy
    host slowed down.
    """
    report = Report(name, seed, trace=False)
    specs = episode_specs(load_workloads()[name], seed)
    report.metrics["setup_s"] = setup_seconds(name, seed)
    cache: dict = {}
    _warm(specs, cache)

    serving = Serving()
    digests: list[str] = []
    episode_cpu: list[list[float]] = [[] for _ in specs]
    cycle_cpu: list[float] = []
    cycle_wall: list[float] = []
    start = time.perf_counter()
    while not cycle_wall or (
        time.perf_counter() - start + cycle_wall[-1] <= seconds
    ):
        cpu_total = wall_total = 0.0
        for j, spec in enumerate(specs):
            result, cpu, wall = _run(spec, cache)
            episode_cpu[j].append(cpu)
            cpu_total += cpu
            wall_total += wall
            problems = check(result, spec.num_queries)
            got = digest(result)
            if not cycle_wall:
                serving.add(result)
                digests.append(got)
                problems += _reference_problems(name, seed, j, got)
            elif got != digests[j]:
                problems.append(f"episode {j} repeat digest differs from its first run")
            report.record(spec.num_queries, problems)
            del result
        cycle_cpu.append(cpu_total)
        cycle_wall.append(wall_total)

    queries = sum(spec.num_queries for spec in specs)
    report.metrics.update(serving.metrics())
    report.metrics["sim_qps"] = queries / sum(statistics.median(c) for c in episode_cpu)
    report.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report.notes += [
        f"{len(cycle_cpu)} timed cycles of {len(specs)} episode(s); wall-clock qps "
        f"{queries * len(cycle_wall) / sum(cycle_wall):.1f}",
        "qps per cycle " + " ".join(f"{queries / c:.0f}" for c in cycle_cpu),
        f"response_p999_ms rests on {report.metrics['response_samples']} samples "
        f"({int(report.metrics['response_samples'] * 0.001)} beyond it)",
        "digests " + " ".join(d[:12] for d in digests),
    ]
    return report


# ------------------------------------------------------------ traced runs
def counters(tracer: Tracer, result) -> dict[str, int]:
    """Exact work counters of one traced run."""
    reasons = result.drop_reasons
    scaling = result.autoscale
    return {
        "routing.selects": tracer.count("routing.select"),
        "stack.serves": tracer.count("stack.serve"),
        "stack.clones": tracer.count("stack.clone"),
        "sched.calls": tracer.count("sched.schedule_shared"),
        "sched.cache_updates": tracer.cache_updates,
        "table.lookups": tracer.count("table.lookup"),
        "accel.evals": tracer.count("accel.subnet_breakdown"),
        "accel.distinct_pairs": len(tracer.eval_pairs),
        "pb.loads": tracer.count("pb.load"),
        "pb.load_bytes": tracer.load_bytes,
        "autoscale.decisions": tracer.count("autoscale.decide_pool"),
        "autoscale.scale_ups": 0 if scaling is None else scaling.num_scale_ups,
        "autoscale.scale_downs": 0 if scaling is None else scaling.num_scale_downs,
        "autoscale.peak_replicas": 0 if scaling is None else scaling.peak_replicas,
        "obs.events": tracer.count("obs.event"),
        "faults.crashes": result.num_crashes,
        "faults.failed_drops": reasons.get("failed", 0),
        "faults.shed_drops": reasons.get("shed", 0),
        "engine.expired_drops": reasons.get("deadline_expired", 0),
    }


def counter_regressions(reference: dict[str, int], current: dict[str, int]) -> list[str]:
    """Counters, lower-is-better in ``BENCHMARK.json``, that rose against the reference."""
    lower = {n for n, m in metric_specs("per_layer").items() if m["better"] == "lower"}
    return [
        f"{key} {value} -> {current[key]}"
        for key, value in reference.items()
        if key in lower and current[key] > value
    ]


def _pb_hit_ratio(engine) -> float:
    """Byte hit ratio summed over the PBs of every replica the run created."""
    hits = served = 0
    for replica in engine.replicas:
        stats = replica.server.pb.stats
        hits += stats.hit_bytes_total
        served += stats.served_weight_bytes_total
    return hits / served


def traced_run(spec: ScenarioSpec, cache: dict, tracer: Tracer):
    """One traced run: ``(result, wall seconds, exact counters, self times)``.

    The counters add the run's simulated per-layer figures, which repeat
    exactly as well; the self times are per layer (``<layer>.self_s``) plus
    the sub-layer figures the benchmark reports, each layer's share of
    their sum, the calibrated wrapper cost over the rest of the wall time
    (``trace.span_overhead_share``) and the share of the wall time no layer
    and no wrapper accounts for (``trace.unattributed_share``: the root
    span's glue and the time outside it).
    """
    tracer.clear()
    gc.collect()
    with tracer.installed():
        wall0 = time.perf_counter()
        result = api.run_scenario(spec, stack_cache=cache)
        wall = time.perf_counter() - wall0
    found: dict[str, float] = counters(tracer, result)
    found["pb.byte_hit_ratio"] = _pb_hit_ratio(tracer.engines[-1])
    found["engine.queue_wait_mean_ms"] = result.mean_queueing_ms
    found["engine.batch_occupancy"] = result.mean_batch_occupancy
    spans = tracer.self_times()
    layers = tracer.layer_self_times()
    layer_sum = sum(layers[layer] for layer in LAYERS)
    overhead = tracer.overhead_seconds()
    times = {f"{k}.self_s": v for k, v in layers.items()}
    times.update({f"{k}.share": layers[k] / layer_sum for k in LAYERS})
    times["trace.span_overhead_share"] = overhead / (wall - overhead)
    times["trace.unattributed_share"] = (wall - overhead - sum(layers.values())) / wall
    times["api.trace_build_s"] = spans["api.build_trace"] + spans["api.arrivals"]
    times["api.engine_build_s"] = spans["api.build_engine"]
    times["stack.clone_s"] = spans["stack.clone"]
    return result, wall, found, times


def measure_traced(name: str, seed: int, seconds: float) -> Report:
    """Per-layer metrics: traced runs of the first episode, against untraced ones."""
    report = Report(name, seed, trace=True)
    spec = episode_specs(load_workloads()[name], seed)[0]
    offered = spec.num_queries
    tracer = Tracer()
    tracer.calibrate()
    cache: dict = {}
    with tracer.installed():
        api.build_engine(spec, stack_cache=cache)
    setup = {
        "setup.accel_evals": tracer.count("accel.subnet_breakdown"),
        "setup.table_build_s": tracer.inclusive_time("setup.table_build"),
    }
    _warm([spec], cache)

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    time_runs: list[dict[str, float]] = []
    first: dict[str, float] = {}
    first_digest = ""
    start = time.perf_counter()
    while (
        len(traced_walls) < 2
        or len(plain_walls) < 2
        or time.perf_counter() - start < seconds
    ):
        traced = len(traced_walls) < len(plain_walls)
        if traced:
            result, wall, found, times = traced_run(spec, cache, tracer)
        else:
            result, _, wall = _run(spec, cache)
        problems = check(result, offered)
        got = digest(result)
        if not first_digest:
            first_digest = got
            problems += _reference_problems(name, seed, 0, got)
        elif got != first_digest:
            problems.append("a repeat (traced or not) changed the records")
        if traced:
            if times["trace.unattributed_share"] > UNATTRIBUTED_LIMIT:
                problems.append(
                    f"{times['trace.unattributed_share']:.1%} of the traced wall "
                    f"{wall:.4f} s lies in no layer"
                )
            if not first:
                first = found
            elif found != first:
                diff = sorted(k for k in found if found[k] != first[k])
                problems.append(f"work counters differ between traced runs: {diff}")
            traced_walls.append(wall)
            time_runs.append(times)
        else:
            plain_walls.append(wall)
        report.record(offered, problems)
        del result

    tracer.write(SPAN_DIR / f"spans-{name}.npz")
    m = report.metrics
    m.update(setup)
    m.update(first)
    for key in time_runs[0]:
        m[key] = statistics.median(run[key] for run in time_runs)
    m["accel.useful_ratio"] = m["accel.distinct_pairs"] / m["accel.evals"]
    m["trace.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    reference = load_reference()
    if seed == reference["committed_seed"]:
        rose = counter_regressions(reference["workloads"][name]["counters"], first)
        report.notes.append(
            "work counters vs reference: " + ("; ".join(rose) if rose else "none rose")
        )
    report.notes.append(
        f"{len(traced_walls)} traced and {len(plain_walls)} untraced runs of "
        f"episode 0; spans of the last traced run in {SPAN_DIR.name}/spans-{name}.npz"
    )
    return report
