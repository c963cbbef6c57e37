"""Benchmark (extension): open-loop SLO attainment under increasing load."""

from repro.core.policies import Policy
from repro.serving import ExperimentRunner, build_stack_engine


def test_bench_open_loop_load_sweep(benchmark, show):
    runner = ExperimentRunner("ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=0)
    trace = runner.default_workload(num_queries=150)
    engine = build_stack_engine(runner.sushi)

    def sweep():
        return {
            rate: engine.run_open_loop(trace, arrival_rate_per_ms=rate, seed=0)
            for rate in (0.2, 0.5, 1.0, 2.0)
        }

    results = benchmark(sweep)
    lines = ["Open-loop load sweep (SUSHI, MobileNetV3):"]
    for rate, result in results.items():
        lines.append(
            f"  arrival {rate:.1f}/ms  rho={result.offered_load:.2f}  "
            f"SLO attainment {result.slo_attainment:.2f}  "
            f"mean response {result.mean_response_ms:.2f} ms  "
            f"p99 {result.p99_response_ms:.2f} ms"
        )
    show("\n".join(lines))
    # Higher load can only hurt SLO attainment.
    attainments = [results[r].slo_attainment for r in sorted(results)]
    assert all(a >= b - 1e-9 for a, b in zip(attainments, attainments[1:]))
