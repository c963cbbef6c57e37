"""Property-based test of the shared SushiAbs breakdown tensor.

Every SUSHI replica group of one engine build shares one lazily filled
``(subnet_idx, candidate_idx)`` → breakdown tensor among its build-time
replicas and its autoscaler scale-up clones.  Sharing is an optimization,
never semantics: over random scenarios — static, batched, autoscaled and
faulty pools — the records, drops, replica stats and per-replica PB byte
statistics must be bit-identical to the same run with a private tensor per
replica, on the engine's default loop and on the reference ``EventHeap``
loop alike.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.serving import ScenarioSpec, SushiStack, SushiStackConfig
from repro.serving.api import build_engine, build_trace

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
BASES = {
    name: ScenarioSpec.from_json((SCENARIOS / f"{name}.json").read_text())
    for name in ("poisson_pool", "batched_pool", "autoscale_pool", "faulty_pool")
}

# Template stacks are only ever cloned, so one cache serves every example.
_STACK_CACHE: dict[SushiStackConfig, SushiStack] = {}


@st.composite
def scenarios(draw):
    spec = BASES[draw(st.sampled_from(sorted(BASES)))]
    overrides = [
        ("num_queries", draw(st.integers(min_value=10, max_value=160))),
        ("seed", draw(st.integers(min_value=0, max_value=50))),
        ("arrivals.seed", draw(st.integers(min_value=0, max_value=50))),
        ("router", draw(st.sampled_from(["round_robin", "jsq", "least_loaded"]))),
    ]
    if spec.faults is not None:
        overrides.append(
            ("faults.crash_mtbf_ms", draw(st.floats(min_value=20.0, max_value=400.0)))
        )
    return spec.override_many(overrides)


def private_clone(clone):
    """``SushiStack.clone`` ignoring any shared tensor: one per replica."""

    def clone_privately(self, *, seed=None, breakdowns=None):
        return clone(self, seed=seed)

    return clone_privately


def run(spec: ScenarioSpec, *, fast_path: bool, shared: bool):
    with mock.patch.object(
        SushiStack, "clone", SushiStack.clone if shared else private_clone(SushiStack.clone)
    ):
        trace = build_trace(spec, stack_cache=_STACK_CACHE)
        engine = build_engine(spec, trace=trace, stack_cache=_STACK_CACHE)
        result = engine.run(
            trace,
            spec.arrivals.generate(len(trace)),
            arrival_rate_per_ms=spec.arrivals.nominal_rate_per_ms(),
            fast_path=fast_path,
        )
    tensors = {id(r.server.breakdowns) for r in engine.replicas}
    pb_stats = [r.server.pb.stats for r in engine.replicas]
    return result, tensors, pb_stats


@given(scenarios(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_shared_tensor_is_bit_identical_to_private_tensors(spec, fast_path):
    shared, shared_tensors, shared_pb = run(spec, fast_path=fast_path, shared=True)
    private, private_tensors, private_pb = run(spec, fast_path=fast_path, shared=False)

    assert len(shared_tensors) == 1
    assert len(private_tensors) == len(private_pb)
    assert shared.outcomes == private.outcomes
    assert shared.dropped == private.dropped
    assert shared.replica_stats == private.replica_stats
    assert shared.duration_ms == private.duration_ms
    assert shared.num_crashes == private.num_crashes
    assert shared_pb == private_pb
