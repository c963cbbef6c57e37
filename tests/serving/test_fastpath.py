"""The engine's fast loops are execution strategies, not semantics changes.

By default ``ServingEngine.run`` walks the arrival buffer with a cursor
(plus a raw-tuple completion heap for static pools, or the array event
queue for pools with an autoscaler); ``fast_path=False`` requests the
reference EventHeap loop, and ``shard=True`` simulates each replica's
arrival sub-stream independently.  Everything observable — outcomes, drops,
per-replica stats, run duration, and with an autoscaler the full scaling
report — must be bit-identical to the reference loop.  These tests pin that
contract across disciplines, routers, admission policies, batching,
autoscaled pools and multiprocess sharding, plus the spec/CLI surface
(``fast_path`` as an ignored hint, ``shard``/``shard_workers``,
``repro run --profile``).
"""

from __future__ import annotations

import multiprocessing
import sys

import numpy as np
import pytest

from repro.core.metrics import QueryRecord
from repro.serving import ArrayQueryTrace, api
from repro.serving.api import build_engine, build_trace, run_scenario
from repro.serving.autoscale import AutoscaleController
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.spec import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.serving.workload import WorkloadGenerator
from repro.serving.workload import WorkloadSpec as GenWorkloadSpec


class IndexedServer:
    """Synthetic backend with per-query-index service times (picklable)."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, *, effective_latency_constraint_ms=None):
        return QueryRecord(
            query_index=query.index,
            accuracy_constraint=query.accuracy_constraint,
            latency_constraint_ms=query.latency_constraint_ms,
            subnet_name="synthetic",
            served_accuracy=0.78,
            served_latency_ms=self.services_ms[query.index % len(self.services_ms)],
        )


def make_workload(n, *, seed=0, rate_per_ms=0.6):
    """(reference trace, array trace, arrivals, service table) for one run.

    Both traces come from the same seeded generator, so they describe the
    *same* queries — one eagerly materialized, one lazily array-backed.
    """
    gen = WorkloadGenerator(
        GenWorkloadSpec(num_queries=n, pattern="uniform"), seed=seed
    )
    trace = gen.generate()
    atrace = gen.generate_array_trace()
    rng = np.random.default_rng(seed + 1)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_per_ms, size=n))
    services = rng.uniform(0.5, 6.0, size=n).tolist()
    return trace, atrace, arrivals, services


def make_engine(services, *, num_replicas=3, discipline="fifo",
                router="round_robin", admission="admit_all", max_batch=1,
                autoscaler=None):
    replicas = [
        AcceleratorReplica(
            IndexedServer(services), discipline=discipline, max_batch=max_batch
        )
        for _ in range(num_replicas)
    ]
    return ServingEngine(
        replicas, router=router, admission=admission, autoscaler=autoscaler
    )


def assert_identical(result, ref):
    assert result.outcomes == ref.outcomes
    assert result.dropped == ref.dropped
    assert result.replica_stats == ref.replica_stats
    assert result.duration_ms == ref.duration_ms
    assert result.num_served == ref.num_served
    assert result.num_dropped == ref.num_dropped


# -------------------------------------------------------- fast path identity
class TestFastPathIdentity:
    @pytest.mark.parametrize("discipline", ["fifo", "edf", "priority_by_slack"])
    @pytest.mark.parametrize("router", ["round_robin", "jsq", "least_loaded"])
    @pytest.mark.parametrize("admission", ["admit_all", "drop_expired"])
    def test_matches_reference_across_policies(self, discipline, router, admission):
        trace, atrace, arrivals, services = make_workload(600, seed=11)
        kw = dict(discipline=discipline, router=router, admission=admission)
        ref = make_engine(services, **kw).run(trace, arrivals, fast_path=False)
        fast = make_engine(services, **kw).run(atrace, arrivals)
        assert_identical(fast, ref)

    def test_accepts_reference_trace_type(self):
        """The fast loop does not require an ArrayQueryTrace."""
        trace, _, arrivals, services = make_workload(200, seed=5)
        ref = make_engine(services).run(trace, arrivals, fast_path=False)
        fast = make_engine(services).run(trace, arrivals)
        assert_identical(fast, ref)

    def test_matches_reference_with_batching(self):
        trace, atrace, arrivals, services = make_workload(500, seed=7, rate_per_ms=1.5)
        kw = dict(max_batch=4, admission="drop_expired", discipline="edf")
        ref = make_engine(services, **kw).run(trace, arrivals, fast_path=False)
        fast = make_engine(services, **kw).run(atrace, arrivals)
        assert_identical(fast, ref)

    def test_matches_reference_with_autoscaler(self):
        """With a control plane the engine drains an ArrayEventQueue."""

        def scaled(fast_path):
            trace, atrace, arrivals, services = make_workload(
                800, seed=3, rate_per_ms=1.2
            )
            ctl = AutoscaleController(
                "reactive",
                control_interval_ms=25.0,
                min_replicas=1,
                max_replicas=6,
                startup_delay_ms=30.0,
                replica_factory=lambda pos: AcceleratorReplica(
                    IndexedServer(services), discipline="edf"
                ),
            )
            engine = make_engine(
                services, num_replicas=1, discipline="edf", router="jsq",
                admission="drop_expired", autoscaler=ctl,
            )
            use = atrace if fast_path else trace
            return engine.run(use, arrivals, fast_path=fast_path)

        ref = scaled(fast_path=False)
        fast = scaled(fast_path=True)
        assert_identical(fast, ref)
        assert ref.autoscale is not None
        assert fast.autoscale == ref.autoscale
        # The run exercised actual scaling, not a degenerate flat pool.
        assert ref.autoscale.num_scale_ups > 0


# ---------------------------------------------------------- sharded identity
class TestShardedIdentity:
    def test_matches_reference_sequential(self):
        trace, atrace, arrivals, services = make_workload(700, seed=13)
        kw = dict(num_replicas=4, admission="drop_expired", discipline="edf")
        ref = make_engine(services, **kw).run(trace, arrivals, fast_path=False)
        shard = make_engine(services, **kw).run(atrace, arrivals, shard=True)
        assert_identical(shard, ref)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="multiprocess sharding needs fork",
    )
    def test_matches_reference_multiprocess(self):
        trace, atrace, arrivals, services = make_workload(700, seed=13)
        kw = dict(num_replicas=4, admission="drop_expired", discipline="edf")
        ref = make_engine(services, **kw).run(trace, arrivals, fast_path=False)
        shard = make_engine(services, **kw).run(
            atrace, arrivals, shard=True, shard_workers=2
        )
        assert_identical(shard, ref)

    def test_rejects_load_aware_router(self):
        _, atrace, arrivals, services = make_workload(50)
        engine = make_engine(services, router="jsq")
        with pytest.raises(ValueError, match="round_robin"):
            engine.run(atrace, arrivals, shard=True)

    def test_rejects_autoscaler(self):
        _, atrace, arrivals, services = make_workload(50)
        ctl = AutoscaleController(
            "reactive",
            control_interval_ms=25.0,
            replica_factory=lambda pos: AcceleratorReplica(IndexedServer([1.0])),
        )
        engine = make_engine(services, num_replicas=1, autoscaler=ctl)
        with pytest.raises(ValueError, match="autoscaler"):
            engine.run(atrace, arrivals, shard=True)

    def test_rejects_bad_worker_count(self):
        _, atrace, arrivals, services = make_workload(50)
        engine = make_engine(services)
        with pytest.raises(ValueError, match="shard_workers"):
            engine.run(atrace, arrivals, shard=True, shard_workers=0)


# ------------------------------------------------------------- spec and API
def scenario(**overrides):
    fields = dict(
        name="fastpath-test",
        supernet_name="ofa_mobilenetv3",
        replica_groups=(ReplicaGroupSpec(count=2, discipline="edf"),),
        router="round_robin",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=120, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.8, seed=1),
        seed=1,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def run_reference(spec):
    """``run_scenario(spec)`` on the reference EventHeap loop."""
    cache: dict = {}
    trace = build_trace(spec, stack_cache=cache)
    engine = build_engine(spec, trace=trace, stack_cache=cache)
    return engine.run(
        trace,
        spec.arrivals.generate(len(trace)),
        arrival_rate_per_ms=spec.arrivals.nominal_rate_per_ms(),
        fast_path=False,
    )


class TestSpecKnobs:
    def test_knobs_round_trip_exactly(self):
        spec = scenario(fast_path=True, shard=True, shard_workers=2)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()
        d = spec.to_dict()
        assert d["fast_path"] is True
        assert d["shard"] is True
        assert d["shard_workers"] == 2

    def test_shard_requires_round_robin(self):
        with pytest.raises(ValueError, match="round_robin"):
            scenario(shard=True, router="jsq")

    def test_shard_workers_requires_shard(self):
        with pytest.raises(ValueError, match="shard_workers"):
            scenario(shard_workers=2)

    def test_build_trace_materializes_lazily_for_fast_specs(self):
        assert isinstance(build_trace(scenario()), ArrayQueryTrace)
        assert isinstance(build_trace(scenario(fast_path=True)), ArrayQueryTrace)
        assert isinstance(build_trace(scenario(shard=True)), ArrayQueryTrace)

    def test_run_scenario_fast_and_shard_match_reference(self):
        ref = run_reference(scenario())
        fast = run_scenario(scenario())
        shard = run_scenario(scenario(shard=True))
        for result in (fast, shard):
            assert_identical(result, ref)

    def test_fast_path_field_is_an_ignored_hint(self, monkeypatch):
        """``fast_path: true`` and ``false`` specs run the same engine loop."""
        built = []

        def recording_build_trace(spec, **kwargs):
            built.append(build_trace(spec, **kwargs))
            return built[-1]

        monkeypatch.setattr(api, "build_trace", recording_build_trace)
        on = run_scenario(scenario(fast_path=True))
        off = run_scenario(scenario(fast_path=False))
        assert_identical(off, on)
        assert len(built) == 2
        assert all(isinstance(trace, ArrayQueryTrace) for trace in built)


# ----------------------------------------------------------------- CLI knob
class TestCliProfile:
    def test_run_profile_dumps_stats_and_hotspots(self, tmp_path, capsys):
        from repro.cli import main

        stats = tmp_path / "fig02.pstats"
        assert main(["run", "fig02", "--profile", str(stats)]) == 0
        out = capsys.readouterr().out
        assert stats.exists() and stats.stat().st_size > 0
        assert "top 10 by cumulative time" in out

        import pstats

        loaded = pstats.Stats(str(stats))
        assert loaded.total_calls > 0  # real profile data, not an empty dump

    def test_run_profile_unwritable_path_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "no" / "such" / "dir" / "out.pstats"
        assert main(["run", "fig02", "--profile", str(bad)]) == 2
        assert "cannot write" in capsys.readouterr().err
