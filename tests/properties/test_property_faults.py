"""Property-based tests of the fault plane (``serving/engine/faults``).

Three families of properties, over hypothesis-generated workloads:

* **The ``faults: null`` rung** — an engine with no injector, and an
  engine with an *inert* injector (all processes disabled — the runtime
  image of ``FaultSpec()``'s defaults), must both be bit-identical to the
  pre-fault engine: same outcomes, drops, replica stats and duration on
  the reference loop, the fast path and the sharded path.  Equality is
  structural equality of frozen dataclasses over raw floats, so a 1-ulp
  divergence fails.

* **Execution-strategy identity under live faults** — with crashes,
  stragglers and transient dispatch failures actually firing, the fast
  path must still match the reference loop bit for bit: fault injection
  is semantics, the fast path is not.

* **Determinism** — a faulty engine re-run after ``reset()`` (including
  pending fault events, retries in flight at the end of the first run,
  and the injector's RNG position) replays identical records; recording
  the run changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import QueryRecord
from repro.serving.engine import AcceleratorReplica, FaultInjector, ServingEngine
from repro.serving.obs import TraceRecorder
from repro.serving.query import QueryTrace


class IndexedServer:
    """Synthetic backend whose service time is fixed per query index."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, *, effective_latency_constraint_ms=None):
        return QueryRecord(
            query_index=query.index,
            accuracy_constraint=query.accuracy_constraint,
            latency_constraint_ms=query.latency_constraint_ms,
            subnet_name="synthetic",
            served_accuracy=0.78,
            served_latency_ms=self.services_ms[query.index],
        )


positive = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)

workload = st.integers(min_value=2, max_value=25).flatmap(
    lambda n: st.tuples(
        st.lists(positive, min_size=n, max_size=n),  # arrival gaps
        st.lists(positive, min_size=n, max_size=n),  # service times
        st.lists(positive, min_size=n, max_size=n),  # latency constraints
    )
)

disciplines = st.sampled_from(["fifo", "edf", "priority_by_slack"])
routers = st.sampled_from(["round_robin", "jsq", "least_loaded"])
admissions = st.sampled_from(["admit_all", "drop_expired"])

#: Live fault processes aggressive enough to fire inside the short
#: hypothesis workloads (scales are in the same ms units as the gaps).
fault_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=15),
        "crash_mtbf_ms": st.floats(min_value=5.0, max_value=60.0),
        "straggler_mtbf_ms": st.floats(min_value=5.0, max_value=60.0),
        "straggler_duration_ms": st.floats(min_value=0.5, max_value=10.0),
        "straggler_factor": st.floats(min_value=1.0, max_value=5.0),
        "dispatch_failure_prob": st.floats(min_value=0.0, max_value=0.4),
        "max_attempts": st.integers(min_value=1, max_value=4),
        "backoff_base_ms": st.floats(min_value=0.1, max_value=2.0),
    }
)


def build_engine(wl, *, num_replicas, discipline, router, admission, faults=None):
    gaps, services, constraints = wl
    engine = ServingEngine(
        [
            AcceleratorReplica(IndexedServer(services), discipline=discipline)
            for _ in range(num_replicas)
        ],
        router=router,
        admission=admission,
    )
    engine.faults = faults
    return engine


def run_one(wl, *, faults=None, recorder=False, **engine_kwargs):
    gaps, services, constraints = wl
    trace = QueryTrace.from_constraints([0.77] * len(gaps), list(constraints))
    arrivals = np.cumsum(gaps)
    engine = build_engine(wl, faults=faults, **engine_kwargs)
    if recorder:
        engine.recorder = TraceRecorder()
    return engine, engine.run(trace, arrivals)


def assert_identical(result, reference):
    assert result.outcomes == reference.outcomes
    assert result.dropped == reference.dropped
    assert result.replica_stats == reference.replica_stats
    assert result.duration_ms == reference.duration_ms


class TestFaultsNullRung:
    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_inert_injector_is_bit_identical_reference_and_fast(
        self, wl, discipline, router, admission, num_replicas
    ):
        """FaultSpec()'s defaults must cost nothing and change nothing.

        The inert injector forces the fault-aware code path (``_drain``
        with a live ``fi`` over either queue, instead of ``_fast_drain``)
        whose every hook must degenerate to the pre-fault behavior.
        """
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace.from_constraints([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        plain = build_engine(wl, **kwargs).run(trace, arrivals, fast_path=False)
        for fast_path in (False, True):
            inert = build_engine(wl, faults=FaultInjector(), **kwargs)
            assert_identical(
                inert.run(trace, arrivals, fast_path=fast_path), plain
            )
            assert inert.faults.num_crashes == 0
            assert inert.faults.num_dispatch_failures == 0

    @given(workload, disciplines, admissions, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_no_injector_identical_across_all_three_paths(
        self, wl, discipline, admission, num_replicas
    ):
        """With ``faults=None`` every execution strategy still agrees.

        Guards the dispatch changes this layer made to ``run()``: the
        fault-free engine must keep taking the pre-fault fast/shard paths
        bit-identically (shard requires round-robin routing).
        """
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router="round_robin",
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace.from_constraints([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        reference = build_engine(wl, **kwargs).run(
            trace, arrivals, fast_path=False
        )
        fast = build_engine(wl, **kwargs).run(trace, arrivals, fast_path=True)
        shard = build_engine(wl, **kwargs).run(trace, arrivals, shard=True)
        assert_identical(fast, reference)
        assert_identical(shard, reference)

    def test_sharded_run_rejects_live_faults(self):
        wl = ([1.0] * 4, [1.0] * 4, [10.0] * 4)
        gaps, services, constraints = wl
        trace = QueryTrace.from_constraints([0.77] * 4, list(constraints))
        engine = build_engine(
            wl,
            num_replicas=2,
            discipline="fifo",
            router="round_robin",
            admission="admit_all",
            faults=FaultInjector(crash_mtbf_ms=5.0),
        )
        with pytest.raises(ValueError, match="fault"):
            engine.run(trace, np.cumsum(gaps), shard=True)


class TestLiveFaultIdentityAndDeterminism:
    @given(workload, fault_params, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_identical_under_live_faults(
        self, wl, params, discipline, router, admission, num_replicas
    ):
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace.from_constraints([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        reference = build_engine(wl, faults=FaultInjector(**params), **kwargs).run(
            trace, arrivals, fast_path=False
        )
        fast = build_engine(wl, faults=FaultInjector(**params), **kwargs).run(
            trace, arrivals, fast_path=True
        )
        assert_identical(fast, reference)
        assert fast.num_crashes == reference.num_crashes
        assert fast.drop_reasons == reference.drop_reasons

    @given(workload, fault_params, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_reset_replays_faulty_runs_identically(
        self, wl, params, discipline, router, admission, num_replicas
    ):
        engine, first = run_one(
            wl,
            faults=FaultInjector(**params),
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace.from_constraints([0.77] * len(gaps), list(constraints))
        second = engine.run(trace, np.cumsum(gaps))  # reset=True default
        assert_identical(second, first)
        assert second.num_crashes == first.num_crashes

    @given(workload, fault_params, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_recording_changes_nothing_under_faults(
        self, wl, params, discipline, router, admission, num_replicas
    ):
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        _, plain = run_one(wl, faults=FaultInjector(**params), **kwargs)
        engine, observed = run_one(
            wl, faults=FaultInjector(**params), recorder=True, **kwargs
        )
        assert_identical(observed, plain)
        # Every injected fault the run saw is on the trace, every fault
        # kind recorded is a real one.
        trace = observed.trace
        assert trace is not None
        crashes = [f for f in trace.faults if f.kind == "crash"]
        assert len(crashes) == observed.num_crashes
        assert {f.kind for f in trace.faults} <= {
            "crash",
            "straggle",
            "straggle_end",
            "dispatch_failure",
        }
