"""Unit/integration tests for the SUSHI stack and baseline servers."""

import dataclasses

import pytest

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import PBStats
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.policies import Policy
from repro.serving.baselines import NoSushiServer, StateUnawareCachingServer
from repro.serving.query import QueryTrace
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec
from repro.supernet.accuracy import AccuracyModel


class CountingAccel:
    """Accelerator proxy counting ``subnet_breakdown`` evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def subnet_breakdown(self, *args, **kwargs):
        self.calls += 1
        return self.inner.subnet_breakdown(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="module")
def trace():
    spec = WorkloadSpec(
        num_queries=40, accuracy_range=(0.758, 0.803), latency_range_ms=(0.3, 2.0)
    )
    return WorkloadGenerator(spec, seed=11).generate()


@pytest.fixture(scope="module")
def stack():
    return SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY,
            cache_update_period=4, seed=0,
        )
    )


class TestSushiStack:
    def test_serve_produces_record_per_query(self, stack, trace):
        stack.reset()
        records = stack.serve(trace)
        assert len(records) == len(trace)

    def test_records_have_positive_latency(self, stack, trace):
        stack.reset()
        for r in stack.serve(trace):
            assert r.served_latency_ms > 0
            assert 0.0 <= r.cache_hit_ratio <= 1.0

    def test_strict_accuracy_always_met(self, stack, trace):
        stack.reset()
        records = stack.serve(trace)
        assert all(r.served_accuracy >= r.accuracy_constraint - 1e-9 for r in records)

    def test_cache_hit_ratio_grows_with_serving(self, stack, trace):
        stack.reset()
        stack.serve(trace)
        assert stack.cache_hit_ratio > 0.0

    def test_reset_restores_fresh_state(self, stack, trace):
        stack.reset()
        first = stack.serve(trace)
        stack.reset()
        second = stack.serve(trace)
        assert [r.subnet_name for r in first] == [r.subnet_name for r in second]
        assert [r.served_latency_ms for r in first] == pytest.approx(
            [r.served_latency_ms for r in second]
        )

    def test_pb_capacity_respected(self, stack):
        assert stack.pb.occupancy_bytes <= stack.pb.capacity_bytes

    def test_window_memo_is_bit_identical_to_unmemoized_path(self, stack, trace):
        """Serving through the breakdown tensor must change nothing.

        The reference clone has its PB generation bumped before every query,
        so the stack no longer trusts the tensor and evaluates the
        accelerator model on the PB contents directly; records *and* PB byte
        statistics must match the tensor-backed clone exactly.
        """
        memoized = stack.clone(seed=7)
        records_memo = memoized.serve(trace)

        reference = stack.clone(seed=7)
        records_ref = []
        for query in trace:
            reference.pb.generation += 1
            records_ref.append(reference.serve_query(query))

        assert memoized.breakdowns
        assert reference.breakdowns == {}  # direct evaluation stores nothing
        assert records_memo == records_ref
        for field in dataclasses.fields(PBStats):
            assert getattr(memoized.pb.stats, field.name) == getattr(
                reference.pb.stats, field.name
            ), field.name

    def test_window_memo_reuses_accelerator_evaluations(self, stack, trace):
        """Each distinct (SubNet, candidate) pair is evaluated once."""
        clone = stack.clone(seed=7)
        proxy = CountingAccel(clone.accel)
        clone.accel = proxy
        clone.serve(trace)
        assert proxy.calls == len(clone.breakdowns) < len(trace)

        # A clone sharing the tensor re-serves the trace without evaluating.
        sibling = clone.clone(seed=7, breakdowns=clone.breakdowns)
        assert sibling.serve(trace) == stack.clone(seed=7).serve(trace)
        assert proxy.calls == len(clone.breakdowns)

    def test_clone_starts_a_fresh_tensor(self, stack, trace):
        before = dict(stack.breakdowns)
        clone = stack.clone(seed=7)
        clone.serve(trace)
        assert stack.breakdowns == before
        assert clone.clone(seed=7).breakdowns == {}


class TestExternalPBMutation:
    """A PB changed behind the stack's back is served as it really is."""

    @pytest.fixture()
    def shared(self, stack, trace):
        """A tensor filled by an unmutated twin serving the whole trace."""
        breakdowns: dict = {}
        stack.clone(seed=5, breakdowns=breakdowns).serve(trace)
        return breakdowns

    @staticmethod
    def serve_mutated(replica, trace, mutate, *, direct):
        """Ten queries, ``mutate(replica)``, then one more query.

        ``direct`` bumps the PB generation before every query, forcing
        direct evaluation of the PB contents throughout (the reference).
        """
        queries = list(trace)[:11]
        records = []
        for i, query in enumerate(queries):
            if i == len(queries) - 1:
                mutate(replica)
            if direct:
                replica.pb.generation += 1
            records.append(replica.serve_query(query))
        return records

    @pytest.mark.parametrize("mutation", ["clear", "load_other"])
    def test_next_record_sees_the_real_pb(self, stack, trace, shared, mutation):
        loaded = []

        def mutate(replica):
            loaded.append(replica.scheduler.cache_state_idx)
            if mutation == "clear":
                replica.pb.clear()
            else:
                other = (loaded[-1] + 1) % len(replica.candidates)
                replica.pb.load(replica.candidates[other])

        before = dict(shared)
        replica = stack.clone(seed=5, breakdowns=shared)
        got = self.serve_mutated(replica, trace, mutate, direct=False)
        reference = stack.clone(seed=5)
        expected = self.serve_mutated(reference, trace, mutate, direct=True)

        assert got == expected
        if mutation == "clear":
            assert got[-1].cache_hit_ratio == 0.0
        # The entry for the candidate the replica believes is loaded exists
        # (its twin filled it) and stays untouched, as does every other, so
        # the replicas sharing the tensor are not poisoned.
        subnet_idx = [sn.name for sn in stack.subnets].index(got[-1].subnet_name)
        assert (subnet_idx, loaded[0]) in before
        assert shared.keys() >= before.keys()
        for key, entry in before.items():
            assert shared[key] is entry


class TestBaselines:
    @pytest.fixture(scope="class")
    def shared(self, mobilenetv3, mobilenetv3_subnets):
        accel = SushiAccelModel(ANALYTIC_DEFAULT, with_pb=True)
        accel_no_pb = SushiAccelModel(ANALYTIC_DEFAULT, with_pb=False)
        accuracy = AccuracyModel(mobilenetv3)
        return mobilenetv3, mobilenetv3_subnets, accel, accel_no_pb, accuracy

    def test_no_sushi_serves_all_queries(self, shared, trace):
        supernet, subnets, _, accel_no_pb, accuracy = shared
        server = NoSushiServer(supernet, subnets, accel_no_pb, accuracy)
        records = server.serve(trace)
        assert len(records) == len(trace)
        assert all(r.cache_hit_ratio == 0.0 for r in records)

    def test_no_sushi_strict_accuracy_met(self, shared, trace):
        supernet, subnets, _, accel_no_pb, accuracy = shared
        server = NoSushiServer(supernet, subnets, accel_no_pb, accuracy)
        for r in server.serve(trace):
            assert r.served_accuracy >= r.accuracy_constraint - 1e-9

    def test_state_unaware_gets_cache_hits(self, shared, trace):
        supernet, subnets, accel, _, accuracy = shared
        server = StateUnawareCachingServer(
            supernet, subnets, accel, accuracy, cache_update_period=4
        )
        records = server.serve(trace)
        assert any(r.cache_hit_ratio > 0 for r in records[5:])

    def test_state_unaware_invalid_period_rejected(self, shared):
        supernet, subnets, accel, _, accuracy = shared
        with pytest.raises(ValueError):
            StateUnawareCachingServer(supernet, subnets, accel, accuracy, cache_update_period=0)

    def test_sushi_no_worse_than_no_sushi(self, shared, stack, trace):
        supernet, subnets, _, accel_no_pb, accuracy = shared
        no_sushi = NoSushiServer(supernet, subnets, accel_no_pb, accuracy)
        base = no_sushi.serve(trace)
        stack.reset()
        sushi = stack.serve(trace)
        mean = lambda rs: sum(r.served_latency_ms for r in rs) / len(rs)
        assert mean(sushi) <= mean(base) * 1.001

    def test_strict_latency_policy_baseline(self, shared, trace):
        supernet, subnets, _, accel_no_pb, accuracy = shared
        server = NoSushiServer(
            supernet, subnets, accel_no_pb, accuracy, policy=Policy.STRICT_LATENCY
        )
        records = server.serve(trace)
        assert len(records) == len(trace)
