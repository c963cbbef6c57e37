"""Property-based identity tests of the engine fast path and event queues.

Two families of properties:

* **Execution-strategy identity** — for *every* hypothesis-generated
  workload (arrival gaps, service times, latency constraints) and policy
  combination, the fast loop and the sharded loop must produce results
  bit-identical to the reference EventHeap loop (``fast_path=False``).  Equality here is
  structural equality of frozen dataclasses over raw floats, so even a
  1-ulp reordering of arithmetic would fail.

* **Queue-ordering contracts** — :class:`EventHeap` pops in (time, kind,
  insertion order), and :class:`ArrayEventQueue` (arrival cursor +
  dynamic-event heap) must pop in exactly the order :class:`EventHeap`
  would when everything is pushed into one heap.  Times are drawn from a coarse grid so equal timestamps —
  where the (time, kind, insertion order) tie-break actually matters — are
  common rather than measure-zero.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.metrics import QueryRecord
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.events import ArrayEventQueue, Event, EventHeap, EventKind
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


def run_pair(wl, *, num_replicas, discipline, router, admission, **fast_kwargs):
    """(reference-loop result, fast/shard result) on identical fresh engines."""
    gaps, services, constraints = wl
    trace = QueryTrace.from_constraints([0.77] * len(gaps), list(constraints))
    arrivals = np.cumsum(gaps)

    def engine():
        return ServingEngine(
            [
                AcceleratorReplica(IndexedServer(services), discipline=discipline)
                for _ in range(num_replicas)
            ],
            router=router,
            admission=admission,
        )

    return (
        engine().run(trace, arrivals, fast_path=False),
        engine().run(trace, arrivals, **fast_kwargs),
    )


def assert_identical(fast, ref):
    assert fast.outcomes == ref.outcomes
    assert fast.dropped == ref.dropped
    assert fast.replica_stats == ref.replica_stats
    assert fast.duration_ms == ref.duration_ms


class TestExecutionStrategyIdentity:
    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_is_bit_identical(
        self, wl, discipline, router, admission, num_replicas
    ):
        ref, fast = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission, fast_path=True,
        )
        assert_identical(fast, ref)

    @given(workload, disciplines, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_sharded_is_bit_identical(
        self, wl, discipline, admission, num_replicas
    ):
        ref, shard = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router="round_robin", admission=admission, shard=True,
        )
        assert_identical(shard, ref)


# Coarse grids make equal timestamps common, so the tie-break contract —
# kind order then insertion order — is exercised on nearly every example.
grid_times = st.integers(min_value=0, max_value=4).map(float)
kinds = st.sampled_from(list(EventKind))
events = st.lists(st.tuples(grid_times, kinds), min_size=1, max_size=30)


class TestEventHeapContract:
    @given(events)
    @settings(max_examples=100, deadline=None)
    def test_same_timestamp_pops_follow_kind_then_insertion(self, items):
        heap = EventHeap()
        for i, (t, kind) in enumerate(items):
            heap.push(Event(t, kind, i))
        popped = [heap.pop() for _ in range(len(items))]
        assert popped == sorted(popped)  # payload is insertion order


dynamic_kinds = st.sampled_from(
    [EventKind.COMPLETION, EventKind.PROVISIONING, EventKind.CONTROL]
)


class TestArrayEventQueueContract:
    @given(
        st.lists(grid_times, min_size=0, max_size=15),  # arrival gaps
        st.lists(st.tuples(grid_times, dynamic_kinds), max_size=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_event_heap_order(self, gaps, dynamic):
        """The cursor+heap queue pops in EventHeap's exact global order.

        The reference heap receives arrivals first, then the dynamic
        events, mirroring ``run()``'s seeding order; the array queue holds
        the same arrivals as its buffer and only the dynamic events in its
        heap.  Both must drain identically, payload included (the array
        queue reports an arrival as its buffer index).
        """
        arrivals = np.cumsum(gaps).tolist()
        heap = EventHeap()
        for i, t in enumerate(arrivals):
            heap.push(Event(t, EventKind.ARRIVAL, i))
        queue = ArrayEventQueue(arrivals)
        for j, (t, kind) in enumerate(dynamic):
            heap.push(Event(t, kind, ("dyn", j)))
            queue.push(Event(t, kind, ("dyn", j)))

        assert len(queue) == len(arrivals) + len(dynamic)
        expected = [heap.pop() for _ in range(len(arrivals) + len(dynamic))]
        got = [queue.pop() for _ in range(len(expected))]
        assert got == expected
        assert not queue
        try:
            queue.pop()
        except IndexError:
            pass
        else:  # pragma: no cover
            raise AssertionError("pop from empty ArrayEventQueue must raise")
