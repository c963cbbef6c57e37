"""Discrete-event machinery: the event heap of the serving engine.

The engine advances simulated time through a priority queue of timestamped
events.  Six event kinds exist: a query *arrival* (it enters the system
and is routed to a replica's queue), a replica *completion* (a replica
finishes its in-service query and pulls the next one), a *fault* onset
(a sampled crash or straggle interval from the fault-injection layer hits
a replica), a *recovery* (a straggle interval ends, or a retried query
re-enters routing after its backoff), a replica *provisioning* hand-over
(a cold scale-up replica finishes its ``startup_delay_ms`` and joins
routing), and an autoscaler *control* tick (the scaling policy observes
the pool and may resize it).

Tie-breaking at equal timestamps (the engine's determinism contract):
completions are processed before arrivals so a replica freed at time ``t``
is visible to routing decisions made at ``t``; faults and recoveries run
after the data plane (a completion or arrival at exactly ``t`` still sees
the pre-fault pool, so a crash never races a same-instant completion) but
before provisioning and control, so the control plane's view at ``t`` is
always the *post*-fault pool; provisioning hand-overs run next so a
replica warm at ``t`` is active in the tick's snapshot at ``t``; control
ticks run last so the policy sees every data-plane and fault event up to
and including ``t``.  Remaining ties resolve by insertion order, which
keeps every run deterministic.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Sequence


class EventKind(enum.IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps."""

    COMPLETION = 0
    ARRIVAL = 1
    FAULT = 2
    RECOVERY = 3
    PROVISIONING = 4
    CONTROL = 5


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped event in the simulation.

    ``slots=True`` keeps the event loop's per-query allocations small: one
    event is created per arrival and per batch completion, so the instance
    layout is on the hot path for long traces.
    """

    time_ms: float
    kind: EventKind
    payload: Any
    """ARRIVAL: the arrival's index into the run's arrival buffer.
    COMPLETION / PROVISIONING: the replica index.  FAULT / RECOVERY: a
    ``(tag, ...)`` tuple from the fault layer (see
    :mod:`repro.serving.engine.faults`).  CONTROL: unused (None)."""


class EventHeap:
    """Min-heap of events ordered by (time, kind, insertion order).

    The engine's reference queue: every event, arrivals included, goes
    through one heap.  It is the oracle the :class:`ArrayEventQueue`
    ordering property is checked against, and the loop ``run(...,
    fast_path=False)`` drains.  ``pop`` returns the same ``(time_ms, kind,
    payload)`` triple as :meth:`ArrayEventQueue.pop`.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._counter = 0

    def push(self, event: Event) -> None:
        heapq.heappush(
            self._heap,
            (event.time_ms, int(event.kind), self._counter, event.payload),
        )
        self._counter += 1

    def pop(self) -> tuple[float, int, Any]:
        if not self._heap:
            raise IndexError("pop from an empty event heap")
        time_ms, kind, _, payload = heapq.heappop(self._heap)
        return time_ms, kind, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


_ARRIVAL = int(EventKind.ARRIVAL)


class ArrayEventQueue:
    """Array-backed event queue: an arrival cursor merged with a small heap.

    The engine's arrival buffer is time-sorted (``ServingEngine.run``
    rejects decreasing arrival times), so arrivals stay a plain cursor
    over the buffer and only the *dynamic* events — COMPLETION, FAULT,
    RECOVERY, PROVISIONING and CONTROL, of which only a handful are ever
    in flight — go on a heap.
    This removes one ``Event`` allocation plus a heap push *and* pop per
    arrival while preserving :class:`EventHeap`'s exact ordering contract:

    * time first;
    * at equal timestamps, :class:`EventKind` order (completions before
      arrivals before faults/recoveries before provisioning hand-overs
      before control ticks);
    * remaining ties by insertion order.  Dynamic events are never
      ARRIVAL-kind, so (time, kind) fully orders a dynamic event against
      the cursor, and same-kind dynamic ties fall back to this queue's own
      insertion counter — the same relative order ``run()`` would have
      pushed them into an :class:`EventHeap`.

    ``pop`` returns ``(time_ms, kind, payload)`` where an ARRIVAL's payload
    is the *arrival index* into the buffer (the caller materializes the
    query lazily); dynamic payloads are the pushed event's payload.
    """

    def __init__(self, arrival_times_ms: Sequence[float]) -> None:
        # A plain Python list: float comparisons against heap entries are
        # several times faster than indexing a numpy array per event.
        self._arrivals = list(arrival_times_ms)
        self._cursor = 0
        self._heap: list[tuple[float, int, int, Any]] = []
        self._counter = 0

    def push(self, event: Event) -> None:
        """Schedule a dynamic (non-ARRIVAL) event."""
        heapq.heappush(
            self._heap,
            (event.time_ms, int(event.kind), self._counter, event.payload),
        )
        self._counter += 1

    def pop(self) -> tuple[float, int, Any]:
        heap = self._heap
        i = self._cursor
        if i < len(self._arrivals):
            arrival_ms = self._arrivals[i]
            if heap:
                head = heap[0]
                # The dynamic event wins on a strictly earlier time, or on
                # a tie when its kind precedes ARRIVAL (i.e. COMPLETION).
                if head[0] < arrival_ms or (
                    head[0] == arrival_ms and head[1] < _ARRIVAL
                ):
                    heapq.heappop(heap)
                    return head[0], head[1], head[3]
            self._cursor = i + 1
            return arrival_ms, _ARRIVAL, i
        if heap:
            time_ms, kind, _, payload = heapq.heappop(heap)
            return time_ms, kind, payload
        raise IndexError("pop from an empty event queue")

    def __len__(self) -> int:
        return (len(self._arrivals) - self._cursor) + len(self._heap)

    def __bool__(self) -> bool:
        return self._cursor < len(self._arrivals) or bool(self._heap)
