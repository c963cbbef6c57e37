"""Outside-in tracing of the SUSHI serving stack.

The tracer never edits the program: it swaps public functions of the
repro modules for timing wrappers while a traced run is in progress and
restores the originals afterwards.  Every wrapped call records one span
(name, start, end, parent) in memory; a layer is the module the wrapped
function belongs to, named by the span name's prefix (``accel`` in
``accel.subnet_breakdown``).  A span's self time is its duration minus the
durations of its direct children, so the self times of one traced call
tree sum exactly to the root span's duration.

The wrappers cost time of their own, and a raw self time carries it: the
bookkeeping before a span's start and after its end lands on the parent,
the call between the two clock reads on the span itself.  :meth:`calibrate`
times both parts on an empty function, and :meth:`self_times` takes them
out of every span (the ``on_return`` hooks of four span names are not
calibrated and stay on their parents).  The root span ``api.run_scenario``
belongs to no layer: its self time is glue that no named span covers.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import PersistentBuffer
from repro.core.latency_table import LatencyTable
from repro.core.scheduler import SushiSched
from repro.serving import api
from repro.serving.autoscale.controller import AutoscaleController
from repro.serving.autoscale.telemetry import TelemetryBus
from repro.serving.engine.core import ServingEngine
from repro.serving.engine.routing import RoutingPolicy
from repro.serving.obs.recorder import TraceRecorder
from repro.serving.spec import ArrivalSpec
from repro.serving.stack import SushiStack

#: Layers of a traced run in report order; a span name starts with one of
#: them, except ``setup.table_build``, which only a cold build records.
LAYERS = (
    "api",
    "engine",
    "routing",
    "stack",
    "sched",
    "table",
    "accel",
    "pb",
    "autoscale",
    "obs",
)

#: The span every traced run nests under; its self time is unattributed.
ROOT_SPAN = "api.run_scenario"


def _routers() -> list[type]:
    """Every router class that defines its own ``select``."""
    found, todo = [], [RoutingPolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select" in cls.__dict__ and not getattr(
            cls.__dict__["select"], "__isabstractmethod__", False
        ):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


class Tracer:
    """Span recorder plus the work counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Wrapper seconds per span charged to the span / to its parent.
        self.cost_inside = 0.0
        self.cost_outside = 0.0
        self.clear()

    def clear(self) -> None:
        """Forget recorded spans and counters (the name table is kept)."""
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._open: list[int] = []
        self.eval_pairs: set[tuple[str, str | None]] = set()
        self.load_bytes = 0
        self.cache_updates = 0
        self.engines: list[ServingEngine] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_return: Callable[[tuple, dict, Any], None] | None,
    ) -> Callable[..., Any]:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # Looked up per call: clear() rebinds the span lists.
            starts, ends, open_ = tracer.span_start, tracer.span_end, tracer._open
            i = len(starts)
            tracer.span_name.append(nid)
            tracer.span_parent.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _on_eval(self, args: tuple, kwargs: dict, result: Any) -> None:
        cached = args[2] if len(args) > 2 else kwargs.get("cached")
        self.eval_pairs.add((args[1].name, None if cached is None else cached.name))

    def _on_load(self, args: tuple, kwargs: dict, fetched: int) -> None:
        self.load_bytes += int(fetched)

    def _on_schedule(self, args: tuple, kwargs: dict, decision: Any) -> None:
        self.cache_updates += int(decision.cache_updated)

    def _on_engine(self, args: tuple, kwargs: dict, engine: ServingEngine) -> None:
        self.engines.append(engine)

    def targets(self) -> list[tuple[object, str, str, Callable | None]]:
        """``(owner, attribute, span name, hook)`` for every traced function."""
        out: list[tuple[object, str, str, Callable | None]] = [
            (api, "run_scenario", ROOT_SPAN, None),
            (api, "build_trace", "api.build_trace", None),
            (api, "build_engine", "api.build_engine", self._on_engine),
            (ArrivalSpec, "generate", "api.arrivals", None),
            (ServingEngine, "run", "engine.run", None),
            (SushiStack, "serve_query", "stack.serve", None),
            (SushiStack, "serve_dispatch_batch", "stack.serve", None),
            (SushiStack, "clone", "stack.clone", None),
            (SushiSched, "schedule_shared", "sched.schedule_shared", self._on_schedule),
            (SushiAccelModel, "subnet_breakdown", "accel.subnet_breakdown", self._on_eval),
            (PersistentBuffer, "load", "pb.load", self._on_load),
            (PersistentBuffer, "record_serve", "pb.record_serve", None),
            (PersistentBuffer, "hit_bytes", "pb.hit_bytes", None),
            (PersistentBuffer, "vector_hit_ratio", "pb.vector_hit_ratio", None),
            (AutoscaleController, "decide_pool", "autoscale.decide_pool", None),
            (TelemetryBus, "snapshot", "autoscale.snapshot", None),
            (LatencyTable, "build", "setup.table_build", None),
        ]
        out += [(cls, "select", "routing.select", None) for cls in _routers()]
        for attr in ("latency", "accuracy", "column", "best_under_accuracy", "best_under_latency"):
            out.append((LatencyTable, attr, "table.lookup", None))
        for attr in ("on_arrival", "on_dispatch", "on_completion", "on_drop", "on_failure", "on_batch"):
            out.append((TelemetryBus, attr, "autoscale.telemetry", None))
        for attr in (
            "on_served",
            "on_dropped",
            "on_fault",
            "on_replica_created",
            "on_provisioning",
            "on_provisioning_cancelled",
            "on_replica_retired",
            "on_decision",
        ):
            out.append((TraceRecorder, attr, "obs.event", None))
        out += [
            (TraceRecorder, "begin_run", "obs.run", None),
            (TraceRecorder, "finish", "obs.run", None),
        ]
        return out

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Trace every target while the block runs; restore them after."""
        saved: list[tuple[object, str, Any]] = []
        try:
            for owner, attr, name, hook in self.targets():
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def calibrate(self) -> None:
        """Measure the wrapper's own cost per span on an empty function of
        two arguments (``self`` and one more, as most traced methods take).

        ``cost_inside`` is the mean span duration of the empty call;
        ``cost_outside`` is the rest of the extra time a wrapped call takes
        over a plain one.  Each is the median over several batches.
        """
        calls, repeats = 20000, 7

        def empty(a: object, b: object) -> None:
            return None

        probe = Tracer()
        wrapped = probe._wrap("calibrate", empty, None)
        clock = time.perf_counter
        inside, outside = [], []
        for _ in range(repeats):
            probe.clear()
            t0 = clock()
            for _ in range(calls):
                empty(self, calls)
            plain = clock() - t0
            t0 = clock()
            for _ in range(calls):
                wrapped(self, calls)
            traced = clock() - t0
            spans = float(np.sum(np.asarray(probe.span_end) - np.asarray(probe.span_start)))
            inside.append(spans / calls)
            outside.append((traced - plain - spans) / calls)
        self.cost_inside = statistics.median(inside)
        self.cost_outside = statistics.median(outside)

    # ------------------------------------------------------------ analysis
    def count(self, name: str) -> int:
        """Calls recorded under one span name."""
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name (every name, zero if unseen),
        less the calibrated wrapper cost of the span and of its children."""
        n = len(self.span_start)
        out = dict.fromkeys(self.names, 0.0)
        if n == 0:
            return out
        start = np.asarray(self.span_start)
        duration = np.asarray(self.span_end) - start
        parent = np.asarray(self.span_parent, dtype=np.int64)
        names = np.asarray(self.span_name, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        kids = np.bincount(parent[nested], minlength=n)
        own = duration - children - kids * self.cost_outside - self.cost_inside
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[name] = float(per_name[nid])
        return out

    def overhead_seconds(self) -> float:
        """Calibrated wrapper cost of every recorded span."""
        return len(self.span_start) * (self.cost_inside + self.cost_outside)

    def inclusive_time(self, name: str) -> float:
        """Summed duration of the outermost spans of one name."""
        nid = self._name_ids.get(name)
        total = 0.0
        for i, sid in enumerate(self.span_name):
            if sid == nid:
                p = self.span_parent[i]
                if p < 0 or self.span_name[p] != nid:
                    total += self.span_end[i] - self.span_start[i]
        return total

    def layer_self_times(self) -> dict[str, float]:
        """Self time in seconds per layer: every layer in :data:`LAYERS`,
        plus any other span-name prefix that recorded time.  The root
        span's self time is left out."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            if name != ROOT_SPAN:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans as arrays (``names[name]`` labels a span)
        with the calibrated wrapper cost per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            cost_inside=self.cost_inside,
            cost_outside=self.cost_outside,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent, dtype=np.int64),
        )
