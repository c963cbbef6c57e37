"""SUSHI: the vertically integrated serving stack.

Wires the three components together exactly as Fig. 4 describes: queries
enter with (accuracy, latency) constraints, SushiSched consults SushiAbs (the
latency table) to pick the SubNet and — every ``Q`` queries — the next cached
SubGraph; SushiAccel (the analytic accelerator model plus its Persistent
Buffer) then serves the query and enacts the caching decision.

The stack serves *one query at a time* through :meth:`SushiStack.serve_query`
— the interface the discrete-event engine dispatches against, optionally with
the query's remaining latency budget once queueing delay is known.
:meth:`SushiStack.serve` is the closed-loop convenience over a whole trace;
it batches SubNet selection one caching window at a time (a single numpy
feasibility mask per window) while producing records identical to the
per-query path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer
from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.core.candidates import CandidateSet, build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.metrics import QueryRecord
from repro.core.policies import Policy, select_subnet
from repro.core.scheduler import SchedulerDecision, SushiSched
from repro.serving.query import Query, QueryTrace
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.subnet import SubNet
from repro.supernet.supernet import SuperNet
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


#: Lazily filled SushiAbs breakdown tensor: ``(subnet_idx, candidate_idx)``
#: → ``(LatencyBreakdown, vector hit ratio, hit bytes)`` with that candidate
#: loaded in the PB.
BreakdownTensor = dict[tuple[int, int], tuple]


@dataclass(frozen=True)
class SushiStackConfig:
    """Configuration of a SUSHI serving stack instance.

    Attributes
    ----------
    supernet_name:
        Which SuperNet family to serve (``"ofa_resnet50"`` / ``"ofa_mobilenetv3"``).
    platform:
        Accelerator platform configuration.
    policy:
        Scheduling policy (STRICT_ACCURACY or STRICT_LATENCY).
    cache_update_period:
        ``Q``, the number of queries between caching decisions.
    candidate_set_size:
        Target ``|S|`` (None keeps the structural candidates only).
    seed:
        Seed for the scheduler's random initial cache state.
    """

    supernet_name: str = "ofa_resnet50"
    platform: PlatformConfig = ANALYTIC_DEFAULT
    policy: Policy = Policy.STRICT_ACCURACY
    cache_update_period: int = 4
    candidate_set_size: int | None = None
    seed: int = 0


class SushiStack:
    """The full SUSHI stack: SushiSched + SushiAbs + SushiAccel (+ PB)."""

    def __init__(
        self,
        config: SushiStackConfig | None = None,
        *,
        supernet: SuperNet | None = None,
        subnets: Sequence[SubNet] | None = None,
        accel: SushiAccelModel | None = None,
        accuracy_model: AccuracyModel | None = None,
        candidates: CandidateSet | None = None,
        table: LatencyTable | None = None,
        breakdowns: BreakdownTensor | None = None,
    ) -> None:
        self.config = config or SushiStackConfig()
        self.supernet = supernet or load_supernet(self.config.supernet_name)
        self.subnets = list(subnets) if subnets is not None else paper_pareto_subnets(self.supernet)
        self.accel = accel or SushiAccelModel(self.config.platform)
        self.accuracy_model = accuracy_model or AccuracyModel(self.supernet)

        pb_capacity = max(self.accel.pb_capacity_bytes, 1)
        self.candidates = candidates or build_candidate_set(
            self.subnets,
            capacity_bytes=pb_capacity,
            max_size=self.config.candidate_set_size,
        )
        self.table = table or LatencyTable.build(
            self.subnets,
            self.candidates,
            latency_fn=self.accel.subnet_latency_ms,
            accuracy_fn=self.accuracy_model.accuracy,
        )
        rng = np.random.default_rng(self.config.seed)
        self.scheduler = SushiSched(
            self.table,
            self.supernet,
            policy=self.config.policy,
            cache_update_period=self.config.cache_update_period,
            rng=rng,
        )
        self.pb: PersistentBuffer = self.accel.make_persistent_buffer()
        # SushiAbs for the simulator: after a PB load the PB holds a pure
        # function of the candidate index, so (breakdown, hit ratio, hit
        # bytes) is a function of (subnet_idx, candidate_idx) alone.  Filled
        # lazily; clones may share one (see :meth:`clone`).
        self.breakdowns: BreakdownTensor = {} if breakdowns is None else breakdowns
        # (candidate index, PB generation) of the last load this stack enacted.
        self._loaded = (-1, -1)
        # Enact the scheduler's initial (random) cache state on the hardware.
        self._enact_cache(self.scheduler.cache_state_idx)

    # ------------------------------------------------------------ serving
    def _enact_cache(self, candidate_idx: int) -> float:
        """Load candidate SubGraph ``candidate_idx`` into the PB; return ms spent."""
        subgraph = self.candidates[candidate_idx]
        fetched = self.pb.load(subgraph)
        self._loaded = (candidate_idx, self.pb.generation)
        return self.accel.cache_load_latency_ms(fetched)

    def _window_breakdown(self, subnet_idx: int) -> tuple:
        """(breakdown, hit ratio, hit bytes) of ``subnet_idx`` at the current PB.

        Read from (and filled into) the breakdown tensor while the PB still
        holds the candidate this stack loaded; if the PB changed behind the
        stack's back (its generation moved), the real contents are evaluated
        directly and nothing is stored.
        """
        candidate_idx, generation = self._loaded
        if self.pb.generation != generation:
            return self._evaluate(subnet_idx)
        key = (subnet_idx, candidate_idx)
        entry = self.breakdowns.get(key)
        if entry is None:
            entry = self.breakdowns[key] = self._evaluate(subnet_idx)
        return entry

    def _evaluate(self, subnet_idx: int) -> tuple:
        """Run the accelerator model for ``subnet_idx`` on the PB as it is."""
        subnet = self.subnets[subnet_idx]
        return (
            self.accel.subnet_breakdown(subnet, self.pb.cached),
            self.pb.vector_hit_ratio(subnet),
            self.pb.hit_bytes(subnet),
        )

    def _enact(self, query: Query, decision: SchedulerDecision) -> QueryRecord:
        """Serve one scheduled query on the accelerator and enact caching."""
        subnet = self.subnets[decision.subnet_idx]
        breakdown, hit_ratio, hit_bytes = self._window_breakdown(decision.subnet_idx)
        self.pb.record_serve(subnet, hit_bytes=hit_bytes)

        cache_load_ms = 0.0
        if decision.cache_updated:
            # The caching decision is enacted after the query completes;
            # its cost is amortized off the query critical path but
            # recorded for accounting.
            cache_load_ms = self._enact_cache(decision.next_cache_state_idx)

        return QueryRecord(
            query_index=query.index,
            accuracy_constraint=query.accuracy_constraint,
            latency_constraint_ms=query.latency_constraint_ms,
            subnet_name=subnet.name,
            served_accuracy=self.accuracy_model.accuracy(subnet),
            served_latency_ms=breakdown.latency_ms,
            cache_hit_ratio=hit_ratio,
            offchip_energy_mj=breakdown.offchip_energy_mj,
            cache_load_ms=cache_load_ms,
        )

    def serve_query(
        self, query: Query, *, effective_latency_constraint_ms: float | None = None
    ) -> QueryRecord:
        """Serve one query at dispatch time; returns its serving record.

        ``effective_latency_constraint_ms`` is the query's *remaining*
        latency budget once queueing delay is known (passed by the serving
        engine); the scheduler reacts to it, while the record still reports
        the query's nominal constraint for SLO accounting.
        """
        decision = self.scheduler.schedule(
            accuracy_constraint=query.accuracy_constraint,
            latency_constraint_ms=query.latency_budget_ms(
                effective_latency_constraint_ms
            ),
        )
        return self._enact(query, decision)

    def serve_dispatch_batch(
        self,
        queries: Sequence[Query],
        *,
        effective_latency_constraints_ms: Sequence[float] | None = None,
    ) -> list[QueryRecord]:
        """Serve a weight-sharing batch with one shared SubNet decision.

        The scheduler makes a *single* decision satisfying the batch's
        strictest accuracy constraint and its tightest remaining latency
        budget; the whole batch then runs as one accelerator evaluation: the
        SubNet's weight traffic (off-chip fetch + on-chip staging) is paid
        once and reused by every member — exactly the amortization SGS weight
        sharing enables — while compute and activation traffic scale with the
        batch.  Every returned record reports the *batch* evaluation latency
        (members complete together), and at most one cache load is enacted,
        carried by the last member's record.  A one-query batch is identical
        to :meth:`serve_query`.

        Because the latency table stores *single-query* latencies, the shared
        decision plans against the tightest budget divided by the batch size:
        a SubNet whose table latency fits that scaled budget has a batch
        evaluation (weights counted once, not per member) that fits the
        original budget — the conservative, SLO-safe direction.

        Energy is recorded per evaluation as in the per-query path; off-chip
        weight-energy amortization across the batch is not modeled, so
        batched energy totals are conservative (over-) estimates.
        """
        if not queries:
            raise ValueError("a dispatch batch needs at least one query")
        accuracy = max(q.accuracy_constraint for q in queries)
        if effective_latency_constraints_ms is None:
            latency = min(q.latency_constraint_ms for q in queries)
        else:
            if len(effective_latency_constraints_ms) != len(queries):
                raise ValueError(
                    "effective_latency_constraints_ms must match the batch length"
                )
            latency = min(effective_latency_constraints_ms)
        decision = self.scheduler.schedule_shared(
            accuracy_constraint=accuracy,
            latency_constraint_ms=latency / len(queries),
            batch_size=len(queries),
        )

        subnet = self.subnets[decision.subnet_idx]
        breakdown, hit_ratio, hit_bytes = self._window_breakdown(decision.subnet_idx)
        for _ in queries:
            self.pb.record_serve(subnet, hit_bytes=hit_bytes)
        components = breakdown.components
        if len(queries) == 1:
            # Bit-identical to serve_query: total_ms directly, not the
            # algebraically equal shared + 1 x (total - shared).
            batch_ms = components.total_ms
        else:
            shared_ms = components.offchip_weight_ms + components.onchip_weight_ms
            batch_ms = shared_ms + len(queries) * (components.total_ms - shared_ms)

        cache_load_ms = 0.0
        if decision.cache_updated:
            cache_load_ms = self._enact_cache(decision.next_cache_state_idx)

        served_accuracy = self.accuracy_model.accuracy(subnet)
        last = len(queries) - 1
        return [
            QueryRecord(
                query_index=query.index,
                accuracy_constraint=query.accuracy_constraint,
                latency_constraint_ms=query.latency_constraint_ms,
                subnet_name=subnet.name,
                served_accuracy=served_accuracy,
                served_latency_ms=batch_ms,
                cache_hit_ratio=hit_ratio,
                offchip_energy_mj=breakdown.offchip_energy_mj,
                cache_load_ms=cache_load_ms if i == last else 0.0,
            )
            for i, query in enumerate(queries)
        ]

    def serve(self, trace: QueryTrace) -> list[QueryRecord]:
        """Serve a query stream end to end; returns per-query records.

        SubNet selection is batched one caching window at a time (vectorized
        feasibility masks); the records are identical to calling
        :meth:`serve_query` per query.
        """
        decisions = self.scheduler.schedule_batch(
            trace.accuracy_constraints, trace.latency_constraints_ms
        )
        return [self._enact(query, d) for query, d in zip(trace, decisions)]

    def estimate_service_ms(self, query: Query) -> float:
        """Predicted service time of ``query`` at the current cache state.

        Side-effect free: consults the latency table without advancing the
        scheduler, so routers and queue disciplines can use it.
        """
        cache_idx = self.scheduler.cache_state_idx
        subnet_idx = select_subnet(
            self.table,
            self.config.policy,
            accuracy_constraint=query.accuracy_constraint,
            latency_constraint_ms=query.latency_constraint_ms,
            cache_state_idx=cache_idx,
        )
        return self.table.latency(subnet_idx, cache_idx)

    # ------------------------------------------------------------- state
    @property
    def cache_hit_ratio(self) -> float:
        """Byte-level PB hit ratio accumulated so far."""
        return self.pb.stats.byte_hit_ratio

    def reset(self) -> None:
        """Reset scheduler history and PB contents (keeps the table and tensor)."""
        self.scheduler.reset()
        self.pb = self.accel.make_persistent_buffer()
        self._enact_cache(self.scheduler.cache_state_idx)

    def clone(
        self, *, seed: int | None = None, breakdowns: BreakdownTensor | None = None
    ) -> "SushiStack":
        """An independent stack sharing this one's immutable substrate.

        The SuperNet, SubNet family, accelerator model, candidate set and
        latency table are shared (they are read-only); the clone gets its own
        scheduler and Persistent Buffer, so it evolves cache state
        independently — one clone per engine replica.  Clones given the same
        ``breakdowns`` tensor share its entries (each (SubNet, candidate)
        pair is evaluated once among them); without one the clone starts a
        fresh tensor, so this stack's own is never filled by its clones.
        """
        config = self.config if seed is None else replace(self.config, seed=seed)
        return SushiStack(
            config,
            supernet=self.supernet,
            subnets=self.subnets,
            accel=self.accel,
            accuracy_model=self.accuracy_model,
            candidates=self.candidates,
            table=self.table,
            breakdowns=breakdowns,
        )
