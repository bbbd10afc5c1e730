"""Shared machinery of the four GPNM algorithms.

Every algorithm owns private copies of the pattern graph, the data graph,
the ``SLen`` matrix and the current (non-collapsed) matching relation.
The constructor answers the *initial query* (``IQuery``); each call to
:meth:`GPNMAlgorithm.subsequent_query` applies one update batch, produces
the *subsequent query* result (``SQuery``) and advances the internal
state so that batches can be chained, mirroring the paper's
initial-query-then-subsequent-query protocol.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.batching.coalesce import DEFAULT_COALESCE_MIN_BATCH, coalesce_slen
from repro.batching.compiler import CompiledBatch, compile_batch
from repro.batching.planner import (
    DEFAULT_COST_MODEL,
    PLAN_CHOICES,
    STRATEGY_AUTO,
    STRATEGY_PARTITIONED,
    STRATEGY_PER_UPDATE,
    BatchStatistics,
    CostModel,
    PlanReport,
    plan_batch,
)
from repro.elimination.eh_tree import EHTree
from repro.graph.digraph import DataGraph
from repro.graph.pattern import PatternGraph
from repro.graph.updates import Update, UpdateBatch
from repro.matching.affected import AffectedSet, affected_set_from_delta
from repro.matching.amend import amend_match
from repro.matching.bgs import bounded_simulation
from repro.matching.candidates import CandidateSet, candidate_set
from repro.matching.gpnm import MatchResult
from repro.matching.shared import SharedDelta, shared_delta_from_batch
from repro.partition.label_partition import LabelPartition
from repro.partition.partitioned_spl import (
    build_slen_partitioned,
    coalesce_slen_partitioned,
)
from repro.spl.incremental import update_slen
from repro.spl.matrix import SLenMatrix

@dataclass
class QueryStats:
    """Work accounting for one subsequent query.

    Attributes
    ----------
    elapsed_seconds:
        Wall-clock time of the whole ``subsequent_query`` call.
    maintenance_seconds:
        Wall-clock time of the batch's ``SLen`` maintenance alone (graph
        application + maintenance kernels) — the quantity the execution
        planner's cost model predicts, and what the experiment reports
        record per batch.
    updates_processed:
        Number of updates in the batch.
    refinement_passes:
        How many incremental GPNM (amendment) passes were run — the
        quantity the elimination machinery reduces.
    slen_updates:
        How many ``SLen`` maintenance passes were run.  The per-update
        path counts one per data update; a coalesced pass counts one per
        batch.
    recomputed_rows:
        How many whole BFS rows were recomputed during maintenance.
    eliminated_updates:
        ``|Ue|`` — updates subsumed by the EH-Tree (zero for algorithms
        that do not build one).
    elimination_relations:
        Total elimination relationships detected.
    coalesced_batches:
        How many coalesced maintenance passes were run (coalescing
        strategies only).
    compiled_away_updates:
        Updates removed by the batch compiler before processing
        (duplicates, inverse pairs, subsumed edge operations).
    planned_strategy:
        The maintenance strategy the execution planner chose for the
        batch (``"per-update"``, ``"coalesced"`` or ``"partitioned"``;
        empty for algorithms that do not plan, e.g. the oracle).  For
        INC-GPNM — per-update by definition — a coalescing decision
        only canonicalises the stream; maintenance itself stays
        per-update regardless of the recorded plan.
    """

    elapsed_seconds: float = 0.0
    maintenance_seconds: float = 0.0
    updates_processed: int = 0
    refinement_passes: int = 0
    slen_updates: int = 0
    recomputed_rows: int = 0
    eliminated_updates: int = 0
    elimination_relations: int = 0
    coalesced_batches: int = 0
    compiled_away_updates: int = 0
    planned_strategy: str = ""

    def as_dict(self) -> dict[str, float | str]:
        """Plain-dict copy (used by the experiment reports)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "maintenance_seconds": self.maintenance_seconds,
            "updates_processed": self.updates_processed,
            "refinement_passes": self.refinement_passes,
            "slen_updates": self.slen_updates,
            "recomputed_rows": self.recomputed_rows,
            "eliminated_updates": self.eliminated_updates,
            "elimination_relations": self.elimination_relations,
            "coalesced_batches": self.coalesced_batches,
            "compiled_away_updates": self.compiled_away_updates,
            "planned_strategy": self.planned_strategy,
        }


@dataclass
class SubsequentResult:
    """The answer to one subsequent query."""

    result: MatchResult
    stats: QueryStats
    eh_tree: Optional[EHTree] = None
    #: The execution planner's decision for the batch (``None`` for
    #: algorithms that do not plan, e.g. the from-scratch oracle).
    plan: Optional[PlanReport] = None


class GPNMAlgorithm(abc.ABC):
    """Base class for the four compared GPNM methods.

    Parameters
    ----------
    pattern / data:
        The initial pattern and data graphs; private copies are taken.
    use_partition:
        Whether the label-based partition accelerates ``SLen``
        construction and maintenance (Section V).
    enforce_totality:
        Whether returned :class:`MatchResult` objects collapse to empty
        when some pattern node has no match (the paper's GPNM semantics).
    batch_plan:
        Maintenance-strategy selection for each batch, decided by the
        execution planner (:mod:`repro.batching.planner`):

        * ``"auto"`` — **the default**: the planner's cost model picks
          the cheapest strategy per batch (insert-dominated batches are
          routed away from coalescing, small batches stay per-update).
          The default flipped from ``"per-update"`` once the planner
          soaked behind the 52-seed differential harness and the 50-seed
          strategy-equivalence suite (both in the CI no-skip gate);
        * ``"per-update"`` — one ``update_slen`` pass per data update;
        * ``"coalesced"`` — compile the batch and maintain ``SLen`` with
          one coalesced pass; results are identical, the work scales
          with the *net* delta;
        * ``"partitioned"`` — coalesced maintenance whose deletion
          settle routes row-heavy sources through the label partition
          (degrades to ``"coalesced"`` when ``use_partition`` is off).

        ``None`` selects ``"auto"``.
    coalesce_min_batch:
        The planner's crossover rule: ``auto``-planned batches smaller
        than this stay on per-update maintenance (below the threshold
        the compile+coalesce fixed costs exceed the savings).  The
        default (64) is where ``BENCH_batching.json`` shows the
        coalesced path stops losing (about par at 64, decisive wins by
        256 on deletion-bearing mixes).  Forced strategies ignore it.
    slen_backend:
        ``SLen`` storage backend (``"sparse"`` / ``"dense"`` / ``"auto"``,
        see :mod:`repro.spl.backend`).  ``None`` inherits the backend of
        ``precomputed_slen`` when given, otherwise ``"sparse"``.
    dense_block_size:
        Block edge of the blocked dense layout (``None`` = the
        :data:`repro.spl.dense.DEFAULT_DENSE_BLOCK_SIZE` default);
        ignored by the sparse backend.
    cost_model:
        The planner's :class:`~repro.batching.planner.CostModel`
        (``None`` = the shipped
        :data:`~repro.batching.planner.DEFAULT_COST_MODEL`).
    """

    #: Human-readable name used in experiment reports.
    name: str = "base"

    def __init__(
        self,
        pattern: PatternGraph,
        data: DataGraph,
        use_partition: bool = False,
        enforce_totality: bool = True,
        precomputed_slen: Optional[SLenMatrix] = None,
        precomputed_relation: Optional[MatchResult] = None,
        coalesce_min_batch: int = DEFAULT_COALESCE_MIN_BATCH,
        slen_backend: Optional[str] = None,
        dense_block_size: Optional[int] = None,
        batch_plan: Optional[str] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self._pattern = pattern.copy()
        self._data = data.copy()
        self._use_partition = use_partition
        self._enforce_totality = enforce_totality
        if batch_plan is None:
            batch_plan = STRATEGY_AUTO
        elif batch_plan not in PLAN_CHOICES:
            raise ValueError(
                f"unknown batch_plan {batch_plan!r}; expected one of {PLAN_CHOICES}"
            )
        self._batch_plan = batch_plan
        self._coalesce_min_batch = coalesce_min_batch
        self._cost_model = cost_model
        self._last_plan: Optional[PlanReport] = None
        #: Pattern-independent outcome of the most recent batch (the
        #: maintained data updates + their affected region), consumed by
        #: the multi-pattern subscription fan-out.
        self._last_shared_delta: Optional[SharedDelta] = None
        self._last_affected_sets: tuple[AffectedSet, ...] = ()
        self._last_maintained_updates: tuple[Update, ...] = ()
        #: Cross-batch LabelPartition cache for the partitioned route,
        #: trusted only while ``_partition_version`` matches the data
        #: graph's mutation counter.
        self._partition_cache: Optional[LabelPartition] = None
        self._partition_version: int = -1
        if precomputed_slen is not None:
            # The experiment harness shares one initial-query state across
            # the compared methods so that only the subsequent query is
            # re-measured; the matrix is copied because it will be mutated.
            if slen_backend is None:
                self._slen = precomputed_slen.copy()
            else:
                self._slen = precomputed_slen.to_backend(
                    slen_backend, dense_block_size=dense_block_size
                )
        elif use_partition:
            partition = LabelPartition.from_graph(self._data)
            self._slen = build_slen_partitioned(
                self._data,
                partition,
                backend=slen_backend if slen_backend is not None else "sparse",
                dense_block_size=dense_block_size,
            )
            # The construction partition seeds the cross-batch cache.
            self._partition_cache = partition
            self._partition_version = self._data.version
        else:
            self._slen = SLenMatrix.from_graph(
                self._data,
                backend=slen_backend if slen_backend is not None else "sparse",
                dense_block_size=dense_block_size,
            )
        if (
            use_partition
            and self._partition_cache is None
            and self._batch_plan in (STRATEGY_AUTO, STRATEGY_PARTITIONED)
        ):
            # Seed the cache on the precomputed-SLen path too (the
            # experiment harness always takes it): building here keeps
            # the O(V + E) partition construction out of the timed
            # maintenance window, so partitioned-route maintenance_seconds
            # are not inflated by setup the cache exists to amortise.  Plans
            # that can never route partitioned skip the build (the
            # lazy rebuild in _settle_partition covers stragglers).
            self._partition_cache = LabelPartition.from_graph(self._data)
            self._partition_version = self._data.version
        if precomputed_relation is not None:
            self._relation = MatchResult(precomputed_relation.as_dict(), enforce_totality=False)
        else:
            relation = bounded_simulation(self._pattern, self._data, self._slen)
            self._relation = MatchResult(relation, enforce_totality=False)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def initial_result(self) -> MatchResult:
        """``IQuery`` — the matching result of the current internal state."""
        return MatchResult(self._relation.as_dict(), enforce_totality=self._enforce_totality)

    @property
    def pattern(self) -> PatternGraph:
        """A copy of the algorithm's current pattern graph."""
        return self._pattern.copy()

    @property
    def data(self) -> DataGraph:
        """A copy of the algorithm's current data graph."""
        return self._data.copy()

    @property
    def slen(self) -> SLenMatrix:
        """A copy of the maintained shortest path length matrix."""
        return self._slen.copy()

    def shared_state(self) -> tuple[DataGraph, SLenMatrix]:
        """Borrowed references to the live ``(data, slen)`` state.

        Unlike :attr:`data` / :attr:`slen` (which copy) this hands out
        the algorithm's own objects, so pattern-independent state can be
        shared read-only across many standing patterns.  Callers must
        treat both as immutable and must not hold them across a later
        ``subsequent_query`` (which mutates them in place).
        """
        return self._data, self._slen

    @property
    def last_shared_delta(self) -> Optional[SharedDelta]:
        """The :class:`~repro.matching.shared.SharedDelta` of the most
        recent :meth:`subsequent_query` (``None`` before the first batch).
        The delta's updates are the *maintained* stream — post batch
        compilation on coalesced routes — which has the same net effect
        as the submitted batch."""
        return self._last_shared_delta

    def fork_state(self) -> tuple[DataGraph, SLenMatrix, Optional[LabelPartition]]:
        """A consistent ``(data, slen, partition)`` snapshot of internal state.

        The graph and (warm) partition are deep-copied — they are
        O(|V| + |E|) — while the ``SLen`` matrix is **forked**
        (copy-on-write on the blocked dense backend, so the O(|V|²)
        payload is shared until a later batch writes a block).  This is
        the cheap snapshot-publication primitive behind
        :mod:`repro.versioning`; the returned triple never mutates, and
        the algorithm stays fully usable.  The partition is ``None``
        when partitioned maintenance is disabled or the cache is cold.
        """
        partition: Optional[LabelPartition] = None
        if (
            self._partition_cache is not None
            and self._partition_version == self._data.version
        ):
            partition = self._partition_cache.copy()
        return self._data.copy(), self._slen.fork(), partition

    @property
    def uses_partition(self) -> bool:
        """Whether the label partition is in use."""
        return self._use_partition

    @property
    def batch_plan(self) -> str:
        """The requested batch plan (``"auto"`` or a forced strategy)."""
        return self._batch_plan

    @property
    def coalesces_updates(self) -> bool:
        """Whether the batch plan can route batches to a coalesced pass."""
        return self._batch_plan != STRATEGY_PER_UPDATE

    @property
    def slen_backend(self) -> str:
        """Resolved name of the ``SLen`` storage backend in use."""
        return self._slen.backend_name

    @property
    def cost_model(self) -> CostModel:
        """The planner's cost model (``DEFAULT_COST_MODEL`` unless one was passed)."""
        return self._cost_model or DEFAULT_COST_MODEL

    def _plan_data_batch(self, data_updates: Sequence[Update], batch_size: int) -> PlanReport:
        """Run the execution planner for one batch's data updates.

        Subsumes the old static ``coalesce_min_batch`` guard: the
        threshold is one planner rule, and the planner's decision — not a
        raw flag — selects the maintenance strategy (it is recorded in
        ``stats.planned_strategy`` and surfaced as
        :attr:`SubsequentResult.plan`).
        """
        statistics = BatchStatistics.from_updates(
            data_updates,
            node_count=self._data.number_of_nodes,
            backend=self._slen.backend_name,
            partition_available=self._use_partition,
            batch_size=batch_size,
        )
        plan = plan_batch(
            statistics,
            requested=self._batch_plan,
            min_batch=self._coalesce_min_batch,
            model=self._cost_model,
        )
        self._last_plan = plan
        return plan

    def subsequent_query(self, updates: Iterable[Update]) -> SubsequentResult:
        """Apply ``updates`` and answer the subsequent GPNM query."""
        batch = updates if isinstance(updates, UpdateBatch) else UpdateBatch(updates)
        stats = QueryStats(updates_processed=len(batch))
        self._last_plan = None
        self._last_affected_sets = ()
        self._last_maintained_updates = ()
        started = time.perf_counter()
        relation, eh_tree = self._process_batch(batch, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        self._last_shared_delta = shared_delta_from_batch(
            self._last_maintained_updates, self._last_affected_sets, self._data
        )
        self._relation = relation
        return SubsequentResult(
            result=MatchResult(relation.as_dict(), enforce_totality=self._enforce_totality),
            stats=stats,
            eh_tree=eh_tree,
            plan=self._last_plan,
        )

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _process_batch(
        self, batch: UpdateBatch, stats: QueryStats
    ) -> tuple[MatchResult, Optional[EHTree]]:
        """Apply the batch, update internal state and return the new relation."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _apply_data_update(self, update: Update, stats: QueryStats) -> AffectedSet:
        """Apply a data update to the graph and maintain ``SLen``.

        Partition-cache mirroring happens *outside* the timed window:
        the benchmark's per-update branch does no partition bookkeeping,
        and ``maintenance_seconds`` must time the same work it does.
        """
        tracking = self._partition_tracking()
        started = time.perf_counter()
        update.apply(self._data)
        delta = update_slen(self._slen, self._data, update)
        stats.maintenance_seconds += time.perf_counter() - started
        if tracking:
            self._track_partition(update)
        stats.slen_updates += 1
        stats.recomputed_rows += len(delta.recomputed_sources)
        return affected_set_from_delta(update, delta)

    def _compile_timed(self, updates, stats: QueryStats) -> CompiledBatch:
        """:func:`compile_batch` with its wall-clock charged to
        ``stats.maintenance_seconds``.

        The cost model's ``coalesce_fixed_overhead`` covers compile +
        setup and the batching benchmark times the compile, so
        ``maintenance_seconds`` includes it too: both then measure the
        same coalesced cost.
        """
        started = time.perf_counter()
        compiled = compile_batch(updates)
        stats.maintenance_seconds += time.perf_counter() - started
        stats.compiled_away_updates += compiled.report.eliminated
        return compiled

    def _execute_data_plan(
        self, data_updates: Sequence[Update], stats: QueryStats, plan: PlanReport
    ) -> list[AffectedSet]:
        """Apply ``data_updates`` along the planner's chosen route."""
        if plan.strategy != STRATEGY_PER_UPDATE and data_updates:
            affected = self._apply_data_updates_coalesced(
                data_updates,
                stats,
                partitioned=plan.strategy == STRATEGY_PARTITIONED,
            )
        else:
            affected = [self._apply_data_update(update, stats) for update in data_updates]
        # Stash the maintained stream + its affected region so the batch's
        # SharedDelta can be assembled once maintenance is done.
        self._last_maintained_updates = tuple(data_updates)
        self._last_affected_sets = tuple(affected)
        return affected

    def _apply_data_updates_coalesced(
        self,
        data_updates: Sequence[Update],
        stats: QueryStats,
        partitioned: bool = False,
    ) -> list[AffectedSet]:
        """Apply an already-compiled data-update stream in one coalesced pass.

        The updates must be canonical (as produced by
        :func:`repro.batching.compiler.compile_batch`): all structural
        changes are applied to the graph first, then ``SLen`` is
        maintained by a single :func:`~repro.batching.coalesce.coalesce_slen`
        call — or, with ``partitioned``, by
        :func:`~repro.partition.partitioned_spl.coalesce_slen_partitioned`,
        whose deletion settle goes through the label partition.  Returns
        per-update affected sets built from the pass's attribution
        deltas, so the elimination machinery keeps working.
        """
        if not data_updates:
            return []
        # The partitioned route's deletion bookkeeping (_settle_partition)
        # is timed — the benchmark's partitioned branch pays the same cost
        # — but cache *upkeep* (committing insertions, mirroring updates
        # on non-partitioned routes) is not: the benchmark does neither,
        # and maintenance_seconds must time the same work it does.
        tracking = not partitioned and self._partition_tracking()
        started = time.perf_counter()
        partition = self._settle_partition(data_updates) if partitioned else None
        try:
            for update in data_updates:
                update.apply(self._data)
            if partitioned:
                outcome = coalesce_slen_partitioned(
                    self._slen, self._data, data_updates, partition=partition
                )
            else:
                outcome = coalesce_slen(self._slen, self._data, data_updates)
        except Exception:
            # Keep failures non-corrupting: the graph may already hold some
            # of the batch, so resync the matrix to whatever state it
            # reached before re-raising.  A caller that catches the error
            # is left with a consistent (graph, SLen) pair.
            self._invalidate_partition_cache()
            self._slen = SLenMatrix.from_graph(
                self._data,
                horizon=self._slen.horizon,
                backend=self._slen.backend_name,
                dense_block_size=getattr(self._slen.backend, "block_size", None),
            )
            raise
        stats.maintenance_seconds += time.perf_counter() - started
        if partition is not None:
            self._commit_partition_cache(data_updates)
        elif tracking:
            for update in data_updates:
                self._track_partition(update)
        stats.slen_updates += 1
        stats.coalesced_batches += 1
        stats.recomputed_rows += len(outcome.delta.recomputed_sources)
        return [
            affected_set_from_delta(update, delta)
            for update, delta in zip(data_updates, outcome.per_update)
        ]

    # ------------------------------------------------------------------
    # Cross-batch LabelPartition cache (the partitioned route's O(V + E)
    # per-batch partition rebuild becomes O(|batch|) bookkeeping)
    # ------------------------------------------------------------------
    def _settle_partition(self, data_updates: Sequence[Update]) -> Optional[LabelPartition]:
        """The deletions-only :class:`LabelPartition` the partitioned
        settle needs, served from (and maintained into) the cache.

        The cache is trusted only while ``_partition_version`` matches
        :attr:`DataGraph.version`; any out-of-band mutation forces a
        rebuild.  The batch's deletions are applied to the cached
        partition *before* the graph changes, yielding exactly the
        partition of the deletions-only graph.  The cache is a pure
        optimisation: on any failure it is dropped and ``None`` is
        returned, making the settle derive its own partition.
        """
        if not self._use_partition:
            return None
        try:
            if (
                self._partition_cache is None
                or self._partition_version != self._data.version
            ):
                self._partition_cache = LabelPartition.from_graph(self._data)
                self._partition_version = self._data.version
            for update in data_updates:
                if update.is_deletion:
                    self._partition_cache.apply_update(update)
            return self._partition_cache
        except Exception:
            self._invalidate_partition_cache()
            return None

    def _commit_partition_cache(self, data_updates: Sequence[Update]) -> None:
        """Roll the cached partition forward over the batch's insertions
        so it matches the post-batch graph (deletions were applied by
        :meth:`_settle_partition`)."""
        if self._partition_cache is None:
            return
        try:
            for update in data_updates:
                if update.is_insertion:
                    self._partition_cache.apply_update(update)
        except Exception:
            self._invalidate_partition_cache()
            return
        self._partition_version = self._data.version

    def _invalidate_partition_cache(self) -> None:
        """Drop the cached partition (next partitioned batch rebuilds)."""
        self._partition_cache = None
        self._partition_version = -1

    def _partition_tracking(self) -> bool:
        """Whether the cache is warm enough to mirror graph mutations
        (it must match the graph *before* the mutation being applied).
        Plans that can never route partitioned don't track — the cache
        would be maintained forever without a consumer."""
        return (
            self._batch_plan in (STRATEGY_AUTO, STRATEGY_PARTITIONED)
            and self._partition_cache is not None
            and self._partition_version == self._data.version
        )

    def _track_partition(self, update: Update) -> None:
        """Mirror one just-applied data update on the warm cache, so
        per-update and plain-coalesced routes keep it from going cold
        between partitioned batches.  O(1)-ish per edit; any failure
        just drops the cache (pure optimisation)."""
        if self._partition_cache is None:
            return
        try:
            self._partition_cache.apply_update(update)
        except Exception:
            self._invalidate_partition_cache()
            return
        self._partition_version = self._data.version

    def _apply_pattern_update(self, update: Update, stats: QueryStats) -> CandidateSet:
        """Compute the candidate set of a pattern update, then apply it."""
        candidates = candidate_set(
            update, self._pattern, self._data, self._slen, self._relation
        )
        update.apply(self._pattern)
        return candidates

    def _amend(self, updates: Iterable[Update], stats: QueryStats) -> None:
        """Run one incremental amendment pass over ``updates``."""
        self._relation = amend_match(
            self._relation,
            self._pattern,
            self._data,
            self._slen,
            updates,
            enforce_totality=False,
        )
        stats.refinement_passes += 1

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(pattern_nodes={self._pattern.number_of_nodes}, "
            f"data_nodes={self._data.number_of_nodes}, partition={self._use_partition})"
        )
