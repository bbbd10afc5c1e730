"""Adaptive batch execution planner: cost-model routing of ``SLen`` maintenance.

PR 2's benchmarks established that no single update-processing strategy
wins everywhere:

* **per-update** maintenance (one :func:`repro.spl.incremental.update_slen`
  call per update) is fastest for small batches — the compile+coalesce
  fixed costs exceed the savings below the ``BENCH_batching.json``
  crossover — and for *insert-dominated* batches, where the coalesced
  relaxation sweep repeats the same relaxations plus attribution
  bookkeeping (a structural non-win at every measured size);
* **coalesced** maintenance (:func:`repro.batching.coalesce.coalesce_slen`
  over a compiled stream) wins 1.5–2.5x on deletion-bearing batches above
  the crossover, because all deletions share one affected-region settle
  per source (or per target, with the transposed sweep);
* **partitioned-coalesced** maintenance
  (:func:`repro.partition.partitioned_spl.coalesce_slen_partitioned`)
  additionally recomputes row-heavy affected sources through the label
  partition (intra-component BFS + bridge composition — UA-GPNM's
  Section V advantage), which pays off once the deletion volume is large
  enough to amortise the quotient condensation.

:func:`plan_batch` unifies those routing decisions behind one decision
point.  It takes the batch statistics (insert/delete ratio, batch size,
node count, backend, partition availability) and either honours a forced
strategy or — for ``"auto"`` — picks the cheapest strategy under a small
linear cost model whose constants are calibrated from the
``BENCH_batching.json`` / ``BENCH_slen_backend.json`` crossovers.  The
old static ``coalesce_min_batch`` guard survives as exactly one planner
rule (rule 1 below).

Auto routing rules, in order:

1. batches below ``min_batch`` (or with fewer than two data updates) run
   per-update — the former ``coalesce_min_batch`` guard;
2. batches without deletions run per-update (coalescing insertions is a
   structural non-win);
3. insert-dominated batches (insert fraction at or above
   :attr:`CostModel.insert_route_threshold`) run per-update;
4. otherwise the strategy with the lowest estimated cost wins;
   partitioned-coalesced is only a candidate when a label partition is
   available.

Every decision is recorded in a :class:`PlanReport` (chosen strategy,
the statistics it saw, the per-strategy cost estimates and a
human-readable reason), which the algorithms surface through
:class:`~repro.algorithms.base.SubsequentResult` and the experiment
runner records.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

from repro.batching.coalesce import DEFAULT_COALESCE_MIN_BATCH
from repro.batching.compiler import CompilationReport
from repro.graph.updates import GraphKind, Update

#: The three executable maintenance strategies.
STRATEGY_PER_UPDATE = "per-update"
STRATEGY_COALESCED = "coalesced"
STRATEGY_PARTITIONED = "partitioned"
#: Let the cost model decide.
STRATEGY_AUTO = "auto"

STRATEGIES: tuple[str, ...] = (
    STRATEGY_PER_UPDATE,
    STRATEGY_COALESCED,
    STRATEGY_PARTITIONED,
)
#: Every value accepted wherever a plan is requested.
PLAN_CHOICES: tuple[str, ...] = (STRATEGY_AUTO,) + STRATEGIES

# ----------------------------------------------------------------------
# Cost model.  Unit: "one per-update maintenance pass", so the
# per-update strategy costs exactly ``data_updates``.  The shipped
# default is calibrated from BENCH_batching.json (sparse, 320 nodes,
# horizon 4), re-measured after the per-target transposed deletion sweep
# landed:
#
# * delete-bearing mixes now cross over at the 64-batch mark (1.0-1.2x
#   coalesced win at 64, 1.6-1.7x at 256) -> fixed overhead ~16 with a
#   deletion factor well under 1;
# * insert-heavy coalescing never wins (0.8-0.9x at every size); the
#   explicit insert-dominated routing rule handles those batches, and
#   the insertion factor stays high enough that near-threshold mixes
#   only coalesce once the deletion savings pay for the overhead;
# * the partition-aware settle adds an O(V + E) quotient condensation
#   plus the deletions-only graph build, so it only out-costs the plain
#   coalesced settle on large deletion volumes;
# * BENCH_slen_backend.json's coalesced-mixed rows show the dense
#   backend amortises the deletion settle better than sparse
#   (1.4-2.2x vs the per-kernel 1.2-1.7x), hence the dense discount.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """The planner's linear cost model, as an explicit immutable value.

    All coefficients are in per-update units (the per-update strategy
    costs exactly ``data_updates`` by construction, so it has no free
    coefficient).  The defaults are the shipped hand calibration from
    ``BENCH_batching.json`` and ``BENCH_slen_backend.json``
    (:data:`DEFAULT_COST_MODEL`); a caller that wants different routing
    passes its own model to :func:`plan_batch` or to an algorithm's
    ``cost_model``.

    Attributes
    ----------
    coalesce_fixed_overhead:
        Compile + coalesced-pass setup cost.
    coalesced_insert_factor:
        Per-insertion cost of the coalesced relaxation sweep.
    coalesced_delete_factor:
        Per-deletion cost of the shared affected-region settle (< 1 is
        the coalescing win).
    dense_coalesced_discount:
        Deletion-factor discount on the dense backend (batched settle
        kernel) — one coefficient of the **backend feature column**:
        the ``BatchStatistics.backend`` feature scales each strategy's
        terms so one calibration prices sparse and blocked-dense
        maintenance separately.
    partitioned_delete_factor:
        Per-deletion cost of the partition-aware settle (bridge
        composition).
    partition_overhead_per_node / partition_fixed_overhead:
        Quotient condensation is O(V + E): charged per node on top of
        the coalesced fixed overhead, plus a flat setup term.
    insert_route_threshold:
        Insert fraction at or above which auto always routes per-update.
    dense_per_update_factor:
        Backend feature column, per-update strategy: cost multiplier of
        one per-update maintenance pass on the dense backend (the unit
        is anchored on *sparse* per-update passes, so this is the
        relative per-pass cost of the blocked dense kernels; 1.0 =
        neutral).
    dense_coalesced_insert_discount:
        Backend feature column, coalesced insertion side: multiplier on
        ``coalesced_insert_factor`` when the backend is dense (the
        blocked rank-1 relaxation amortises differently from the sparse
        Python loop; 1.0 = neutral).
    """

    coalesce_fixed_overhead: float = 16.0
    coalesced_insert_factor: float = 0.9
    coalesced_delete_factor: float = 0.45
    dense_coalesced_discount: float = 0.9
    partitioned_delete_factor: float = 0.42
    partition_overhead_per_node: float = 1.0 / 64.0
    partition_fixed_overhead: float = 4.0
    insert_route_threshold: float = 0.75
    dense_per_update_factor: float = 1.0
    dense_coalesced_insert_discount: float = 1.0

    def estimate(self, statistics: "BatchStatistics") -> dict[str, float]:
        """Per-strategy cost estimates for one batch, in per-update units.

        The ``statistics.backend`` feature column scales the terms:
        on the dense backend the per-update pass costs
        ``dense_per_update_factor`` units, the coalesced insertion term
        is discounted by ``dense_coalesced_insert_discount`` and the
        deletion term by ``dense_coalesced_discount``.
        """
        insertions = statistics.insertions
        deletions = statistics.deletions
        per_update_unit = 1.0
        insert_factor = self.coalesced_insert_factor
        delete_factor = self.coalesced_delete_factor
        if statistics.backend == "dense":
            per_update_unit = self.dense_per_update_factor
            insert_factor *= self.dense_coalesced_insert_discount
            delete_factor *= self.dense_coalesced_discount
        costs = {
            STRATEGY_PER_UPDATE: float(statistics.data_updates) * per_update_unit,
            STRATEGY_COALESCED: (
                self.coalesce_fixed_overhead
                + insertions * insert_factor
                + deletions * delete_factor
            ),
        }
        if statistics.partition_available:
            costs[STRATEGY_PARTITIONED] = (
                self.coalesce_fixed_overhead
                + self.partition_fixed_overhead
                + statistics.node_count * self.partition_overhead_per_node
                + insertions * insert_factor
                + deletions * self.partitioned_delete_factor
            )
        return costs

    def replace(self, **changes) -> "CostModel":
        """A copy with ``changes`` applied (wrapper over dataclasses.replace)."""
        return dataclasses.replace(self, **changes)


#: The shipped calibration — what ``plan_batch`` uses when no explicit
#: model is handed in.
DEFAULT_COST_MODEL: CostModel = CostModel()


@dataclass(frozen=True)
class BatchStatistics:
    """The workload-shape inputs of the cost model.

    Attributes
    ----------
    batch_size:
        Total updates in the batch (pattern updates included — they ride
        along with the compile step but are never coalesced).
    data_updates:
        Data-graph updates (the ones ``SLen`` maintenance processes).
    insertions / deletions:
        Data-update counts by direction (a node insertion counts once,
        regardless of its payload edges).
    node_count:
        ``|VD|`` of the data graph at planning time.
    backend:
        Resolved ``SLen`` backend name (``"sparse"`` / ``"dense"``).
    partition_available:
        Whether a label partition can serve the partitioned-coalesced
        strategy (UA-GPNM with ``use_partition=True``).
    """

    batch_size: int
    data_updates: int
    insertions: int
    deletions: int
    node_count: int
    backend: str = "sparse"
    partition_available: bool = False

    @classmethod
    def from_updates(
        cls,
        updates: Iterable[Update],
        node_count: int,
        backend: str = "sparse",
        partition_available: bool = False,
        batch_size: Optional[int] = None,
    ) -> "BatchStatistics":
        """Collect statistics from an update stream.

        ``updates`` may mix pattern and data updates; only data updates
        count towards the maintenance ratios.  ``batch_size`` defaults to
        the length of ``updates``.
        """
        updates = list(updates)
        data = [u for u in updates if u.graph is GraphKind.DATA]
        insertions = sum(1 for u in data if u.is_insertion)
        return cls(
            batch_size=len(updates) if batch_size is None else batch_size,
            data_updates=len(data),
            insertions=insertions,
            deletions=len(data) - insertions,
            node_count=node_count,
            backend=backend,
            partition_available=partition_available,
        )

    @property
    def insert_fraction(self) -> float:
        """Fraction of data updates that are insertions (0 when empty)."""
        return self.insertions / self.data_updates if self.data_updates else 0.0

    @property
    def delete_fraction(self) -> float:
        """Fraction of data updates that are deletions (0 when empty)."""
        return self.deletions / self.data_updates if self.data_updates else 0.0


@dataclass(frozen=True)
class PlanReport:
    """One planning decision: what was chosen, from what, and why.

    Attributes
    ----------
    strategy:
        The chosen strategy (always one of :data:`STRATEGIES`).
    requested:
        What the caller asked for (``"auto"`` or a forced strategy; the
        chosen strategy can differ from a forced one only when the forced
        strategy is unavailable, e.g. partitioned without a partition).
    statistics:
        The :class:`BatchStatistics` the decision was based on.
    costs:
        Estimated cost per candidate strategy, in per-update units
        (partitioned is absent when no partition is available).
    reason:
        Human-readable rule that decided the route.
    compilation:
        The :class:`~repro.batching.compiler.CompilationReport` of the
        batch, filled in by the executing algorithm once the batch is
        compiled (``None`` on the per-update route, which skips the
        compiler).
    """

    strategy: str
    requested: str
    statistics: BatchStatistics
    costs: dict[str, float] = field(default_factory=dict)
    reason: str = ""
    compilation: Optional[CompilationReport] = None

    @property
    def forced(self) -> bool:
        """Whether the caller forced a strategy instead of ``auto``."""
        return self.requested != STRATEGY_AUTO

    def as_dict(self) -> dict:
        """Plain-dict summary (used by the runner records and benchmarks)."""
        return {
            "strategy": self.strategy,
            "requested": self.requested,
            "reason": self.reason,
            "batch_size": self.statistics.batch_size,
            "data_updates": self.statistics.data_updates,
            "insert_fraction": round(self.statistics.insert_fraction, 4),
            "backend": self.statistics.backend,
            "partition_available": self.statistics.partition_available,
            "costs": {name: round(cost, 3) for name, cost in self.costs.items()},
        }


def estimate_costs(
    statistics: BatchStatistics,
    min_batch: int = DEFAULT_COALESCE_MIN_BATCH,
    model: Optional[CostModel] = None,
) -> dict[str, float]:
    """Per-strategy cost estimates, in per-update units.

    The model is deliberately tiny and interpretable: per-update costs
    one unit per data update; the coalesced strategies pay a fixed
    compile+setup overhead plus per-insertion / per-deletion factors
    (:class:`CostModel` holds the calibration; ``None`` means the shipped
    :data:`DEFAULT_COST_MODEL`).  ``min_batch`` does not enter the
    estimates — it is a separate planner rule — but is accepted so
    callers can evolve the model without changing signatures.
    """
    del min_batch  # rule-based, not cost-based; see plan_batch
    return (model or DEFAULT_COST_MODEL).estimate(statistics)


def plan_batch(
    statistics: BatchStatistics,
    requested: str = STRATEGY_AUTO,
    min_batch: int = DEFAULT_COALESCE_MIN_BATCH,
    model: Optional[CostModel] = None,
) -> PlanReport:
    """Choose the maintenance strategy for one batch.

    ``requested`` is either a forced strategy (honoured verbatim, except
    that ``"partitioned"`` degrades to ``"coalesced"`` when no partition
    is available) or ``"auto"``, which applies the routing rules in the
    module docstring.  ``min_batch`` is the crossover batch size of
    rule 1 — the planner rule that subsumes the old static
    ``coalesce_min_batch`` guard.  ``model`` selects the
    :class:`CostModel` the estimates come from (``None`` = the shipped
    :data:`DEFAULT_COST_MODEL`).
    """
    if requested not in PLAN_CHOICES:
        raise ValueError(
            f"unknown batch plan {requested!r}; expected one of {PLAN_CHOICES}"
        )
    model = model or DEFAULT_COST_MODEL
    costs = model.estimate(statistics)

    if requested != STRATEGY_AUTO:
        strategy = requested
        reason = "forced by caller"
        if strategy == STRATEGY_PARTITIONED and not statistics.partition_available:
            strategy = STRATEGY_COALESCED
            reason = "partitioned forced but no label partition available; fell back to coalesced"
        return PlanReport(
            strategy=strategy,
            requested=requested,
            statistics=statistics,
            costs=costs,
            reason=reason,
        )

    if statistics.data_updates < 2 or statistics.batch_size < max(2, min_batch):
        strategy = STRATEGY_PER_UPDATE
        reason = (
            f"batch below the coalesce crossover (min_batch={min_batch}); "
            f"compile+coalesce fixed costs exceed the savings"
        )
    elif statistics.deletions == 0:
        strategy = STRATEGY_PER_UPDATE
        reason = "no deletions: coalescing insertions is a structural non-win"
    elif statistics.insert_fraction >= model.insert_route_threshold:
        strategy = STRATEGY_PER_UPDATE
        reason = (
            f"insert-dominated batch (insert fraction "
            f"{statistics.insert_fraction:.2f} >= {model.insert_route_threshold}); "
            f"routed away from coalescing"
        )
    else:
        strategy = min(costs, key=costs.get)
        reason = (
            f"lowest estimated cost ({costs[strategy]:.1f} per-update units) "
            f"among {sorted(costs)}"
        )
    return PlanReport(
        strategy=strategy,
        requested=requested,
        statistics=statistics,
        costs=costs,
        reason=reason,
    )
