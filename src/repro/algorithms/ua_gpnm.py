"""UA-GPNM: the paper's updates-aware GPNM algorithm (Section VI).

UA-GPNM processes a subsequent query in three steps:

1. maintain the shortest path length matrix for every data update
   (using the label partition of Section V to recompute affected rows
   when ``use_partition`` is on), collecting the affected sets
   ``Aff_N(UDi)``;
2. compute the candidate sets ``Can_N(UPi)`` of the pattern updates, from
   which DER-I / DER-II / DER-III and the EH-Tree index the elimination
   relationships;
3. amend the matching result with a *single* incremental GPNM pass — the
   per-update passes INC-GPNM would spend on the eliminated updates
   (``|Ue|`` in the complexity analysis) are never run.

The amend is seeded from the whole (compiled) batch, which keeps the
answer exact however much was eliminated, so the query never reads the
EH-Tree: the analysis and the tree are built from the kept sets on first
read of ``SubsequentResult.eh_tree`` or of the ``QueryStats`` elimination
counters (:class:`~repro.algorithms.base.DeferredElimination`).

``UAGPNM(use_partition=False)`` is the UA-GPNM-NoPar baseline of the
experiments: identical elimination machinery, but plain per-source BFS
whenever ``SLen`` rows must be recomputed.

With ``use_partition`` on, the partitioned-coalesced maintenance route
builds the label partition of the deletions-only graph inside each
row-heavy deletion settle
(:func:`~repro.partition.partitioned_spl.coalesce_slen_partitioned`);
no partition is kept between batches.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms.base import DeferredElimination, GPNMAlgorithm, QueryStats
from repro.elimination.detector import detect_all
from repro.graph.digraph import DataGraph
from repro.graph.errors import GraphError
from repro.graph.pattern import PatternGraph
from repro.graph.updates import EdgeInsertion, UpdateBatch
from repro.matching.candidates import CandidateSet, candidate_set
from repro.matching.gpnm import MatchResult


class UAGPNM(GPNMAlgorithm):
    """The updates-aware GPNM algorithm (with or without the label partition)."""

    name = "UA-GPNM"

    def __init__(
        self,
        pattern: PatternGraph,
        data: DataGraph,
        use_partition: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(pattern, data, use_partition=use_partition, **kwargs)
        if not use_partition:
            self.name = "UA-GPNM-NoPar"

    def _process_batch(self, batch: UpdateBatch, stats: QueryStats) -> MatchResult:
        # Step 0: the execution planner routes the batch to per-update,
        # coalesced or partitioned-coalesced maintenance (one decision
        # point; the old ``coalesce_min_batch`` guard is a planner rule).
        # On a coalescing route the batch is first compiled down to its
        # net effect — duplicates, inverse pairs and subsumed edge
        # operations never reach the maintenance machinery below.
        plan = self._plan_data_batch(batch.data_updates(), len(batch))
        stats.planned_strategy = plan.strategy
        working: UpdateBatch = batch
        if plan.strategy != "per-update":
            compiled = self._compile_timed(batch, stats)
            working = compiled.batch
            plan = dataclasses.replace(plan, compilation=compiled.report)
            self._last_plan = plan
        data_updates = working.data_updates()
        pattern_updates = working.pattern_updates()

        # Step 1: candidate sets Can_N(UPi) against the pre-batch state
        # (Algorithm 1 / DER-I works on the original SLen; DER-III then
        # re-checks the candidates against the updated SLen).
        candidate_sets = []
        for update in pattern_updates:
            try:
                candidate_sets.append(
                    candidate_set(update, self._pattern, self._data, self._slen, self._relation)
                )
            except GraphError:
                # Exotic interactions inside one batch (e.g. an edge update
                # referencing a pattern node inserted by the same batch)
                # simply yield an empty candidate set.
                candidate_sets.append(CandidateSet(update=update))

        # Step 2: apply data updates, maintaining SLen and collecting Aff_N.
        # On a coalescing route the compiled stream is maintained by a
        # single multi-source pass instead of one update_slen call per
        # update (through the label partition on the partitioned route).
        affected_sets = self._execute_data_plan(data_updates, stats, plan)

        # Step 3: apply the pattern updates themselves.
        for update in pattern_updates:
            update.apply(self._pattern)

        # Step 4: DER-I/II/III and the EH-Tree over the whole (compiled)
        # batch, deferred until something reads them.  DER-III reads the
        # post-batch SLen, which the next batch mutates in place, so it is
        # frozen here -- only when the batch holds a pattern edge
        # insertion, DER-III's only trigger (no other relation reads SLen).
        slen_after = (
            self._slen.fork()
            if any(isinstance(update, EdgeInsertion) for update in pattern_updates)
            else None
        )
        stats.elimination = DeferredElimination(
            lambda: detect_all(candidate_sets, affected_sets, slen_after), list(working)
        )

        # Step 5: a single incremental GPNM pass over the whole batch
        # delivers SQuery.  (It is seeded from the whole batch's growth
        # analysis, not just the EH-Tree roots, so the result is exact
        # regardless of how aggressive the elimination was; with
        # coalescing on it is seeded from the net delta only, which is
        # what makes the latency scale with the net batch size.)
        # (If the whole batch compiled away, the graphs are unchanged and
        # the previous relation is already the answer.)
        if len(working):
            self._amend(list(working), stats)
        return self._relation


def make_ua_gpnm(pattern: PatternGraph, data: DataGraph, **kwargs) -> UAGPNM:
    """Factory for the full UA-GPNM (partition enabled)."""
    return UAGPNM(pattern, data, use_partition=True, **kwargs)


def make_ua_gpnm_nopar(pattern: PatternGraph, data: DataGraph, **kwargs) -> UAGPNM:
    """Factory for the UA-GPNM-NoPar baseline (partition disabled)."""
    return UAGPNM(pattern, data, use_partition=False, **kwargs)
