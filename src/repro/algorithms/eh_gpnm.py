"""EH-GPNM [14]: elimination relationships among data updates only.

EH-GPNM detects the single-graph elimination relationships in the *data*
graph (Type II), indexes them in an EH-Tree and amends the matching
result once for the whole set of data updates.  Pattern updates are not
analysed: each one still triggers its own incremental GPNM procedure,
which is the gap UA-GPNM closes.

As in UA-GPNM, the Type II analysis and the EH-Tree are built on first
read of ``SubsequentResult.eh_tree`` or the elimination counters, from
the affected sets the data side keeps.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms.base import DeferredElimination, GPNMAlgorithm, QueryStats
from repro.elimination.detector import EliminationAnalysis, detect_type_ii
from repro.graph.updates import UpdateBatch
from repro.matching.gpnm import MatchResult


class EHGPNM(GPNMAlgorithm):
    """The EH-GPNM baseline: data-side elimination, per-update pattern processing."""

    name = "EH-GPNM"

    def _process_batch(self, batch: UpdateBatch, stats: QueryStats) -> MatchResult:
        data_updates = batch.data_updates()
        pattern_updates = batch.pattern_updates()

        # Data side: maintain SLen, then amend once for the whole data
        # batch; the Type II analysis over its affected sets is deferred
        # until read (it never reads SLen, so nothing is frozen).  The
        # execution planner routes the data stream: on a coalescing route
        # it is first compiled to its net effect and maintained by one
        # coalesced pass; the pattern side keeps its per-update
        # procedure, which is what defines EH-GPNM.  (EH-GPNM runs without
        # the label partition, so a forced "partitioned" plan degrades to
        # "coalesced".)  The plan sees the full batch length, like every
        # other algorithm, so the min_batch crossover rule routes the same
        # workload identically across methods.
        plan = self._plan_data_batch(data_updates, len(batch))
        stats.planned_strategy = plan.strategy
        if plan.strategy != "per-update":
            compiled = self._compile_timed(data_updates, stats)
            data_updates = compiled.data_updates()
            plan = dataclasses.replace(plan, compilation=compiled.report)
            self._last_plan = plan
        affected_sets = self._execute_data_plan(data_updates, stats, plan)
        stats.elimination = DeferredElimination(
            lambda: EliminationAnalysis(
                affected_sets=affected_sets, relations=detect_type_ii(affected_sets)
            ),
            data_updates,
        )
        if data_updates:
            self._amend(data_updates, stats)

        # Pattern side: no elimination analysis; one incremental procedure
        # per pattern update, as the paper describes.
        for update in pattern_updates:
            self._apply_pattern_update(update, stats)
            self._amend([update], stats)
        return self._relation
