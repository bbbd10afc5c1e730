"""INC-GPNM [13]: one incremental GPNM procedure per update.

INC-GPNM maintains the shortest path length index incrementally and
restricts the matching amendment to the area affected by each update —
but it processes the updates *one at a time*, running a full incremental
GPNM procedure (SLen maintenance + amendment pass) for every single
update in ``ΔGP`` and ``ΔGD``.  It is the strongest published baseline
the paper compares against, and the repeated passes are exactly the cost
UA-GPNM's elimination analysis removes.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms.base import GPNMAlgorithm, QueryStats
from repro.graph.updates import GraphKind, UpdateBatch
from repro.matching.gpnm import MatchResult


class IncGPNM(GPNMAlgorithm):
    """The INC-GPNM baseline: per-update incremental processing."""

    name = "INC-GPNM"

    def _process_batch(self, batch: UpdateBatch, stats: QueryStats) -> MatchResult:
        # INC-GPNM is per-update by definition, so a coalescing plan only
        # canonicalises the stream: duplicates, inverse pairs and
        # subsumed edge operations are compiled away before the
        # per-update loop (a per-update plan skips even that); each
        # survivor still gets its own maintenance + amendment.  The
        # recorded planned_strategy is the planner's decision — here it
        # means "compile first", never coalesced maintenance.
        plan = self._plan_data_batch(batch.data_updates(), len(batch))
        stats.planned_strategy = plan.strategy
        working: UpdateBatch = batch
        if plan.strategy != "per-update":
            compiled = self._compile_timed(batch, stats)
            working = compiled.batch
            plan = dataclasses.replace(plan, compilation=compiled.report)
            self._last_plan = plan
        for update in working:
            if update.graph is GraphKind.DATA:
                self._apply_data_update(update, stats)
            else:
                self._apply_pattern_update(update, stats)
            # One incremental GPNM procedure per update: amend the current
            # matching result for this update alone.
            self._amend([update], stats)
        return self._relation
