"""From-scratch GPNM: the correctness oracle and the "no reuse" baseline.

``BatchGPNM`` answers a subsequent query exactly the way the pre-GPNM
literature would: apply all the updates, rebuild the shortest path length
matrix from the updated data graph, and run the bounded-simulation
fixpoint from the label candidates.  It reuses nothing from the initial
query, which is what makes it slow — and what makes it the ideal oracle
against which every incremental algorithm is validated.
"""

from __future__ import annotations


from repro.algorithms.base import GPNMAlgorithm, QueryStats
from repro.graph.updates import UpdateBatch
from repro.matching.bgs import bounded_simulation
from repro.matching.gpnm import MatchResult
from repro.partition.label_partition import LabelPartition
from repro.partition.partitioned_spl import build_slen_partitioned
from repro.spl.matrix import SLenMatrix


class BatchGPNM(GPNMAlgorithm):
    """Recompute the GPNM result from scratch for every subsequent query."""

    name = "Scratch-GPNM"

    def _process_batch(self, batch: UpdateBatch, stats: QueryStats) -> MatchResult:
        batch.apply_all(self._data, self._pattern)
        if self._use_partition and self._slen.horizon == float("inf"):
            partition = LabelPartition.from_graph(self._data)
            self._slen = build_slen_partitioned(self._data, partition)
        else:
            self._slen = SLenMatrix.from_graph(
                self._data, horizon=self._slen.horizon, backend=self._slen.backend_name
            )
        stats.recomputed_rows += self._data.number_of_nodes
        relation = bounded_simulation(self._pattern, self._data, self._slen)
        stats.refinement_passes += 1
        return MatchResult(relation, enforce_totality=False)
