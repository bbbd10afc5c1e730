"""repro — a reproduction of "Updates-Aware Graph Pattern based Node Matching".

The package implements the paper's contribution (UA-GPNM) together with
every substrate it depends on: a directed labelled graph model, bounded
graph simulation, all-pairs shortest path length maintenance, label-based
graph partitioning, elimination-relationship detection, the EH-Tree
index, the compared baselines (INC-GPNM, EH-GPNM, UA-GPNM-NoPar, a
from-scratch oracle), synthetic workloads standing in for the five SNAP
datasets, and the experiment harness that regenerates every table and
figure of the evaluation section.

Quickstart
----------
>>> from repro import paper_example, UAGPNM
>>> data = paper_example.figure1_data_graph()
>>> pattern = paper_example.figure1_pattern_graph()
>>> engine = UAGPNM(pattern, data)
>>> sorted(engine.initial_result.matches("SE"))
['SE1', 'SE2']
>>> result = engine.subsequent_query(paper_example.example2_updates())
>>> result.stats.refinement_passes
1

Batch compilation, coalesced maintenance and the execution planner
------------------------------------------------------------------
Every algorithm accepts ``batch_plan=...``.  On a coalescing route, a
subsequent query first runs the batch through the **update-batch
compiler** (:func:`repro.batching.compile_batch`), which canonicalises
the stream — duplicates are dropped, inverse insert/delete pairs cancel,
edge operations subsumed by a node deletion disappear, a node deleted
and re-inserted survives as a resurrection pair, and the survivors are
reordered so they are always applicable.  The surviving data updates
are then maintained by **one coalesced ``SLen`` pass**
(:func:`repro.batching.coalesce_slen`): all deletions share a single
affected-region recompute per source (or per target — the transposed
sweep) and all insertions are applied in one multi-source relaxation
sweep.  With ``batch_plan="partitioned"`` the deletion settle routes
row-heavy sources through the label partition
(:func:`repro.partition.coalesce_slen_partitioned`).
``batch_plan="auto"`` — the **default** — has the execution planner
(:func:`repro.batching.plan_batch`) pick the cheapest strategy per
batch from an explicit, hand-calibrated
:class:`~repro.batching.CostModel`.  Results are bit-identical on every
route (``tests/test_differential.py`` and
``tests/batching/test_planner_equivalence.py`` check every method
and every forced strategy against the from-scratch oracle across 50+
seeds); on coalescing routes the cost scales with the batch's *net*
delta instead of its raw length — ``benchmarks/bench_batching.py``
measures the gap and the planner's routing accuracy.

>>> engine = UAGPNM(pattern, data, batch_plan="coalesced")
>>> engine.subsequent_query(paper_example.example2_updates()).stats.coalesced_batches
1

The experiment harness exposes the same switch as
``ExperimentConfig(batch_plan=...)`` and ``ua-gpnm --batch-plan``.
Auto-planned batches below the ``coalesce_min_batch`` crossover
(default 64, from the benchmark) stay on per-update maintenance — one
planner rule among several; ``ua-gpnm --help`` documents the full
strategy-selection policy.

Partition cache
---------------
UA-GPNM caches its :class:`~repro.partition.LabelPartition` across
batches (invalidated on
:attr:`DataGraph.version <repro.graph.digraph.DataGraph.version>`
changes, maintained incrementally per update), so the partitioned
route does not pay the partition's construction on every batch.

Pluggable ``SLen`` storage backends
-----------------------------------
The shortest-path matrix that everything above is built on accepts a
``backend`` selection (``"sparse"`` / ``"dense"`` / ``"auto"``, see
:mod:`repro.spl.backend`): the sparse dict-of-dicts default stores only
finite entries, while the dense NumPy backend keeps a contiguous
``int32`` matrix and replaces the three hot maintenance kernels with
vectorized equivalents (frontier-array multi-source BFS construction,
rank-1 broadcast insertion relaxation, batched affected-region deletion
settling).  Every algorithm takes ``slen_backend=...``, the harness
``ExperimentConfig(slen_backend=...)``, and the CLI
``ua-gpnm --slen-backend dense``; results are identical on both backends
(the differential harness runs every method under each) and
``benchmarks/bench_slen_backend.py`` measures the kernel speedups.
"""

from repro import paper_example
from repro.batching import (
    DEFAULT_COST_MODEL,
    BatchStatistics,
    CoalescedMaintenance,
    CompilationReport,
    CompiledBatch,
    CostModel,
    PlanReport,
    coalesce_slen,
    compile_batch,
    plan_batch,
)
from repro.algorithms import (
    BatchGPNM,
    EHGPNM,
    GPNMAlgorithm,
    IncGPNM,
    QueryStats,
    SubsequentResult,
    UAGPNM,
)
from repro.elimination import EHTree, EliminationRelation, EliminationType
from repro.graph import (
    DataGraph,
    EdgeDeletion,
    EdgeInsertion,
    GraphKind,
    NodeDeletion,
    NodeInsertion,
    PatternGraph,
    STAR,
    Update,
    UpdateBatch,
    UpdateKind,
)
from repro.matching import MatchResult, bounded_simulation, gpnm_query
from repro.partition import (
    LabelPartition,
    build_slen_partitioned,
    coalesce_slen_partitioned,
)
from repro.spl import (
    BACKEND_NAMES,
    DENSE_AUTO_THRESHOLD,
    INF,
    SLenBackend,
    SLenMatrix,
    fold_deltas,
    update_slen,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "paper_example",
    # graphs and updates
    "DataGraph",
    "PatternGraph",
    "STAR",
    "GraphKind",
    "UpdateKind",
    "Update",
    "EdgeInsertion",
    "EdgeDeletion",
    "NodeInsertion",
    "NodeDeletion",
    "UpdateBatch",
    # shortest paths
    "INF",
    "SLenMatrix",
    "SLenBackend",
    "BACKEND_NAMES",
    "DENSE_AUTO_THRESHOLD",
    "update_slen",
    "fold_deltas",
    # batching
    "CompilationReport",
    "CompiledBatch",
    "compile_batch",
    "CoalescedMaintenance",
    "coalesce_slen",
    "BatchStatistics",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "PlanReport",
    "plan_batch",
    # partition
    "LabelPartition",
    "build_slen_partitioned",
    "coalesce_slen_partitioned",
    # matching
    "MatchResult",
    "gpnm_query",
    "bounded_simulation",
    # elimination
    "EliminationType",
    "EliminationRelation",
    "EHTree",
    # algorithms
    "GPNMAlgorithm",
    "QueryStats",
    "SubsequentResult",
    "BatchGPNM",
    "IncGPNM",
    "EHGPNM",
    "UAGPNM",
]
