"""Single-pass ``SLen`` maintenance for a whole (compiled) update batch.

:func:`coalesce_slen` replaces the per-update
:func:`~repro.spl.incremental.update_slen` loop.  Given the *final*
data graph (all updates applied) and the *pre-batch* matrix, it

1. records the ``INF`` transitions of deleted nodes and adjusts the
   matrix universe (removed and inserted nodes) in one structural step;
2. identifies, **per source**, the union of targets affected by *any*
   deletion — using the pre-batch distances, exactly as the single-update
   affectedness test of Ramalingam & Reps — and settles each source's
   whole affected region with **one** bounded Dijkstra instead of one
   per deletion.  Inserted edges and nodes are skipped during this phase
   so it computes the exact distances of the deletions-only graph;
3. applies all surviving insertions in one multi-source relaxation sweep,
   iterated to a fixpoint (a second round only re-examines edges whose
   endpoint distances moved, so the common case costs one sweep).

The merged :class:`~repro.spl.incremental.SLenDelta` it returns equals
the composition of the per-update deltas of sequential maintenance
(:func:`repro.spl.incremental.fold_deltas`): identity pairs — a deletion
whose damage an insertion fully repairs — are dropped from both.

For the elimination machinery, which needs per-update ``Aff_N`` sets,
the pass also *attributes* every change: a worsened pair is blamed on
each deletion whose affectedness test matched it, an improved pair on
the insertion whose relaxation produced it.  The per-update deltas are
exact for attribution purposes (their union is the merged delta) but,
unlike sequential maintenance, they do not expose intermediate matrix
states — those never materialise in a coalesced pass.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.graph.digraph import DataGraph
from repro.graph.errors import UpdateError
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    GraphKind,
    NodeDeletion,
    NodeInsertion,
    Update,
)
from repro.spl.incremental import SLenDelta
from repro.spl.matrix import INF, SLenMatrix

#: Below this many updates in a batch, compiling + coalescing costs more
#: than it saves and the algorithms fall back to per-update maintenance.
#: ``BENCH_batching.json``: coalescing loses clearly below 64, is about
#: par (within noise of 1x) at 64, and wins decisively by 256 on
#: deletion-bearing mixes — so 64 is the point where the coalesced path
#: stops being a regression.  Callers can override via
#: ``coalesce_min_batch``.
DEFAULT_COALESCE_MIN_BATCH: int = 64

NodeId = Hashable
Pair = tuple[NodeId, NodeId]
Change = tuple[float, float]


@dataclass(frozen=True)
class CoalescedMaintenance:
    """Result of one coalesced maintenance pass.

    Attributes
    ----------
    delta:
        The merged :class:`SLenDelta` of the whole batch — equal to the
        folded composition of sequential per-update deltas.
    per_update:
        One attribution delta per input update (aligned by index); the
        source of the per-update ``Aff_N`` sets that DER-II/DER-III and
        the EH-Tree consume when the elimination analysis is read.
    settled_sources:
        How many sources needed an affected-region recompute (each one
        runs exactly once, regardless of how many deletions touched it).
    relaxation_rounds:
        Sweeps of the insertion relaxation until fixpoint (usually 1
        productive round plus one cheap verification round).
    """

    delta: SLenDelta
    per_update: list[SLenDelta]
    settled_sources: int = 0
    relaxation_rounds: int = 0


def coalesce_slen(
    slen: SLenMatrix,
    graph_after: DataGraph,
    updates: Sequence[Update],
    settle=None,
) -> CoalescedMaintenance:
    """Maintain ``slen`` in place for a whole batch of data updates.

    ``graph_after`` must already include **all** structural changes.  The
    updates are expected to be canonical (no duplicates, no inverse
    pairs) — :func:`repro.batching.compiler.compile_batch` produces such
    streams; feeding a raw stream with internal cancellations produces an
    exception or an incorrect matrix, exactly like calling the
    single-update maintenance with an inconsistent ``graph_after``.

    A node both deleted and re-inserted by the batch (a compiled
    resurrection) is handled as a deletion followed by an isolated
    re-insertion; its new incident edges arrive as separate insertions.

    ``settle`` optionally replaces the deletion-phase settle kernel
    (signature and contract of
    :meth:`repro.spl.backend.SLenBackend.settle_sources`); the
    partitioned-coalesced strategy uses this hook to route row-heavy
    sources through the label partition
    (:func:`repro.partition.partitioned_spl.coalesce_slen_partitioned`).
    """
    updates = list(updates)
    inserted_edges: list[tuple[NodeId, NodeId, int]] = []
    inserted_nodes: dict[NodeId, int] = {}
    deleted_edges: list[tuple[NodeId, NodeId, int]] = []
    deleted_nodes: dict[NodeId, int] = {}
    for index, update in enumerate(updates):
        if update.graph is not GraphKind.DATA:
            raise UpdateError(
                f"SLen maintenance only applies to data-graph updates, got {update!r}"
            )
        if isinstance(update, EdgeInsertion):
            inserted_edges.append((update.source, update.target, index))
        elif isinstance(update, EdgeDeletion):
            deleted_edges.append((update.source, update.target, index))
        elif isinstance(update, NodeInsertion):
            inserted_nodes[update.node] = index
            for edge in update.edges:
                inserted_edges.append((edge[0], edge[1], index))
        elif isinstance(update, NodeDeletion):
            deleted_nodes[update.node] = index
        else:
            raise UpdateError(f"unsupported update type {type(update).__name__}")
    _check_graph_state(slen, graph_after, inserted_edges, inserted_nodes, deleted_edges, deleted_nodes)

    merged: dict[Pair, Change] = {}
    per_changed: list[dict[Pair, Change]] = [{} for _ in updates]
    per_structural: list[set[NodeId]] = [set() for _ in updates]
    per_recomputed: list[set[NodeId]] = [set() for _ in updates]

    def record(pair: Pair, old: float, new: float, blame: frozenset[int] | tuple[int, ...]) -> None:
        if pair in merged:
            merged[pair] = (merged[pair][0], new)
        else:
            merged[pair] = (old, new)
        for index in blame:
            bucket = per_changed[index]
            if pair in bucket:
                bucket[pair] = (bucket[pair][0], new)
            else:
                bucket[pair] = (old, new)

    # ------------------------------------------------------------------
    # Structural step: deleted nodes' rows/columns become INF; adjust the
    # matrix universe.  Rows/columns are captured pre-removal because the
    # deletion phase needs the pre-batch distances through each node.
    # ------------------------------------------------------------------
    old_rows: dict[NodeId, dict[NodeId, int]] = {}
    old_cols: dict[NodeId, dict[NodeId, int]] = {}
    for node in deleted_nodes:
        old_rows[node] = slen.row(node)
        old_cols[node] = slen.column(node)
    for node, index in deleted_nodes.items():
        per_structural[index].add(node)
        for target, dist in old_rows[node].items():
            if target != node:
                record((node, target), dist, INF, (index,))
        for source, dist in old_cols[node].items():
            if source != node:
                record((source, node), dist, INF, (index,))
    for node in deleted_nodes:
        slen.remove_node(node)
    for node, index in inserted_nodes.items():
        slen.add_node(node)
        per_structural[index].add(node)

    # ------------------------------------------------------------------
    # Deletion phase: one affected-region union + one settle per source.
    # Detection and settling both run as backend kernels (vectorized on
    # the dense backend); this loop only attributes blame and applies.
    # ------------------------------------------------------------------
    backend = slen.backend
    remaining = slen.nodes()
    blame_by_source: dict[NodeId, dict[NodeId, set[int]]] = {}

    def flag(source: NodeId, target: NodeId, index: int) -> None:
        blame_by_source.setdefault(source, {}).setdefault(target, set()).add(index)

    for edge_source, edge_target, index in deleted_edges:
        if (
            edge_source in deleted_nodes
            or edge_target in deleted_nodes
            or edge_source not in remaining
            or edge_target not in remaining
        ):
            continue  # subsumed by a node deletion; its pairs are already INF
        for x, targets in backend.affected_by_edge_deletion(edge_source, edge_target).items():
            for y in targets:
                flag(x, y, index)
    for node, index in deleted_nodes.items():
        for x, targets in backend.affected_by_node_deletion(old_rows[node], old_cols[node]).items():
            for y in targets:
                flag(x, y, index)

    skip_edges = frozenset((source, target) for source, target, _ in inserted_edges)
    skip_nodes = frozenset(inserted_nodes)
    horizon = slen.horizon
    affected_by_source = {x: set(targets) for x, targets in blame_by_source.items()}
    if settle is None:
        settle = backend.settle_sources
    settled = settle(
        graph_after, affected_by_source, skip_edges=skip_edges, skip_nodes=skip_nodes
    )
    get = backend.get
    for x, blamed_targets in blame_by_source.items():
        new_values = settled[x]
        for y in blamed_targets:
            old = get(x, y)
            new = new_values.get(y, INF)
            if new > horizon:
                new = INF
            blame = blamed_targets[y]
            for index in blame:
                per_recomputed[index].add(x)
            if new != old:
                slen.set_distance(x, y, new)
                record((x, y), old, new, blame)

    # ------------------------------------------------------------------
    # Insertion phase: multi-source relaxation sweep to a fixpoint.  Only
    # edges whose endpoint distances moved in the previous round are
    # re-examined, so the sweep usually costs one productive round.  Each
    # edge's relaxation is one backend kernel call (a rank-1 broadcast on
    # the dense backend).
    # ------------------------------------------------------------------
    rounds = 0
    pending = list(inserted_edges)
    while pending:
        rounds += 1
        improved_sources: set[NodeId] = set()
        improved_targets: set[NodeId] = set()
        for edge_source, edge_target, index in pending:
            for (x, y), (current, candidate) in backend.relax_edge(
                edge_source, edge_target
            ).items():
                record((x, y), current, candidate, (index,))
                improved_sources.add(x)
                improved_targets.add(y)
        pending = [
            (source, target, index)
            for source, target, index in inserted_edges
            if source in improved_targets or target in improved_sources
        ]

    # Drop identity pairs: a deletion whose damage an insertion repaired.
    merged = {pair: change for pair, change in merged.items() if change[0] != change[1]}
    # Symmetric difference: a resurrected node (deleted *and* re-inserted)
    # nets out structurally, matching the fold of its sequential deltas.
    structural = frozenset(set(deleted_nodes) ^ set(inserted_nodes))
    delta = SLenDelta(
        changed_pairs=merged,
        recomputed_sources=frozenset(blame_by_source),
        structural_nodes=structural,
    )
    per_update = [
        SLenDelta(
            changed_pairs=per_changed[index],
            recomputed_sources=frozenset(per_recomputed[index]),
            structural_nodes=frozenset(per_structural[index]),
        )
        for index in range(len(updates))
    ]
    return CoalescedMaintenance(
        delta=delta,
        per_update=per_update,
        settled_sources=len(blame_by_source),
        relaxation_rounds=rounds,
    )


def _check_graph_state(
    slen: SLenMatrix,
    graph_after: DataGraph,
    inserted_edges: list[tuple[NodeId, NodeId, int]],
    inserted_nodes: dict[NodeId, int],
    deleted_edges: list[tuple[NodeId, NodeId, int]],
    deleted_nodes: dict[NodeId, int],
) -> None:
    """Verify ``graph_after`` reflects every structural change of the batch."""
    for source, target, _ in inserted_edges:
        if not graph_after.has_edge(source, target):
            raise UpdateError(
                f"graph does not contain edge ({source!r}, {target!r}); apply the batch first"
            )
    for node in inserted_nodes:
        if not graph_after.has_node(node):
            raise UpdateError(f"graph does not contain node {node!r}; apply the batch first")
    for source, target, _ in deleted_edges:
        if graph_after.has_edge(source, target):
            raise UpdateError(
                f"graph still contains edge ({source!r}, {target!r}); apply the batch first"
            )
    for node in deleted_nodes:
        if graph_after.has_node(node) and node not in inserted_nodes:
            raise UpdateError(f"graph still contains node {node!r}; apply the batch first")
        if node not in slen.nodes():
            raise UpdateError(f"node {node!r} is not in the SLen matrix")


