"""Partition-based shortest path length computation (Section V-B).

Two implementations live here.

``build_slen_partitioned``
    The construction used by UA-GPNM.  It keeps the paper's structure —
    per-partition computation plus composition through bridge nodes — but
    is *exact* on every graph: partitions that depend on each other
    (Algorithm 4's "combine the partitions" case) are merged by condensing
    the quotient graph into strongly connected components, intra-component
    distances are computed by BFS restricted to the component, and
    cross-component distances are composed through cross edges in reverse
    topological order.  Any directed path leaves a condensed component at
    most once, so the composition is exact.

``paper_subprocess_1`` / ``paper_subprocess_2``
    Literal transcriptions of Algorithms 4 and 5.  They reproduce the
    worked Examples 14 and 15 (Tables VIII and IX) and are exact on graphs
    whose quotient graph is acyclic after the pairwise combination step —
    the situation the paper's examples depict — but they are not used by
    the main algorithms, which rely on the exact builder above.

``coalesce_slen_partitioned``
    The **partitioned-coalesced** maintenance strategy: a coalesced batch
    pass (:func:`repro.batching.coalesce.coalesce_slen`) whose
    deletion-phase settle routes row-heavy affected sources through the
    label partition (``partitioned_recompute_rows`` against the
    deletions-only graph) instead of per-source/per-target Dijkstras —
    UA-GPNM's partition advantage finally applied to coalesced batches.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Optional

from repro.batching.coalesce import CoalescedMaintenance, coalesce_slen
from repro.graph.digraph import DataGraph
from repro.graph.updates import Update
from repro.partition.label_partition import LabelPartition
from repro.spl.matrix import INF, SLenMatrix
from repro.spl.sssp import bfs_lengths

NodeId = Hashable

#: The partitioned settle falls back to the backend settle when the
#: affected region is small relative to the suspects' finite rows —
#: below this fraction a targeted Dijkstra beats recomputing whole rows.
PARTITIONED_RECOMPUTE_FRACTION: float = 1.0 / 3.0


# ----------------------------------------------------------------------
# Exact partition-aware construction (used by UA-GPNM)
# ----------------------------------------------------------------------
def build_slen_partitioned(
    graph: DataGraph,
    partition: Optional[LabelPartition] = None,
    backend: str = "sparse",
) -> SLenMatrix:
    """Build the all-pairs ``SLen`` matrix using the label partition.

    Parameters
    ----------
    graph:
        The data graph.
    partition:
        A precomputed :class:`LabelPartition`; computed from ``graph``
        when omitted.
    backend:
        Storage backend of the produced matrix.

    Returns
    -------
    SLenMatrix
        Exactly the same matrix :meth:`SLenMatrix.from_graph` would
        produce, built partition by partition.
    """
    if partition is None:
        partition = LabelPartition.from_graph(graph)
    rows = _partitioned_rows(graph, partition, set(graph.nodes()), trusted=None)
    return SLenMatrix.from_rows(graph.nodes(), rows, backend=backend)


def partitioned_recompute_rows(
    graph: DataGraph,
    slen: SLenMatrix,
    sources: Iterable[NodeId],
    partition: Optional[LabelPartition] = None,
) -> dict[NodeId, dict[NodeId, int]]:
    """Recompute the rows of ``sources`` using the label partition.

    ``slen`` provides the rows of nodes *not* in ``sources``, which are
    trusted to still be correct (this is exactly the situation during
    incremental maintenance of an edge or node deletion: only the suspect
    sources can have stale rows).

    The computation is cost-aware: a suspect whose condensed quotient
    component has no outgoing cross edges only needs a BFS restricted to
    its own component; a suspect whose component's bridge fan-out is small
    relative to the graph is answered by intra-component BFS plus
    composition through the trusted downstream rows; any other suspect
    falls back to a plain whole-graph BFS, so the partitioned solver is
    never asymptotically worse than the unpartitioned one.
    """
    if partition is None:
        partition = LabelPartition.from_graph(graph)
    source_set = {source for source in sources if graph.has_node(source)}
    if not source_set:
        return {}

    components = _condense_quotient(partition)
    component_of_label: dict[str, _Component] = {}
    for component in components:
        for label in component.labels:
            component_of_label[label] = component

    graph_cost = graph.number_of_nodes + graph.number_of_edges
    rows: dict[NodeId, dict[NodeId, int]] = {}
    # Order suspects so that downstream components are processed first;
    # composition for upstream suspects can then reuse freshly recomputed
    # rows where needed.
    order = _topological_order(components)
    position_of = {id(component): position for position, component in enumerate(order)}
    for source in sorted(
        source_set,
        key=lambda node: -position_of[id(component_of_label[partition.label_of(node)])],
    ):
        component = component_of_label[partition.label_of(source)]
        member_nodes: set[NodeId] = set()
        for label in component.labels:
            member_nodes |= set(partition.partition(label).nodes)
        cross_edges = [
            (edge_source, edge_target)
            for label in component.labels
            for edge_source, edge_target in partition.partition(label).cross_edges
            if edge_target not in member_nodes
        ]
        if not cross_edges:
            # Sink component: the whole reachable set lies inside it.
            rows[source] = _component_bfs(graph, source, member_nodes)
            continue
        bridge_targets = {edge_target for _edge_source, edge_target in cross_edges}
        composition_cost = len(member_nodes) + sum(
            len(slen.row_view(target)) if target in slen.nodes() else 0
            for target in bridge_targets
        )
        if composition_cost >= graph_cost:
            rows[source] = bfs_lengths(graph, source)
            continue
        row = _component_bfs(graph, source, member_nodes)
        for edge_source, edge_target in cross_edges:
            via = row.get(edge_source)
            if via is None:
                continue
            if edge_target in rows:
                far_row = rows[edge_target]
            elif edge_target in source_set or edge_target not in slen.nodes():
                far_row = bfs_lengths(graph, edge_target)
                rows.setdefault(edge_target, far_row)
            else:
                far_row = slen.row_view(edge_target)
            for far_target, far_dist in far_row.items():
                candidate = via + 1 + far_dist
                if candidate < row.get(far_target, INF):
                    row[far_target] = candidate
        rows[source] = row
    return {source: rows[source] for source in source_set}


def _partitioned_rows(
    graph: DataGraph,
    partition: LabelPartition,
    sources: set[NodeId],
    trusted,
) -> dict[NodeId, dict[NodeId, int]]:
    """Shared engine behind the partitioned build / recompute functions.

    ``trusted`` is ``None`` (compute everything needed) or a callable
    returning the known-correct row of a node, or ``None`` when the node's
    row must be computed.
    """
    components = _condense_quotient(partition)
    order = _topological_order(components)
    label_to_component = {}
    for component in components:
        for label in component.labels:
            label_to_component[label] = component

    finished: dict[NodeId, dict[NodeId, int]] = {}

    def row_of(node: NodeId) -> Optional[dict[NodeId, int]]:
        if node in finished:
            return finished[node]
        if trusted is not None:
            return trusted(node)
        return None

    requested: dict[NodeId, dict[NodeId, int]] = {}
    for component in reversed(order):
        member_nodes: set[NodeId] = set()
        for label in component.labels:
            member_nodes |= set(partition.partition(label).nodes)
        # With trusted rows available only the requested sources need new
        # rows; during a full build every member's row is needed because
        # upstream components compose with the rows of this component's
        # bridge targets.
        component_sources = member_nodes & sources if trusted is not None else member_nodes
        cross_edges: list[tuple[NodeId, NodeId]] = []
        for label in component.labels:
            for source, target in partition.partition(label).cross_edges:
                if target not in member_nodes:
                    cross_edges.append((source, target))
        for source in component_sources:
            row = _component_bfs(graph, source, member_nodes)
            for bridge_source, bridge_target in cross_edges:
                via = row.get(bridge_source)
                if via is None:
                    continue
                far_row = row_of(bridge_target)
                if far_row is None:
                    # Safety net: the bridge target's row is unknown (e.g. a
                    # node newly added to the graph); fall back to a plain BFS.
                    far_row = bfs_lengths(graph, bridge_target)
                    finished[bridge_target] = far_row
                for far_target, far_dist in far_row.items():
                    candidate = via + 1 + far_dist
                    if candidate < row.get(far_target, INF):
                        row[far_target] = candidate
            finished[source] = row
            if source in sources:
                requested[source] = row
    if trusted is None:
        return finished
    return requested


def _component_bfs(
    graph: DataGraph, source: NodeId, allowed: set[NodeId]
) -> dict[NodeId, int]:
    """BFS from ``source`` visiting only nodes inside ``allowed``."""
    distances = {source: 0}
    queue: deque[NodeId] = deque([source])
    while queue:
        node = queue.popleft()
        next_distance = distances[node] + 1
        for neighbour in graph.successors_view(node):
            if neighbour in allowed and neighbour not in distances:
                distances[neighbour] = next_distance
                queue.append(neighbour)
    return distances


class _Component:
    """A strongly connected component of the quotient graph."""

    __slots__ = ("labels", "successors")

    def __init__(self, labels: frozenset[str]) -> None:
        self.labels = labels
        self.successors: set["_Component"] = set()


def _condense_quotient(partition: LabelPartition) -> list[_Component]:
    """Condense the quotient graph into strongly connected components."""
    labels = sorted(partition.labels())
    successors = {label: sorted(partition.quotient_successors(label)) for label in labels}
    component_of = _tarjan_scc(labels, successors)
    components: dict[int, _Component] = {}
    for label, component_id in component_of.items():
        if component_id not in components:
            components[component_id] = _Component(frozenset())
        components[component_id].labels = components[component_id].labels | {label}
    for label in labels:
        source_component = components[component_of[label]]
        for successor in successors[label]:
            target_component = components[component_of[successor]]
            if target_component is not source_component:
                source_component.successors.add(target_component)
    return list(components.values())


def _tarjan_scc(
    labels: Iterable[str], successors: dict[str, list[str]]
) -> dict[str, int]:
    """Iterative Tarjan SCC over the quotient graph; returns label -> component id."""
    index_counter = 0
    component_counter = 0
    indices: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    component_of: dict[str, int] = {}

    for root in labels:
        if root in indices:
            continue
        work = [(root, iter(successors[root]))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in indices:
                    indices[child] = lowlinks[child] = index_counter
                    index_counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(successors[child])))
                    advanced = True
                    break
                if on_stack.get(child, False):
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component_of[member] = component_counter
                    if member == node:
                        break
                component_counter += 1
    return component_of


def _topological_order(components: list[_Component]) -> list[_Component]:
    """Topological order of the condensed quotient DAG (sources first)."""
    in_degree = {id(component): 0 for component in components}
    by_id = {id(component): component for component in components}
    for component in components:
        for successor in component.successors:
            in_degree[id(successor)] += 1
    queue = deque(
        sorted(
            (component for component in components if in_degree[id(component)] == 0),
            key=lambda component: sorted(component.labels),
        )
    )
    order: list[_Component] = []
    while queue:
        component = queue.popleft()
        order.append(component)
        for successor in sorted(component.successors, key=lambda c: sorted(c.labels)):
            in_degree[id(successor)] -= 1
            if in_degree[id(successor)] == 0:
                queue.append(successor)
    if len(order) != len(by_id):
        raise RuntimeError("quotient condensation produced a cycle; this is a bug")
    return order


# ----------------------------------------------------------------------
# Partitioned-coalesced batch maintenance
# ----------------------------------------------------------------------
def coalesce_slen_partitioned(
    slen: SLenMatrix,
    graph_after: DataGraph,
    updates: Sequence[Update],
    recompute_fraction: float = PARTITIONED_RECOMPUTE_FRACTION,
) -> CoalescedMaintenance:
    """Coalesced ``SLen`` maintenance with a partition-aware deletion settle.

    Drop-in replacement for :func:`repro.batching.coalesce.coalesce_slen`
    (same contract, bit-identical matrix and deltas): the only difference
    is *how* the deletion phase restores affected distances.  When the
    union of affected targets is large relative to the suspects' finite
    rows (at least ``recompute_fraction`` of it), every affected source's
    whole row is recomputed through the label partition —
    intra-component BFS plus composition through trusted bridge rows,
    against the deletions-only graph — which is the Section V advantage;
    below the threshold the backend settle is cheaper and is used
    unchanged.  The partition is built from the deletions-only graph
    only when the settle takes the recompute route.
    """

    def settle(
        graph_final: DataGraph,
        affected_by_source: Mapping[NodeId, set[NodeId]],
        skip_edges=frozenset(),
        skip_nodes=frozenset(),
    ) -> dict[NodeId, dict[NodeId, int]]:
        return _partitioned_settle(
            slen,
            graph_final,
            affected_by_source,
            skip_edges,
            skip_nodes,
            recompute_fraction,
        )

    return coalesce_slen(slen, graph_after, updates, settle=settle)


def _partitioned_settle(
    slen: SLenMatrix,
    graph_after: DataGraph,
    affected_by_source: Mapping[NodeId, set[NodeId]],
    skip_edges,
    skip_nodes,
    recompute_fraction: float,
) -> dict[NodeId, dict[NodeId, int]]:
    """Settle affected sources through the partition (or fall back)."""
    if not affected_by_source:
        return {}
    universe = slen.nodes()
    total_affected = sum(len(targets) for targets in affected_by_source.values())
    total_row = sum(
        len(slen.row_view(source))
        for source in affected_by_source
        if source in universe
    )
    if total_affected < total_row * recompute_fraction:
        return slen.backend.settle_sources(
            graph_after, affected_by_source, skip_edges=skip_edges, skip_nodes=skip_nodes
        )
    graph_mid = _deletions_only_graph(graph_after, skip_edges, skip_nodes)
    # All suspects are recomputed together so the composition never
    # trusts the stale row of a fellow suspect.
    rows = partitioned_recompute_rows(graph_mid, slen, affected_by_source.keys())
    results: dict[NodeId, dict[NodeId, int]] = {}
    for source, affected in affected_by_source.items():
        row = rows.get(source, {})
        results[source] = {
            target: row[target] for target in affected if target in row
        }
    return results


def _deletions_only_graph(graph_after, skip_edges, skip_nodes) -> DataGraph:
    """``graph_after`` minus the batch's insertions (the settle's view)."""
    mid = DataGraph()
    for node in graph_after.nodes():
        if node not in skip_nodes:
            mid.add_node(node, *graph_after.labels_of(node))
    for source, target in graph_after.edges():
        if (
            source in skip_nodes
            or target in skip_nodes
            or (source, target) in skip_edges
        ):
            continue
        mid.add_edge(source, target)
    return mid


# ----------------------------------------------------------------------
# Literal Algorithms 4 and 5 (worked examples of Section V-B)
# ----------------------------------------------------------------------
def paper_subprocess_1(
    graph: DataGraph, partition: LabelPartition, label: str
) -> dict[tuple[NodeId, NodeId], float]:
    """Algorithm 4: shortest path lengths between nodes of one partition.

    When the partition has outer bridge nodes whose own partition points
    back into this one, the two partitions are combined before running the
    BFS, exactly as the paper describes for partition ``P_SE`` in
    Example 14.
    """
    target_partition = partition.partition(label)
    allowed = set(target_partition.nodes)
    if target_partition.outer_bridge_nodes:
        for outer in target_partition.outer_bridge_nodes:
            outer_label = partition.label_of(outer)
            outer_partition = partition.partition(outer_label)
            if not outer_partition.outer_bridge_nodes:
                continue
            # "if one of the outer bridge nodes in Pj belongs to Pi: combine"
            if any(
                partition.label_of(other) == label
                for other in outer_partition.outer_bridge_nodes
            ):
                allowed |= set(outer_partition.nodes)
    result: dict[tuple[NodeId, NodeId], float] = {}
    for source in target_partition.nodes:
        row = _component_bfs(graph, source, allowed)
        for target in target_partition.nodes:
            result[(source, target)] = row.get(target, INF)
    return result


def paper_subprocess_2(
    graph: DataGraph,
    partition: LabelPartition,
    source_label: str,
    target_label: str,
) -> dict[tuple[NodeId, NodeId], float]:
    """Algorithm 5: shortest path lengths from one partition to another.

    Distances are composed through the bridge edges: for an inner bridge
    node ``a`` of the source partition with outer bridge node ``b`` in the
    target partition, ``SPD(a, b) = 1`` and every other pair goes through
    such a bridge, as in Example 15 (Table IX).
    """
    source_partition = partition.partition(source_label)
    target_partition = partition.partition(target_label)
    result: dict[tuple[NodeId, NodeId], float] = {
        (source, target): INF
        for source in source_partition.nodes
        for target in target_partition.nodes
    }
    if not source_partition.outer_bridge_nodes:
        return result
    intra_source = paper_subprocess_1(graph, partition, source_label)
    intra_target = paper_subprocess_1(graph, partition, target_label)
    bridges = [
        (inner, outer)
        for inner, outer in source_partition.cross_edges
        if partition.label_of(outer) == target_label
    ]
    for source in source_partition.nodes:
        for target in target_partition.nodes:
            best = INF
            for inner, outer in bridges:
                to_inner = intra_source.get((source, inner), INF)
                from_outer = intra_target.get((outer, target), INF)
                candidate = to_inner + 1 + from_outer
                if candidate < best:
                    best = candidate
            result[(source, target)] = best
    return result
