"""Seeded, stationary input generation for every workload.

Every input of a run — graphs, patterns, update batches, payload and
read schedules — is a pure function of the workload seed, built before
timing starts; the program under test only ever receives the generated
objects.  Each stream gets its own child seed through the repository's
``derive_seed`` (blake2s of the root seed and a label path), so two
streams never share an RNG and adding a stream does not shift another.

Stationarity is structural rather than statistical: the stock balanced
generator removes nodes with their whole neighbourhood and inserts them
back with a fixed small degree, which shrinks |E| (six 64-update batches
took a 320-node graph from 1500 to 967 edges), so a long run would
measure a different graph from a short one.  The streams here keep
|V| and |E| exactly constant instead:

* a *node replacement* deletes a node and inserts a fresh node with the
  same label and the same in/out neighbours (an account that is closed
  and re-created);
* an *edge swap* deletes ``(a, b)`` and ``(c, d)`` and inserts
  ``(a, d)`` and ``(c, b)`` where ``b`` and ``d`` share a label, which
  preserves every node's in- and out-degree and the label-pair mix of
  the edges while still rewiring the graph;
* *toggles* over a fixed pair set (half present, half absent at the
  start) insert an absent pair or delete a present one, so the edge
  count stays within the pair set's size of where it started.
"""

from __future__ import annotations

import random

from repro.graph.digraph import DataGraph
from repro.graph.pattern import PatternGraph
from repro.graph.updates import (
    UpdateBatch,
    delete_data_edge,
    delete_data_node,
    delete_pattern_edge,
    delete_pattern_node,
    insert_data_edge,
    insert_data_node,
    insert_pattern_edge,
    insert_pattern_node,
)
from repro.workloads import PatternSpec, SocialGraphSpec, generate_pattern, generate_social_graph
from repro.workloads.update_gen import derive_seed

def social_graph(seed: int, nodes: int, edges: int) -> DataGraph:
    """The repository's synthetic social graph at the given size."""
    return generate_social_graph(
        SocialGraphSpec(name="g", num_nodes=nodes, num_edges=edges, seed=derive_seed(seed, "graph"))
    )


def pattern(seed: int, labels, nodes: int, edges: int, *labels_path) -> PatternGraph:
    """One generated pattern over ``labels`` (bounds 1-3, occasional ``*``)."""
    return generate_pattern(
        PatternSpec(
            num_nodes=nodes,
            num_edges=edges,
            labels=tuple(sorted(labels)),
            seed=derive_seed(seed, "pattern", *labels_path),
        )
    )


def overlapping_patterns(seed: int, data: DataGraph, count: int, nodes: int, edges: int) -> list:
    """``count`` patterns whose label sets overlap but differ.

    Each pattern draws its labels from a window of consecutive labels of
    the graph's sorted label list, shifted by one per pattern, so every
    pair of neighbouring patterns shares most of its labels and no two
    have the same set.  That mix lets the service's label skip filter
    clear some patterns on some settles and not others.
    """
    labels = sorted(data.labels())
    width = min(len(labels), nodes)
    patterns = []
    for index in range(count):
        window = [labels[(index + offset) % len(labels)] for offset in range(width)]
        patterns.append(pattern(seed, window, nodes, edges, index))
    return patterns


# ----------------------------------------------------------------------
# engine_mixed: ΔGD + ΔGP batches for the closed-loop engine run
# ----------------------------------------------------------------------
def engine_batches(
    data: DataGraph,
    query_pattern: PatternGraph,
    seed: int,
    count: int,
    *,
    node_replacements: int,
    edge_swaps: int,
) -> list[UpdateBatch]:
    """``count`` applicable batches that keep both graphs' sizes constant.

    Each batch holds ``2 * node_replacements + 4 * edge_swaps`` data
    updates followed by four pattern updates (one pattern node
    replacement, one pattern edge moved to a new endpoint).  Updates are
    ordered insertions first, then deletions, which is the order the
    stock generator uses and every algorithm accepts.  Generation runs
    against private copies that each batch is applied to, so batch
    ``i + 1`` is valid on the graphs batch ``i`` leaves behind.
    """
    working = data.copy()
    working_pattern = query_pattern.copy()
    batches = []
    for index in range(count):
        rng = random.Random(derive_seed(seed, "engine-batch", index))
        batch = UpdateBatch()
        data_updates = _data_batch(working, rng, index, node_replacements, edge_swaps)
        pattern_updates = _pattern_batch(working_pattern, rng, index)
        for update in data_updates:
            update.apply(working)
        for update in pattern_updates:
            update.apply(working_pattern)
        batch.extend(data_updates)
        batch.extend(pattern_updates)
        batches.append(batch)
    return batches


def _data_batch(graph: DataGraph, rng: random.Random, index: int, replacements: int, swaps: int) -> list:
    nodes = sorted(graph.nodes())
    doomed = rng.sample(nodes, replacements)
    fresh = {node: f"r{index}.{position}:{graph.primary_label(node)}" for position, node in enumerate(doomed)}
    inserts: list = []
    deletes: list = []
    for position, node in enumerate(doomed):
        # The replacement takes over every edge of the node it replaces.
        # An edge between two replaced nodes is re-created by whichever
        # replacement is inserted second, when both endpoints exist.
        def substitute(other):
            if other not in fresh:
                return other
            return fresh[other] if doomed.index(other) < position else None

        edges = [(fresh[node], substitute(succ)) for succ in sorted(graph.successors(node))]
        edges += [(substitute(pred), fresh[node]) for pred in sorted(graph.predecessors(node))]
        edges = [edge for edge in edges if None not in edge]
        inserts.append(insert_data_node(fresh[node], graph.labels_of(node), edges))
        deletes.append(delete_data_node(node, graph.labels_of(node)))
    edges = [edge for edge in sorted(graph.edges()) if edge[0] not in fresh and edge[1] not in fresh]
    for first, second, new_edges in _edge_swaps(graph, edges, rng, swaps):
        inserts.extend(insert_data_edge(*edge) for edge in new_edges)
        deletes.extend(delete_data_edge(*edge) for edge in (first, second))
    return inserts + deletes


def _edge_swaps(graph: DataGraph, edges: list, rng: random.Random, swaps: int) -> list:
    """Up to ``swaps`` disjoint swaps ``((a, b), (c, d), ((a, d), (c, b)))``
    drawn from ``edges``, with ``b`` and ``d`` sharing a label and both
    new edges absent from ``graph`` and from every other swap."""
    by_target_label: dict[str, list] = {}
    for edge in edges:
        by_target_label.setdefault(graph.primary_label(edge[1]), []).append(edge)
    touched: set = set()
    added: set = set()
    chosen = []
    attempts = 0
    while len(chosen) < swaps and attempts < swaps * 200:
        attempts += 1
        first = rng.choice(edges)
        second = rng.choice(by_target_label[graph.primary_label(first[1])])
        (a, b), (c, d) = first, second
        new_edges = ((a, d), (c, b))
        if len({a, b, c, d}) < 4 or first in touched or second in touched:
            continue
        if any(graph.has_edge(*edge) or edge in added for edge in new_edges):
            continue
        touched.update((first, second))
        added.update(new_edges)
        chosen.append((first, second, new_edges))
    return chosen


def _pattern_batch(pattern_graph: PatternGraph, rng: random.Random, index: int) -> list:
    """One pattern node replacement plus one pattern edge moved."""
    nodes = sorted(pattern_graph.nodes())
    node = rng.choice(nodes)
    label = pattern_graph.label_of(node)
    fresh = f"q{index}:{label}"
    edges = [
        (fresh, target, pattern_graph.bound(node, target))
        for target in sorted(pattern_graph.successors(node))
        if target != node
    ]
    edges += [
        (source, fresh, pattern_graph.bound(source, node))
        for source in sorted(pattern_graph.predecessors(node))
        if source != node
    ]
    updates = [insert_pattern_node(fresh, label, edges)]
    deletes = [delete_pattern_node(node, label)]
    # Move one edge that does not touch the replaced node: delete it and
    # insert an absent edge between two surviving nodes with a fresh bound.
    movable = [
        (source, target)
        for source, target, _bound in sorted(pattern_graph.edges(), key=repr)
        if node not in (source, target)
    ]
    survivors = [other for other in nodes if other != node]
    if movable and len(survivors) >= 2:
        source, target = rng.choice(movable)
        for _ in range(50):
            new_source, new_target = rng.sample(survivors, 2)
            if not pattern_graph.has_edge(new_source, new_target):
                updates.append(insert_pattern_edge(new_source, new_target, rng.randint(1, 3)))
                deletes.insert(
                    0, delete_pattern_edge(source, target, pattern_graph.bound(source, target))
                )
                break
    return updates + deletes


# ----------------------------------------------------------------------
# Service workloads: edge toggles over a fixed pair set
# ----------------------------------------------------------------------
def toggle_pairs(data: DataGraph, seed: int, count: int) -> list[tuple]:
    """``count`` distinct node pairs, half existing edges and half absent.

    Starting half-full is what keeps a toggle stream stationary from its
    first payload: a uniformly toggled pair set drifts towards half
    present, so starting there gives it nowhere to drift.  An absent pair
    ``(a, d)`` joins the source of one edge ``(a, b)`` to the target of
    another ``(c, d)`` whose target shares ``b``'s label, so it has the
    label pair of an existing edge: toggling it keeps the graph's
    label-to-label structure instead of adding the random shortcuts that
    make maintenance cost depend on which pairs a seed happened to draw.
    """
    rng = random.Random(derive_seed(seed, "toggle-pairs"))
    present = sorted(data.edges())
    chosen = rng.sample(present, count // 2)
    by_target_label: dict[str, list] = {}
    for edge in present:
        by_target_label.setdefault(data.primary_label(edge[1]), []).append(edge)
    absent: set = set()
    while len(absent) < count - len(chosen):
        source, target = rng.choice(present)
        _, other = rng.choice(by_target_label[data.primary_label(target)])
        if source != other and not data.has_edge(source, other):
            absent.add((source, other))
    pairs = chosen + sorted(absent)
    rng.shuffle(pairs)
    return pairs


def toggle_payloads(
    data: DataGraph, pairs: list[tuple], seed: int, count: int, per_payload: int, label: str
) -> list[dict]:
    """``count`` wire-shaped payloads of ``per_payload`` toggles each.

    Each payload toggles distinct pairs (a pair toggled twice in one
    payload would cancel), inserting pairs that are absent in the graph
    as all earlier payloads leave it and deleting present ones, so every
    payload is accepted in order.
    """
    rng = random.Random(derive_seed(seed, "toggles", label))
    present = {pair for pair in pairs if data.has_edge(*pair)}
    payloads = []
    for _ in range(count):
        inserts, deletes = [], []
        for source, target in rng.sample(pairs, per_payload):
            spec = {"type": "edge", "source": source, "target": target}
            if (source, target) in present:
                present.discard((source, target))
                deletes.append(spec)
            else:
                present.add((source, target))
                inserts.append(spec)
        payloads.append({"inserts": inserts, "deletes": deletes})
    return payloads


def apply_payloads(data: DataGraph, payloads: list[dict]) -> DataGraph:
    """The graph ``payloads`` leave behind (the oracle's input)."""
    graph = data.copy()
    for payload in payloads:
        for spec in payload["deletes"]:
            graph.remove_edge(spec["source"], spec["target"])
        for spec in payload["inserts"]:
            graph.add_edge(spec["source"], spec["target"])
    return graph


def open_loop_schedule(seed: int, label: str, rate: float, seconds: float) -> tuple[float, ...]:
    """Send offsets (seconds from the start, ascending): evenly spaced at
    ``rate`` per second with seeded jitter.

    Jitter is uniform within ±25% of one period, so consecutive sends
    never swap order and the offered rate is exact over any window of a
    few periods — a Poisson schedule's bursts would add queueing noise
    that has nothing to do with the program.
    """
    rng = random.Random(derive_seed(seed, "schedule", label))
    period = 1.0 / rate
    return tuple(
        (index + 0.5) * period + rng.uniform(-0.25, 0.25) * period
        for index in range(int(seconds * rate))
    )
