"""Label-based partition of a data graph with bridge-node bookkeeping.

Following Section V-A:

* each partition groups the nodes sharing one (primary) label, together
  with the edges between them;
* a **cross-partition edge** is recorded in the partition of its *source*
  node;
* an **inner bridge node** of partition ``Pi`` is a node of ``Pi`` with an
  out-edge leaving the partition (Definition 1);
* an **outer bridge node** of ``Pi`` is a node outside ``Pi`` that is the
  target of such an edge (Definition 2).

The partition also exposes the *quotient graph* (one node per partition,
an edge ``Pi -> Pj`` when a cross edge goes from ``Pi`` to ``Pj``), which
the exact partitioned shortest-path builder condenses into strongly
connected components.

A :class:`LabelPartition` is an immutable description of one graph.
Nothing keeps it in step with later updates: whoever needs the
partition of a changed graph builds a new one with
:meth:`LabelPartition.from_graph` (the partitioned deletion settle builds
one from the deletions-only graph each time it takes the recompute route).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from dataclasses import dataclass, field

from repro.graph.digraph import DataGraph
from repro.graph.errors import MissingNodeError

NodeId = Hashable


@dataclass(frozen=True)
class Partition:
    """One label partition ``Pi``.

    Attributes
    ----------
    label:
        The label shared by the partition's nodes.
    nodes:
        The nodes of the partition.
    intra_edges:
        Edges whose both endpoints are in the partition.
    cross_edges:
        Edges recorded in this partition (source inside, target outside).
    """

    label: str
    nodes: frozenset[NodeId]
    intra_edges: frozenset[tuple[NodeId, NodeId]]
    cross_edges: frozenset[tuple[NodeId, NodeId]] = field(default=frozenset())

    @property
    def inner_bridge_nodes(self) -> frozenset[NodeId]:
        """``IB(Pi)`` — sources of cross edges."""
        return frozenset(source for source, _target in self.cross_edges)

    @property
    def outer_bridge_nodes(self) -> frozenset[NodeId]:
        """``OB(Pi)`` — targets of cross edges (they live in other partitions)."""
        return frozenset(target for _source, target in self.cross_edges)

    @property
    def size(self) -> int:
        """Number of nodes in the partition."""
        return len(self.nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.nodes


class LabelPartition:
    """The full label-based partition of a data graph.

    Examples
    --------
    >>> g = DataGraph({"SE1": "SE", "TE1": "TE"}, [("SE1", "TE1")])
    >>> partition = LabelPartition.from_graph(g)
    >>> sorted(partition.labels())
    ['SE', 'TE']
    >>> partition.partition_of("SE1").label
    'SE'
    """

    __slots__ = ("_partitions", "_node_to_label")

    def __init__(self, partitions: dict[str, Partition]) -> None:
        self._partitions = dict(partitions)
        self._node_to_label: dict[NodeId, str] = {}
        for label, partition in self._partitions.items():
            for node in partition.nodes:
                self._node_to_label[node] = label

    @classmethod
    def from_graph(cls, graph: DataGraph) -> "LabelPartition":
        """Partition ``graph`` by primary node label."""
        nodes_by_label: dict[str, set[NodeId]] = {}
        for node in graph.nodes():
            nodes_by_label.setdefault(graph.primary_label(node), set()).add(node)
        intra: dict[str, set[tuple[NodeId, NodeId]]] = {label: set() for label in nodes_by_label}
        cross: dict[str, set[tuple[NodeId, NodeId]]] = {label: set() for label in nodes_by_label}
        for source, target in graph.edges():
            source_label = graph.primary_label(source)
            target_label = graph.primary_label(target)
            if source_label == target_label:
                intra[source_label].add((source, target))
            else:
                cross[source_label].add((source, target))
        partitions = {
            label: Partition(
                label=label,
                nodes=frozenset(nodes),
                intra_edges=frozenset(intra[label]),
                cross_edges=frozenset(cross[label]),
            )
            for label, nodes in nodes_by_label.items()
        }
        return cls(partitions)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def labels(self) -> frozenset[str]:
        """All partition labels."""
        return frozenset(self._partitions)

    def partitions(self) -> Iterator[Partition]:
        """Iterate over the partitions."""
        return iter(self._partitions.values())

    def partition(self, label: str) -> Partition:
        """Return the partition of ``label``."""
        try:
            return self._partitions[label]
        except KeyError:
            raise KeyError(f"no partition for label {label!r}") from None

    def partition_of(self, node: NodeId) -> Partition:
        """Return the partition the node belongs to."""
        try:
            return self._partitions[self._node_to_label[node]]
        except KeyError:
            raise MissingNodeError(node) from None

    def label_of(self, node: NodeId) -> str:
        """Return the partition label of ``node``."""
        try:
            return self._node_to_label[node]
        except KeyError:
            raise MissingNodeError(node) from None

    def inner_bridge_nodes(self, label: str) -> frozenset[NodeId]:
        """``IB(P_label)``."""
        return self.partition(label).inner_bridge_nodes

    def outer_bridge_nodes(self, label: str) -> frozenset[NodeId]:
        """``OB(P_label)``."""
        return self.partition(label).outer_bridge_nodes

    @property
    def number_of_partitions(self) -> int:
        """How many label partitions exist."""
        return len(self._partitions)

    # ------------------------------------------------------------------
    # Quotient graph
    # ------------------------------------------------------------------
    def quotient_edges(self) -> frozenset[tuple[str, str]]:
        """Edges of the quotient graph (``Pi -> Pj`` when a cross edge exists)."""
        edges: set[tuple[str, str]] = set()
        for label, partition in self._partitions.items():
            for _source, target in partition.cross_edges:
                edges.add((label, self._node_to_label[target]))
        return frozenset(edges)

    def quotient_successors(self, label: str) -> frozenset[str]:
        """Partitions directly reachable from ``label`` via a cross edge."""
        return frozenset(
            self._node_to_label[target]
            for _source, target in self.partition(label).cross_edges
        )

    def reachable_labels(self, label: str) -> frozenset[str]:
        """Partitions reachable from ``label`` in the quotient graph (incl. itself)."""
        seen = {label}
        stack = [label]
        while stack:
            current = stack.pop()
            for successor in self.quotient_successors(current):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return frozenset(seen)

    def __repr__(self) -> str:
        return (
            f"LabelPartition(partitions={self.number_of_partitions}, "
            f"nodes={len(self._node_to_label)})"
        )
