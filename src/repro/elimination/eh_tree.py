"""The Elimination Hierarchy Tree (EH-Tree) of Section IV-C.

The EH-Tree indexes the hierarchical structure of all elimination
relationships: each tree node is an update carrying its candidate /
affected node set, a child's set is covered by its parent's set (or, for
Type III, the pattern update hangs under the data update that cancels
it).  The update with the largest set becomes the root; updates that are
not eliminated by anything become additional roots, so strictly speaking
the index is a forest — the paper's examples happen to produce a single
tree.

UA-GPNM uses the tree to split the batch into

* **root updates** (``uneliminated``), which still need the incremental
  GPNM procedure, and
* **descendant updates** (``eliminated``), whose effect is subsumed by an
  ancestor — the ``|Ue|`` term of the paper's complexity analysis.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.elimination.detector import EliminationAnalysis
from repro.elimination.relations import EliminationType
from repro.graph.updates import GraphKind, Update

NodeId = Hashable


@dataclass
class EHTreeNode:
    """One node of the EH-Tree: an update plus its candidate/affected nodes."""

    update: Update
    node_set: frozenset[NodeId]
    parent: Optional["EHTreeNode"] = None
    children: list["EHTreeNode"] = field(default_factory=list)
    relation_type: Optional[EliminationType] = None

    @property
    def is_root(self) -> bool:
        """``True`` when the update is not eliminated by any other."""
        return self.parent is None

    @property
    def depth(self) -> int:
        """Distance from this node to its root (root depth is 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def __repr__(self) -> str:
        return f"EHTreeNode(update={self.update!r}, set_size={len(self.node_set)})"


class EHTree:
    """Forest indexing the elimination hierarchy over one update batch."""

    def __init__(self, nodes: dict[Update, EHTreeNode], insertion_order: list[Update]) -> None:
        self._nodes = nodes
        self._order = insertion_order

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, analysis: EliminationAnalysis, updates: Sequence[Update]) -> "EHTree":
        """Build the EH-Tree from a DER analysis.

        Following the strategy of Section IV-C: every update becomes a
        tree node storing its candidate / affected node set; an update is
        attached as the child of the eliminator with the *largest* set
        among those that eliminate it (ties broken by arrival order), so
        the update with the maximum set naturally ends up as a root.
        """
        sets_by_update: dict[Update, frozenset[NodeId]] = {}
        for candidate in analysis.candidate_sets:
            sets_by_update[candidate.update] = candidate.all_nodes
        for affected in analysis.affected_sets:
            sets_by_update[affected.update] = affected.nodes

        nodes: dict[Update, EHTreeNode] = {}
        order: list[Update] = []
        for update in updates:
            if update in nodes:
                continue
            nodes[update] = EHTreeNode(
                update=update, node_set=sets_by_update.get(update, frozenset())
            )
            order.append(update)

        position = {update: index for index, update in enumerate(order)}
        relation_by_child: dict[Update, list] = {}
        for relation in analysis.relations:
            if relation.eliminated in nodes and relation.eliminator in nodes:
                relation_by_child.setdefault(relation.eliminated, []).append(relation)

        for update in order:
            incoming = relation_by_child.get(update)
            if not incoming:
                continue
            # Prefer single-graph relationships (strategy (b)/(c) of the
            # paper precede the cross-graph strategy (d)); among those,
            # the eliminator with the largest node set wins, ties broken
            # by arrival order.  This reproduces the EH-Tree of Example 10.
            best = max(
                incoming,
                key=lambda relation: (
                    relation.type is not EliminationType.CROSS_GRAPH,
                    len(nodes[relation.eliminator].node_set),
                    -position[relation.eliminator],
                ),
            )
            parent_node = nodes[best.eliminator]
            child_node = nodes[update]
            if _would_create_cycle(parent_node, child_node):
                continue
            child_node.parent = parent_node
            child_node.relation_type = best.type
            parent_node.children.append(child_node)
        return cls(nodes, order)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, update: Update) -> EHTreeNode:
        """Return the tree node of ``update``."""
        return self._nodes[update]

    def roots(self) -> list[EHTreeNode]:
        """Root nodes — the updates that are not eliminated."""
        return [self._nodes[update] for update in self._order if self._nodes[update].is_root]

    def root_updates(self) -> list[Update]:
        """The uneliminated updates, in arrival order."""
        return [node.update for node in self.roots()]

    def eliminated_updates(self) -> list[Update]:
        """The updates subsumed by an ancestor, in arrival order."""
        return [
            update for update in self._order if not self._nodes[update].is_root
        ]

    def parent_of(self, update: Update) -> Optional[Update]:
        """The eliminating parent of ``update`` or ``None`` for roots."""
        parent = self._nodes[update].parent
        return parent.update if parent is not None else None

    def children_of(self, update: Update) -> list[Update]:
        """The updates directly eliminated by ``update``."""
        return [child.update for child in self._nodes[update].children]

    def depth_of(self, update: Update) -> int:
        """Depth of ``update`` in its tree (roots have depth 0)."""
        return self._nodes[update].depth

    def updates(self) -> list[Update]:
        """All indexed updates, in arrival order."""
        return list(self._order)

    def traverse(self) -> Iterator[tuple[int, Update]]:
        """Depth-first traversal yielding ``(depth, update)`` pairs."""
        for root in self.roots():
            stack: list[tuple[int, EHTreeNode]] = [(0, root)]
            while stack:
                depth, node = stack.pop()
                yield (depth, node.update)
                for child in reversed(node.children):
                    stack.append((depth + 1, child))

    @property
    def number_of_updates(self) -> int:
        """How many updates the tree indexes."""
        return len(self._order)

    @property
    def number_of_eliminated(self) -> int:
        """``|Ue|`` — updates with a parent."""
        return len(self.eliminated_updates())

    def to_ascii(self) -> str:
        """Render the forest as an indented text diagram (for logs and docs)."""
        lines: list[str] = []
        for depth, update in self.traverse():
            lines.append("  " * depth + _short_update_label(update))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"EHTree(updates={self.number_of_updates}, "
            f"roots={len(self.roots())}, eliminated={self.number_of_eliminated})"
        )


def _would_create_cycle(parent: EHTreeNode, child: EHTreeNode) -> bool:
    """Guard against attaching an ancestor below one of its descendants."""
    node: Optional[EHTreeNode] = parent
    while node is not None:
        if node is child:
            return True
        node = node.parent
    return False


def _short_update_label(update: Update) -> str:
    """Compact human-readable label for diagrams."""
    side = "P" if update.graph is GraphKind.PATTERN else "D"
    kind = {
        "edge_insert": "+e",
        "edge_delete": "-e",
        "node_insert": "+n",
        "node_delete": "-n",
    }[update.kind.value]
    detail = getattr(update, "node", None)
    if detail is None:
        detail = f"{getattr(update, 'source', '?')}->{getattr(update, 'target', '?')}"
    return f"U{side}{kind}({detail})"
