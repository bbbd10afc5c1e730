"""Pluggable storage backends for the ``SLen`` matrix.

:class:`~repro.spl.matrix.SLenMatrix` is a thin facade over an
:class:`SLenBackend`, which owns both the *storage* of the all-pairs
shortest path lengths and the three *maintenance kernels* every layer
above relies on:

* ``build`` — construction from a data graph (all-pairs BFS);
* ``relax_edge`` — the single-edge insertion relaxation
  ``d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y))``;
* ``affected_by_*`` + ``settle_sources`` — the Ramalingam & Reps
  affected-area deletion maintenance: identify the pairs whose every
  shortest path used the deleted edge/node, then recompute exactly
  those entries seeded from the unaffected frontier.

Two backends ship with the repository:

``sparse`` (:class:`SparseSLenBackend`, here)
    The original dict-of-dicts representation: only finite entries are
    stored, mirroring the paper's observation that social graphs produce
    many infinite entries.  Memory is O(finite entries); every kernel is
    a pure-Python loop, so per-entry interpreter overhead dominates on
    dense update streams.  The single-edge kernels therefore scan only
    the pairs the edge ``u -> v`` can change: sources ``x`` whose
    distance to ``v`` the edge shortens (insertion) or realises
    (deletion), times targets ``y`` likewise seen from ``u`` — the
    classic pruning of incremental all-pairs shortest paths (Ausiello
    et al.; Ramalingam & Reps).  By the triangle inequality no pair
    outside that product can qualify, including on a horizon-clipped
    matrix, where every bound involved stays within the horizon.

``dense`` (:class:`~repro.spl.dense.DenseSLenBackend`)
    A blocked ``int32`` NumPy layout: the all-pairs matrix is a grid of
    lazily-allocated fixed-size blocks with a sentinel for ``INF``
    (all-``INF`` blocks are elided entirely), plus vectorized kernels
    (bit-packed-frontier multi-source BFS construction, rank-1
    insertion relaxation, batched affected-region settling, and the
    block-gather matching kernel behind :meth:`SLenBackend.
    sources_within`).  Memory scales with the *occupied* blocks, which
    is what lets the dense backend handle graphs past ~10⁴ nodes; the
    block edge defaults to 512 (``dense_block_size`` on
    :class:`~repro.spl.matrix.SLenMatrix` overrides it per matrix).

``auto``
    Resolved at construction time: dense for graphs with at least
    :data:`DENSE_AUTO_THRESHOLD` nodes (where the broadcast kernels
    dominate interpreter overhead by a wide margin), sparse below it,
    and sparse whenever :mod:`numpy` is unavailable.

The abstract base class provides *generic* kernel implementations in
terms of the storage primitives; they return exactly what the
pre-refactor pure-Python full scans returned, so a backend only needs
to implement storage to be correct, and overrides kernels only to be
fast.
"""

from __future__ import annotations

import abc
import heapq
import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

from repro.graph.digraph import DataGraph
from repro.spl.sssp import bfs_lengths, bfs_lengths_within

NodeId = Hashable
Pair = tuple[NodeId, NodeId]
Change = tuple[float, float]

#: Distance value used for unreachable pairs.
INF: float = math.inf

#: ``auto`` picks the dense backend at or above this node count.
DENSE_AUTO_THRESHOLD: int = 256

#: Names accepted wherever a backend is selected.
BACKEND_NAMES: tuple[str, ...] = ("sparse", "dense", "auto")

_NO_EDGES: frozenset = frozenset()
_NO_NODES: frozenset = frozenset()


class SLenBackend(abc.ABC):
    """Storage + maintenance-kernel interface behind :class:`SLenMatrix`.

    Subclasses must implement the storage primitives; the maintenance
    kernels have generic (pure-Python) default implementations written
    against those primitives and may be overridden with vectorized
    versions.  All distances handed out are plain Python ``int``s (or
    :data:`INF`); backends are responsible for any conversion.
    """

    #: Selection name of the backend ("sparse" / "dense").
    name: str = "abstract"

    horizon: float

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def node_set(self) -> set[NodeId]:
        """A fresh set holding the node universe."""

    @abc.abstractmethod
    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` is in the universe."""

    @abc.abstractmethod
    def number_of_nodes(self) -> int:
        """``|VD|`` as seen by the backend."""

    @abc.abstractmethod
    def get(self, source: NodeId, target: NodeId) -> float | int:
        """``SLen(source, target)``; :data:`INF` when absent."""

    @abc.abstractmethod
    def row(self, source: NodeId) -> dict[NodeId, int]:
        """A fresh dict of the finite entries of one row."""

    @abc.abstractmethod
    def row_view(self, source: NodeId) -> Mapping[NodeId, int]:
        """A read-only mapping of the finite entries of one row.

        May be the internal representation (sparse) or a cached
        materialisation (dense); callers must not mutate it.
        """

    @abc.abstractmethod
    def column(self, target: NodeId) -> dict[NodeId, int]:
        """``{source: distance}`` over all sources reaching ``target``."""

    @abc.abstractmethod
    def set_value(self, source: NodeId, target: NodeId, value: float | int) -> None:
        """Set one entry; :data:`INF` (or beyond the horizon) removes it."""

    @abc.abstractmethod
    def set_row(self, source: NodeId, row: Mapping[NodeId, int]) -> None:
        """Replace one row (entries beyond the horizon are dropped)."""

    @abc.abstractmethod
    def replace_row_raw(self, source: NodeId, row: dict[NodeId, int]) -> None:
        """Replace one row verbatim, without horizon filtering.

        Used by :meth:`recompute_rows`, which historically stores plain
        BFS rows even on a bounded matrix.
        """

    @abc.abstractmethod
    def add_node(self, node: NodeId) -> None:
        """Add an isolated node to the universe."""

    @abc.abstractmethod
    def remove_node(self, node: NodeId) -> None:
        """Drop a node, its row and its column."""

    @abc.abstractmethod
    def copy(self) -> "SLenBackend":
        """An independent deep copy (same backend kind and horizon)."""

    def fork(self) -> "SLenBackend":
        """A snapshot clone optimised for structural sharing.

        Backends with copy-on-write storage (the blocked dense grid)
        override this to share unmodified storage between the clone and
        the live instance; the generic fallback is a deep
        :meth:`copy`, so ``fork`` is always safe to use for snapshot
        publication regardless of backend kind.
        """
        return self.copy()

    def finite_entries(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Iterate over ``(source, target, distance)`` finite entries."""
        for source in self.node_set():
            for target, dist in self.row_view(source).items():
                yield (source, target, dist)

    def sources_within(
        self, sources: Iterable[NodeId], targets: Iterable[NodeId], bound: float | int
    ) -> set[NodeId]:
        """Subset of ``sources`` reaching some node of ``targets`` within ``bound``.

        The bulk form of the BGS edge-constraint check: the simulation
        fixpoint asks this question once per pattern edge per refinement
        round, for the whole candidate set at once.  The generic
        implementation scans each source's row view with the same
        small/large-set heuristics the scalar check used; the dense
        backend overrides it with one block-wise submatrix gather.
        Sources or targets outside the universe are ignored; ``bound``
        may be :data:`INF` (any finite distance qualifies — the ``"*"``
        wildcard).
        """
        target_set = targets if isinstance(targets, (set, frozenset)) else set(targets)
        satisfied: set[NodeId] = set()
        if not target_set:
            return satisfied
        for source in sources:
            if source not in self:
                continue
            row = self.row_view(source)
            if len(row) <= len(target_set):
                for target, dist in row.items():
                    if dist <= bound and target in target_set:
                        satisfied.add(source)
                        break
            else:
                for target in target_set:
                    dist = row.get(target)
                    if dist is not None and dist <= bound:
                        satisfied.add(source)
                        break
        return satisfied

    def finite_count(self) -> int:
        """Number of finite (stored) entries."""
        return sum(len(self.row_view(source)) for source in self.node_set())

    # ------------------------------------------------------------------
    # Maintenance kernels (generic pure-Python defaults)
    # ------------------------------------------------------------------
    def build(self, graph: DataGraph) -> None:
        """Populate the matrix from ``graph`` (universe must match)."""
        if self.horizon == INF:
            for source in graph.nodes():
                self.replace_row_raw(source, bfs_lengths(graph, source))
        else:
            depth = int(self.horizon)
            for source in graph.nodes():
                self.replace_row_raw(source, bfs_lengths_within(graph, source, depth))

    def recompute_rows(self, graph: DataGraph, sources: Iterable[NodeId]) -> set[NodeId]:
        """Recompute the rows of ``sources`` by BFS; return the changed ones."""
        changed: set[NodeId] = set()
        for source in sources:
            new_row = bfs_lengths(graph, source)
            if new_row != dict(self.row_view(source)):
                self.replace_row_raw(source, new_row)
                changed.add(source)
        return changed

    def relax_edge(self, source: NodeId, target: NodeId) -> dict[Pair, Change]:
        """Apply the insertion relaxation for edge ``source -> target``.

        Mutates the matrix in place and returns the changed pairs as
        ``{(x, y): (old, new)}``.

        Only sources ``S`` x targets ``T`` are scanned, where (writing
        ``u -> v`` for the edge, ``d`` for the pre-insertion matrix and
        ``h`` for the horizon)::

            T = {y : 1 + d(v, y) < d(u, y) and 1 + d(v, y) <= h}
            S = {x : d(x, u) + 1 < d(x, v)}

        If ``(x, y)`` improves, its candidate ``c = d(x, u) + 1 + d(v, y)``
        satisfies ``c <= h`` and ``c < d(x, y)``.  Were ``d(u, y) <= 1 +
        d(v, y)``, the path through ``u`` would give ``d(x, y) <= c``;
        were ``d(x, v) <= d(x, u) + 1``, the path through ``v`` would.
        Both bounds are at most ``h``, so they hold on the horizon-clipped
        matrix too, which every caller hands in exact (each stored entry
        is the true distance, absent entries lie beyond the horizon).
        ``T`` is computed first, and an empty ``T`` returns before
        ``column(u)`` is built.  Pairs are visited in column-then-row
        order, so the result and its key order equal a full scan of
        ``column(u) x row(v)``.
        """
        row_source = self.row_view(source)
        horizon = self.horizon
        improvable = [
            (y, dist_from_target + 1)
            for y, dist_from_target in self.row_view(target).items()
            if dist_from_target + 1 <= horizon
            and dist_from_target + 1 < row_source.get(y, INF)
        ]
        changed: dict[Pair, Change] = {}
        if not improvable:
            return changed
        sources_into = self.column(source)
        sources_into[source] = 0
        for x, dist_to_source in sources_into.items():
            row_x = self.row_view(x)
            if dist_to_source + 1 >= row_x.get(target, INF):
                continue
            for y, tail in improvable:
                if x == y:
                    continue
                candidate = dist_to_source + tail
                if candidate > horizon:
                    continue
                current = row_x.get(y, INF)
                if candidate < current:
                    self.set_value(x, y, candidate)
                    changed[(x, y)] = (current, candidate)
        return changed

    def affected_by_edge_deletion(
        self, source: NodeId, target: NodeId
    ) -> dict[NodeId, set[NodeId]]:
        """Pairs possibly worsened by deleting edge ``source -> target``.

        A pair (x, y) is affected exactly when every old shortest path
        used the edge, i.e. ``d(x, y) == d(x, source) + 1 + d(target, y)``
        (pre-deletion distances).  Returns ``{x: {y, ...}}`` with only
        non-empty target sets.

        Only sources ``S`` x targets ``T`` are scanned (``u -> v`` the
        edge, ``d`` the pre-deletion matrix)::

            T = {y : d(u, y) == 1 + d(v, y)}
            S = {x : d(x, v) == d(x, u) + 1}

        If ``(x, y)`` is affected, the triangle inequality through ``u``
        gives ``d(u, y) >= 1 + d(v, y)`` and the edge itself gives ``<=``;
        symmetrically for ``d(x, v)``.  Both sides are at most ``d(x, y)``,
        so the equalities hold on the horizon-clipped matrix as well.  An
        empty ``T`` returns before ``column(u)`` is built; sources keep
        column order and each target set is built in row order, so the
        result equals a full scan of ``column(u) x row(v)``.
        """
        row_source = self.row_view(source)
        through_edge = [
            (y, dist_from_target + 1)
            for y, dist_from_target in self.row_view(target).items()
            if row_source.get(y) == dist_from_target + 1
        ]
        affected: dict[NodeId, set[NodeId]] = {}
        if not through_edge:
            return affected
        column_source = self.column(source)
        column_source[source] = 0
        for x, dist_to_source in column_source.items():
            row_x = self.row_view(x)
            if row_x.get(target) != dist_to_source + 1:
                continue
            targets = {
                y
                for y, tail in through_edge
                if x != y and row_x.get(y) == dist_to_source + tail
            }
            if targets:
                affected[x] = targets
        return affected

    def affected_by_node_deletion(
        self, old_row: Mapping[NodeId, int], old_column: Mapping[NodeId, int]
    ) -> dict[NodeId, set[NodeId]]:
        """Pairs possibly worsened by a node deletion.

        ``old_row`` / ``old_column`` are the deleted node's row and column
        captured *before* its removal from the matrix; the node (and any
        other node no longer in the universe) is excluded automatically
        because membership is checked against the current universe.
        """
        affected: dict[NodeId, set[NodeId]] = {}
        for x, dist_to_node in old_column.items():
            if x not in self:
                continue
            row_x = self.row_view(x)
            targets = {
                y
                for y, dist_from_node in old_row.items()
                if y != x and y in self and row_x.get(y) == dist_to_node + dist_from_node
            }
            if targets:
                affected[x] = targets
        return affected

    def settle_sources(
        self,
        graph_after: DataGraph,
        affected_by_source: Mapping[NodeId, set[NodeId]],
        skip_edges: frozenset[tuple[NodeId, NodeId]] | set = _NO_EDGES,
        skip_nodes: frozenset[NodeId] | set = _NO_NODES,
    ) -> dict[NodeId, dict[NodeId, int]]:
        """Recompute ``d(source, y)`` for every affected ``y`` per source.

        Pure: the matrix is *not* mutated; the caller applies the
        returned values (``{source: {target: new_distance}}``; targets
        that became unreachable are absent).  ``skip_edges`` /
        ``skip_nodes`` exclude parts of ``graph_after`` from the
        traversal — the coalesced pass uses them to settle against the
        deletions-only graph while ``graph_after`` already contains the
        batch's insertions.
        """
        return {
            source: self._settle_one(graph_after, source, affected, skip_edges, skip_nodes)
            for source, affected in affected_by_source.items()
        }

    def _settle_one(
        self,
        graph_after: DataGraph,
        source: NodeId,
        affected: set[NodeId],
        skip_edges: frozenset[tuple[NodeId, NodeId]] | set,
        skip_nodes: frozenset[NodeId] | set,
    ) -> dict[NodeId, int]:
        """One source's affected-region recompute (Ramalingam-Reps).

        Every affected node is seeded with the best distance achievable
        through an unaffected in-neighbour (whose distance is known to be
        unchanged by the deletion) and the remaining slack is resolved by
        a small Dijkstra over the affected set only.
        """
        source_row = self.row_view(source) if source in self else {}
        tentative: dict[NodeId, float] = {}
        for y in affected:
            best = INF
            for w in graph_after.predecessors_view(y):
                if w in affected or w in skip_nodes or (w, y) in skip_edges:
                    continue
                if w == source:
                    upstream = 0
                else:
                    upstream = source_row.get(w)
                    if upstream is None:
                        continue
                if upstream + 1 < best:
                    best = upstream + 1
            if best < INF:
                tentative[y] = best
        settled: dict[NodeId, int] = {}
        heap: list[tuple[float, str, NodeId]] = [
            (dist, repr(y), y) for y, dist in tentative.items()
        ]
        heapq.heapify(heap)
        while heap:
            dist, _, y = heapq.heappop(heap)
            if y in settled or dist > tentative.get(y, INF):
                continue
            settled[y] = int(dist)
            for z in graph_after.successors_view(y):
                if z not in affected or z in settled or (y, z) in skip_edges:
                    continue
                if dist + 1 < tentative.get(z, INF):
                    tentative[z] = dist + 1
                    heapq.heappush(heap, (dist + 1, repr(z), z))
        return settled

    def settle_sources_transposed(
        self,
        graph_after: DataGraph,
        affected_by_source: Mapping[NodeId, set[NodeId]],
        skip_edges: frozenset[tuple[NodeId, NodeId]] | set = _NO_EDGES,
        skip_nodes: frozenset[NodeId] | set = _NO_NODES,
    ) -> dict[NodeId, dict[NodeId, int]]:
        """The per-target transposed deletion sweep.

        Computes exactly what :meth:`settle_sources` computes, but runs
        one settle per affected *target*, shared across every source
        affected for that target — the mirror image of the per-source
        settle, i.e. the Ramalingam-Reps recompute on the transposed
        graph.  It wins when deletions damage few distinct targets seen
        from many sources (the "edge near a sink" shape), where the
        per-source orientation would repeat near-identical Dijkstras.
        """
        affected_by_target: dict[NodeId, set[NodeId]] = {}
        for source, targets in affected_by_source.items():
            for target in targets:
                affected_by_target.setdefault(target, set()).add(source)
        results: dict[NodeId, dict[NodeId, int]] = {
            source: {} for source in affected_by_source
        }
        for target, sources in affected_by_target.items():
            settled = self._settle_one_transposed(
                graph_after, target, sources, skip_edges, skip_nodes
            )
            for source, dist in settled.items():
                results[source][target] = dist
        return results

    def _settle_one_transposed(
        self,
        graph_after: DataGraph,
        target: NodeId,
        affected_sources: set[NodeId],
        skip_edges: frozenset[tuple[NodeId, NodeId]] | set,
        skip_nodes: frozenset[NodeId] | set,
    ) -> dict[NodeId, int]:
        """One target's affected-region recompute over its sources.

        Mirror of :meth:`_settle_one`: every affected source is seeded
        with the best distance achievable through an unaffected
        out-neighbour (whose distance *to the target* is known to be
        unchanged by the deletion) and the remaining slack is resolved by
        a small Dijkstra over the affected sources only, relaxing along
        *incoming* edges.
        """
        target_column = self.column(target) if target in self else {}
        tentative: dict[NodeId, float] = {}
        for x in affected_sources:
            best = INF
            for z in graph_after.successors_view(x):
                if z in affected_sources or z in skip_nodes or (x, z) in skip_edges:
                    continue
                if z == target:
                    downstream = 0
                else:
                    downstream = target_column.get(z)
                    if downstream is None:
                        continue
                if downstream + 1 < best:
                    best = downstream + 1
            if best < INF:
                tentative[x] = best
        settled: dict[NodeId, int] = {}
        heap: list[tuple[float, str, NodeId]] = [
            (dist, repr(x), x) for x, dist in tentative.items()
        ]
        heapq.heapify(heap)
        while heap:
            dist, _, x = heapq.heappop(heap)
            if x in settled or dist > tentative.get(x, INF):
                continue
            settled[x] = int(dist)
            for w in graph_after.predecessors_view(x):
                if w not in affected_sources or w in settled or (w, x) in skip_edges:
                    continue
                if dist + 1 < tentative.get(w, INF):
                    tentative[w] = dist + 1
                    heapq.heappush(heap, (dist + 1, repr(w), w))
        return settled


class SparseSLenBackend(SLenBackend):
    """The original dict-of-dicts storage: only finite entries are kept.

    Memory scales with the number of finite entries and all kernels are
    the generic pure-Python ones — this backend is bit-for-bit the
    pre-refactor :class:`SLenMatrix` behaviour.
    """

    name = "sparse"

    __slots__ = ("_nodes", "_rows", "horizon")

    def __init__(self, nodes: Iterable[NodeId] = (), horizon: float = INF) -> None:
        self._nodes: set[NodeId] = set(nodes)
        self._rows: dict[NodeId, dict[NodeId, int]] = {node: {node: 0} for node in self._nodes}
        self.horizon = horizon

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def node_set(self) -> set[NodeId]:
        """A fresh set holding the node universe."""
        return set(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def number_of_nodes(self) -> int:
        """``|VD|`` as seen by the backend."""
        return len(self._nodes)

    def get(self, source: NodeId, target: NodeId) -> float | int:
        """``SLen(source, target)``; :data:`INF` when absent."""
        return self._rows[source].get(target, INF)

    def row(self, source: NodeId) -> dict[NodeId, int]:
        """A fresh dict of the finite entries of one row."""
        return dict(self._rows[source])

    def row_view(self, source: NodeId) -> Mapping[NodeId, int]:
        """The internal row dict itself (callers must not mutate it)."""
        return self._rows[source]

    def column(self, target: NodeId) -> dict[NodeId, int]:
        """``{source: distance}`` over all sources reaching ``target``."""
        return {
            source: row[target]
            for source, row in self._rows.items()
            if target in row
        }

    def set_value(self, source: NodeId, target: NodeId, value: float | int) -> None:
        """Set one entry; :data:`INF` (or beyond the horizon) removes it."""
        if value == INF or value > self.horizon:
            self._rows[source].pop(target, None)
        else:
            self._rows[source][target] = int(value)

    def set_row(self, source: NodeId, row: Mapping[NodeId, int]) -> None:
        """Replace one row (entries beyond the horizon are dropped)."""
        new_row = {
            target: int(dist)
            for target, dist in row.items()
            if dist <= self.horizon
        }
        new_row[source] = 0
        self._rows[source] = new_row

    def replace_row_raw(self, source: NodeId, row: dict[NodeId, int]) -> None:
        """Replace one row verbatim, without horizon filtering."""
        self._rows[source] = row

    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (its row starts at ``{node: 0}``)."""
        self._nodes.add(node)
        self._rows[node] = {node: 0}

    def remove_node(self, node: NodeId) -> None:
        """Drop a node, its row and its column."""
        self._nodes.discard(node)
        del self._rows[node]
        for row in self._rows.values():
            row.pop(node, None)

    def copy(self) -> "SparseSLenBackend":
        """An independent deep copy (same horizon)."""
        clone = SparseSLenBackend(horizon=self.horizon)
        clone._nodes = set(self._nodes)
        clone._rows = {source: dict(row) for source, row in self._rows.items()}
        return clone

    # ------------------------------------------------------------------
    # Deletion-settle orientation
    # ------------------------------------------------------------------
    def settle_sources(
        self,
        graph_after: DataGraph,
        affected_by_source: Mapping[NodeId, set[NodeId]],
        skip_edges: frozenset[tuple[NodeId, NodeId]] | set = _NO_EDGES,
        skip_nodes: frozenset[NodeId] | set = _NO_NODES,
    ) -> dict[NodeId, dict[NodeId, int]]:
        """Settle in whichever orientation needs fewer Dijkstras.

        The per-source settle runs one Dijkstra per affected source; the
        transposed sweep one per distinct affected *target*, shared
        across all sources (the dense backend's batched settle gets this
        sharing implicitly from its matrix fixpoint — this closes the
        sparse/dense deletion-kernel gap).  Both orientations compute the
        exact Ramalingam-Reps fixpoint, so the choice is purely a cost
        call: the transposed sweep pays one column scan per target, hence
        it is only taken when there are strictly fewer targets than
        sources.
        """
        if affected_by_source:
            distinct_targets: set[NodeId] = set()
            for targets in affected_by_source.values():
                distinct_targets |= targets
            if len(distinct_targets) < len(affected_by_source):
                return self.settle_sources_transposed(
                    graph_after, affected_by_source, skip_edges, skip_nodes
                )
        return super().settle_sources(
            graph_after, affected_by_source, skip_edges, skip_nodes
        )

    def finite_count(self) -> int:
        """Number of finite (stored) entries."""
        return sum(len(row) for row in self._rows.values())

    def finite_entries(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Iterate over ``(source, target, distance)`` finite entries."""
        for source, row in self._rows.items():
            for target, dist in row.items():
                yield (source, target, dist)


def dense_available() -> bool:
    """Whether the dense backend can be used (numpy importable)."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is baked into the test image
        return False
    return True


def resolve_backend_name(name: str, num_nodes: int) -> str:
    """Resolve a backend selection to a concrete backend name.

    ``auto`` picks ``dense`` for at least :data:`DENSE_AUTO_THRESHOLD`
    nodes (falling back to ``sparse`` when numpy is missing); ``sparse``
    and ``dense`` pass through unchanged.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown SLen backend {name!r}; expected one of {BACKEND_NAMES}")
    if name == "auto":
        if num_nodes >= DENSE_AUTO_THRESHOLD and dense_available():
            return "dense"
        return "sparse"
    return name


def make_backend(
    name: str,
    nodes: Iterable[NodeId] = (),
    horizon: float = INF,
    dense_block_size: Optional[int] = None,
) -> SLenBackend:
    """Instantiate a backend by (resolved or unresolved) name.

    ``dense_block_size`` sets the blocked dense layout's block edge
    (``None`` = :data:`repro.spl.dense.DEFAULT_DENSE_BLOCK_SIZE`); the
    sparse backend ignores it.
    """
    nodes = list(nodes)
    resolved = resolve_backend_name(name, len(nodes))
    if resolved == "sparse":
        return SparseSLenBackend(nodes, horizon=horizon)
    from repro.spl.dense import DEFAULT_DENSE_BLOCK_SIZE, DenseSLenBackend

    return DenseSLenBackend(
        nodes,
        horizon=horizon,
        block_size=DEFAULT_DENSE_BLOCK_SIZE if dense_block_size is None else dense_block_size,
    )
