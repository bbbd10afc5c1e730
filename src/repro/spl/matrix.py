"""The all-pairs shortest path length matrix ``SLen`` (Table II).

``SLen(u, v)`` is the length of the shortest directed path from ``u`` to
``v`` in the data graph, or :data:`INF` when ``v`` is unreachable from
``u``.  The matrix dominates both the memory footprint and the
maintenance cost of the whole system (the paper's Hybrid-format remark),
so its storage is *pluggable* (:mod:`repro.spl.backend`):

``sparse`` (default)
    Dict-of-dicts keeping only finite entries — O(finite entries) memory,
    pure-Python maintenance kernels.  Mirrors the paper's observation
    that social graphs produce many infinite entries.

``dense``
    A blocked ``int32`` NumPy layout (:mod:`repro.spl.dense`) — a grid
    of lazily-allocated fixed-size blocks (all-``INF`` blocks elided),
    so memory scales with the occupied blocks rather than |V|², plus
    vectorized construction, insertion, deletion and matching kernels
    that replace per-entry interpreter overhead with array operations.
    The block edge defaults to 512; the constructors' ``dense_block_size``
    argument overrides it per matrix.

``auto``
    Dense at or above
    :data:`~repro.spl.backend.DENSE_AUTO_THRESHOLD` nodes (sparse when
    :mod:`numpy` is unavailable), sparse below — the point where the
    broadcast kernels decisively beat the dict loops while the O(|V|²)
    memory stays modest.

Both backends are horizon-aware: a finite horizon turns the matrix into
a bounded distance index whose entries beyond the horizon are absent.

The class supports the operations every layer above needs:

* construction from a :class:`~repro.graph.digraph.DataGraph` via
  all-pairs BFS,
* point queries and row views,
* row recomputation for a subset of sources (the incremental maintenance
  in :mod:`repro.spl.incremental` relies on this),
* structural edits when nodes are inserted into / removed from the graph,
* dense export to :mod:`numpy` for the ablation benchmarks.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

import numpy as np

from repro.graph.digraph import DataGraph
from repro.graph.errors import MissingNodeError
from repro.spl.backend import (
    BACKEND_NAMES,
    DENSE_AUTO_THRESHOLD,
    INF,
    SLenBackend,
    make_backend,
    resolve_backend_name,
)

NodeId = Hashable

__all__ = [
    "INF",
    "SLenMatrix",
    "BACKEND_NAMES",
    "DENSE_AUTO_THRESHOLD",
]


class SLenMatrix:
    """All-pairs shortest path length matrix over a fixed node set.

    The node set is explicit (not inferred from the finite entries) so
    that fully disconnected nodes still appear in :meth:`nodes`.  Storage
    and maintenance kernels live in a pluggable backend (see the module
    docstring); matrices with different backends compare equal when they
    hold the same distances.

    Examples
    --------
    >>> g = DataGraph({"a": "X", "b": "X", "c": "X"}, [("a", "b"), ("b", "c")])
    >>> slen = SLenMatrix.from_graph(g)
    >>> slen.distance("a", "c")
    2
    >>> slen.distance("c", "a")
    inf
    """

    __slots__ = ("_backend",)

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        horizon: float = INF,
        backend: str = "sparse",
        dense_block_size: Optional[int] = None,
    ) -> None:
        if horizon != INF and horizon < 0:
            raise ValueError("horizon must be non-negative")
        self._backend = make_backend(
            backend, nodes, horizon=horizon, dense_block_size=dense_block_size
        )

    @classmethod
    def _from_backend(cls, backend: SLenBackend) -> "SLenMatrix":
        matrix = cls.__new__(cls)
        matrix._backend = backend
        return matrix

    @property
    def backend(self) -> SLenBackend:
        """The storage backend (used by the maintenance kernels)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Resolved backend name (``"sparse"`` or ``"dense"``)."""
        return self._backend.name

    @property
    def horizon(self) -> float:
        """Largest distance the matrix stores.

        Defaults to :data:`INF` (full all-pairs matrix).  A finite horizon
        turns the matrix into a *bounded* distance index: entries larger
        than the horizon are simply absent and read back as :data:`INF`.
        Bounded matrices are sufficient — and much cheaper to maintain —
        whenever every pattern bound is at most the horizon and no pattern
        edge uses the ``"*"`` wildcard; the experiment harness relies on
        this (DESIGN.md, substitution table).
        """
        return self._backend.horizon

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: DataGraph,
        horizon: float = INF,
        backend: str = "sparse",
        dense_block_size: Optional[int] = None,
    ) -> "SLenMatrix":
        """Build the matrix from ``graph`` (all-pairs BFS).

        ``backend`` selects the storage/kernel implementation
        (``sparse`` / ``dense`` / ``auto``); the sparse backend runs one
        Python BFS per source, the dense backend a bit-packed-frontier
        multi-source BFS per block-row stripe.  ``dense_block_size``
        sets the blocked layout's block edge (dense backends only).
        """
        matrix = cls(
            graph.nodes(),
            horizon=horizon,
            backend=backend,
            dense_block_size=dense_block_size,
        )
        matrix._backend.build(graph)
        return matrix

    @classmethod
    def from_rows(
        cls,
        nodes: Iterable[NodeId],
        rows: Mapping[NodeId, Mapping[NodeId, int]],
        backend: str = "sparse",
        dense_block_size: Optional[int] = None,
    ) -> "SLenMatrix":
        """Build a matrix from precomputed BFS rows (used by the partition layer).

        ``dense_block_size`` sets the blocked dense layout's block edge
        when ``backend`` resolves to dense (``None`` = the default edge);
        the sparse backend ignores it.
        """
        matrix = cls(nodes, backend=backend, dense_block_size=dense_block_size)
        store = matrix._backend
        for source, row in rows.items():
            if source not in store:
                raise MissingNodeError(source)
            new_row = {target: int(dist) for target, dist in row.items()}
            new_row[source] = 0
            store.replace_row_raw(source, new_row)
        return matrix

    def to_backend(
        self, backend: str, dense_block_size: Optional[int] = None
    ) -> "SLenMatrix":
        """Return a copy of this matrix stored in ``backend``.

        A no-op copy when the resolved backend matches the current one
        *and* no different block size was requested (``dense_block_size``
        of ``None`` preserves the current block size); a dense matrix
        asked for a different ``dense_block_size`` is re-blocked, and a
        conversion to dense honours ``dense_block_size``.
        """
        resolved = resolve_backend_name(backend, self.number_of_nodes)
        if resolved == self._backend.name:
            current_block_size = getattr(self._backend, "block_size", None)
            if (
                dense_block_size is None
                or current_block_size is None
                or int(dense_block_size) == current_block_size
            ):
                return self.copy()
        converted = SLenMatrix(
            self.nodes(),
            horizon=self.horizon,
            backend=resolved,
            dense_block_size=dense_block_size,
        )
        store = converted._backend
        for source in self._backend.node_set():
            store.replace_row_raw(source, dict(self._backend.row_view(source)))
        return converted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: NodeId, target: NodeId) -> float | int:
        """Return ``SLen(source, target)`` (:data:`INF` if unreachable)."""
        if source not in self._backend:
            raise MissingNodeError(source)
        if target not in self._backend:
            raise MissingNodeError(target)
        return self._backend.get(source, target)

    def row(self, source: NodeId) -> dict[NodeId, int]:
        """Return a copy of the finite entries of the row of ``source``."""
        if source not in self._backend:
            raise MissingNodeError(source)
        return self._backend.row(source)

    def row_view(self, source: NodeId) -> Mapping[NodeId, int]:
        """Return a read-only mapping of the finite entries of ``source``'s row.

        Callers must treat the returned mapping as read-only; it exists so
        that hot loops (the simulation fixpoint) can scan finite entries
        without allocating a copy per lookup.  The sparse backend hands
        out its internal row; the dense backend a cached materialisation.
        """
        if source not in self._backend:
            raise MissingNodeError(source)
        return self._backend.row_view(source)

    def column(self, target: NodeId) -> dict[NodeId, int]:
        """Return ``{source: distance}`` for all sources reaching ``target``."""
        if target not in self._backend:
            raise MissingNodeError(target)
        return self._backend.column(target)

    def reachable_from(self, source: NodeId) -> frozenset[NodeId]:
        """Nodes at finite distance from ``source`` (including itself)."""
        if source not in self._backend:
            raise MissingNodeError(source)
        return frozenset(self._backend.row_view(source))

    def within(self, source: NodeId, bound: float | int) -> frozenset[NodeId]:
        """Nodes ``v`` with ``SLen(source, v) <= bound``."""
        if source not in self._backend:
            raise MissingNodeError(source)
        return frozenset(
            target
            for target, dist in self._backend.row_view(source).items()
            if dist <= bound
        )

    def sources_within(
        self, sources: Iterable[NodeId], targets: Iterable[NodeId], bound: float | int
    ) -> set[NodeId]:
        """Subset of ``sources`` with ``SLen(source, t) <= bound`` for some ``t`` in ``targets``.

        The bulk edge-constraint check of the BGS simulation fixpoint:
        one call per pattern edge per refinement round, answered on the
        dense backend by a block-wise submatrix gather instead of one
        materialised row dict per source (:meth:`repro.spl.backend.
        SLenBackend.sources_within`).  ``bound`` may be :data:`INF`
        (any finite distance qualifies).  Sources or targets outside
        the matrix universe are ignored.
        """
        return self._backend.sources_within(sources, targets, bound)

    def nodes(self) -> frozenset[NodeId]:
        """The node universe of the matrix."""
        return frozenset(self._backend.node_set())

    def finite_entries(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Iterate over ``(source, target, distance)`` for finite entries."""
        return self._backend.finite_entries()

    @property
    def number_of_nodes(self) -> int:
        """``|VD|`` as seen by the matrix."""
        return self._backend.number_of_nodes()

    @property
    def number_of_finite_entries(self) -> int:
        """Count of finite (stored) entries."""
        return self._backend.finite_count()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_distance(self, source: NodeId, target: NodeId, value: float | int) -> None:
        """Set one entry; :data:`INF` (or a value beyond the horizon) removes it."""
        if source not in self._backend:
            raise MissingNodeError(source)
        if target not in self._backend:
            raise MissingNodeError(target)
        self._backend.set_value(source, target, value)

    def set_row(self, source: NodeId, row: Mapping[NodeId, int]) -> None:
        """Replace the whole row of ``source`` with ``row`` (finite entries only)."""
        if source not in self._backend:
            raise MissingNodeError(source)
        self._backend.set_row(source, row)

    def add_node(self, node: NodeId) -> None:
        """Add a new isolated node to the matrix universe."""
        if node in self._backend:
            return
        self._backend.add_node(node)

    def remove_node(self, node: NodeId) -> None:
        """Drop ``node`` from the universe, removing its row and column."""
        if node not in self._backend:
            raise MissingNodeError(node)
        self._backend.remove_node(node)

    def recompute_rows(self, graph: DataGraph, sources: Iterable[NodeId]) -> set[NodeId]:
        """Recompute the rows of ``sources`` from ``graph`` via BFS.

        Returns the set of sources whose row actually changed.
        """
        sources = list(sources)
        for source in sources:
            if source not in self._backend:
                raise MissingNodeError(source)
        return self._backend.recompute_rows(graph, sources)

    # ------------------------------------------------------------------
    # Copy / comparison / export
    # ------------------------------------------------------------------
    def copy(self) -> "SLenMatrix":
        """Return a deep copy of the matrix (preserving horizon and backend)."""
        return SLenMatrix._from_backend(self._backend.copy())

    def fork(self) -> "SLenMatrix":
        """Return a copy-on-write snapshot clone (see ``SLenBackend.fork``).

        On the blocked dense backend this copies only the block-pointer
        grid and shares every block until one side writes it; on
        backends without structural sharing it falls back to a deep
        copy.  Both the fork and the live matrix stay fully usable.
        """
        return SLenMatrix._from_backend(self._backend.fork())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SLenMatrix):
            return NotImplemented
        mine = self._backend
        theirs = other._backend
        if mine.node_set() != theirs.node_set():
            return False
        return all(
            dict(mine.row_view(source)) == dict(theirs.row_view(source))
            for source in mine.node_set()
        )

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("SLenMatrix is mutable and therefore unhashable")

    def __repr__(self) -> str:
        return (
            f"SLenMatrix(nodes={self.number_of_nodes}, "
            f"finite_entries={self.number_of_finite_entries}, "
            f"backend={self.backend_name!r})"
        )

    def differences(self, other: "SLenMatrix") -> dict[tuple[NodeId, NodeId], tuple]:
        """Return ``{(u, v): (self_distance, other_distance)}`` for differing pairs.

        Only pairs present in both universes are compared; this is the
        ``AFF[ui, vj] = [a, b]`` structure of Table II.
        """
        shared = self._backend.node_set() & other._backend.node_set()
        changes: dict[tuple[NodeId, NodeId], tuple] = {}
        for source in shared:
            mine = self._backend.row_view(source)
            theirs = other._backend.row_view(source)
            for target in shared:
                a = mine.get(target, INF)
                b = theirs.get(target, INF)
                if a != b:
                    changes[(source, target)] = (a, b)
        return changes

    def to_dense(self, order: Optional[list[NodeId]] = None) -> tuple[np.ndarray, list[NodeId]]:
        """Export to a dense ``numpy`` array (``inf`` for unreachable pairs).

        Returns the array together with the node ordering of its axes.
        """
        universe = self._backend.node_set()
        ordering = list(order) if order is not None else sorted(universe, key=repr)
        if set(ordering) != universe:
            raise ValueError("order must be a permutation of the matrix's node set")
        index = {node: position for position, node in enumerate(ordering)}
        dense = np.full((len(ordering), len(ordering)), INF, dtype=float)
        for source in universe:
            i = index[source]
            for target, dist in self._backend.row_view(source).items():
                dense[i, index[target]] = dist
        return dense, ordering
