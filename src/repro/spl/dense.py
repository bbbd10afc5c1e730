"""Blocked dense NumPy backend for the ``SLen`` matrix.

The all-pairs shortest path lengths are stored as a **grid of fixed-size
``int32`` blocks** indexed by a node -> slot map, with :data:`SENTINEL`
standing in for ``INF``.  Blocks are allocated lazily the first time a
finite entry lands in them, and all-``INF`` blocks are simply absent
from the grid — so memory scales with the number of *occupied* blocks,
not with |V|².  On a horizon-bounded matrix over a sparse social graph
most off-diagonal blocks never materialise, which is what lets the
dense backend handle graphs past ~10⁴ nodes (a full 10⁴×10⁴ ``int32``
matrix costs 400 MB; the blocked layout pays only for the reachable
neighbourhood structure).  The trade-off against the dict-of-dicts
sparse backend is unchanged in spirit: the sparse backend stores only
finite entries but pays per-entry interpreter overhead on every kernel,
while the blocked layout pays (at most) a block-granular memory premium
for vectorized kernels.  The ``auto`` selection policy
(:func:`repro.spl.backend.resolve_backend_name`) arbitrates via a
node-count threshold; :data:`DEFAULT_DENSE_BLOCK_SIZE` sets the block
edge (a matrix built directly through
:class:`~repro.spl.matrix.SLenMatrix` may pass ``dense_block_size``,
which tests use to force multi-block grids on small graphs).

The hot maintenance kernels are vectorized and block-aware:

* **construction** — multi-source BFS with **bit-packed frontier
  words**: sources are processed in block-row stripes, each stripe's
  frontier is packed 64 sources per ``np.uint64`` word, and one level of
  expansion is a CSR predecessor gather followed by a
  ``bitwise_or.reduceat`` over the words;
* **single-edge insertion** — the rank-1 relaxation
  ``d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y))`` restricted to the
  finite column of ``u`` × the finite row of ``v`` and gathered /
  scattered block-wise, so no |V|²-sized temporary is ever allocated;
* **deletion settle** — the batched affected-region recompute: all
  affected source rows are settled together by iterated min-plus
  relaxation over the affected columns only (``minimum.reduceat`` over
  the CSR predecessor gather), seeded from the unaffected entries,
  exactly the Ramalingam & Reps fixpoint the per-source Dijkstra
  computes;
* **matching support** — :meth:`DenseSLenBackend.sources_within`
  answers "which of these sources reach some target within the bound"
  for a whole candidate set in one block-wise gather, which is what
  drives the BGS simulation fixpoint off the block grid instead of
  materialised per-row dicts (the per-row dict cache behind
  :meth:`row_view` survives as a compatibility shim for callers that
  still want mapping semantics).

Distances are bounded by the horizon exactly like the sparse backend:
entries beyond it are simply absent (``SENTINEL``).  Early horizon
clipping inside the settle iteration is equivalent to the sparse
backend's clip-at-the-end because min-plus relaxation is monotone: any
prefix of a path of length ≤ horizon is itself ≤ horizon.

A CSR-style adjacency cache keyed on graph identity plus
``graph.version`` avoids rebuilding the predecessor arrays when several
kernels run against an unchanged graph (the
:class:`~repro.graph.digraph.DataGraph` version counter is bumped on
every structural mutation, and the cached graph is held and compared
with ``is``, so the cache can never serve stale adjacency).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

import numpy as np

from repro.graph.digraph import DataGraph
from repro.spl.backend import INF, SLenBackend, _NO_EDGES, _NO_NODES

NodeId = Hashable
Pair = tuple[NodeId, NodeId]
Change = tuple[float, float]

#: ``INF`` stand-in.  ``2**29`` keeps every kernel int32-safe: the
#: largest intermediate is ``SENTINEL + SENTINEL + 1 = 2**30 + 1 < 2**31``.
SENTINEL: int = 2**29

#: Default edge length of one block (``block_size`` × ``block_size``
#: ``int32`` entries = 1 MiB at 512).  512 keeps graphs up to the PR-2
#: benchmark sizes in a single block (so small-graph kernel behaviour is
#: unchanged) while giving a 10⁴-node matrix a 20×20 grid whose
#: unreachable regions are never allocated.
DEFAULT_DENSE_BLOCK_SIZE: int = 512


def _segment_reduce(values, segment_starts, segment_empty, ufunc, fill, axis=1):
    """Per-segment ``ufunc`` reduction of ``values`` along ``axis``.

    ``segment_starts``/``segment_empty`` describe CSR-style segments of
    the gathered axis (axis 1 for the min-plus kernels, axis 0
    for the bit-packed frontier expansion, which gathers whole
    word-rows per predecessor).  Empty segments yield ``fill``.
    Implemented via ``ufunc.reduceat`` over the non-empty segments only
    — passing empty segments to ``reduceat`` directly would mis-handle
    both the "start == end" case (it returns the element at ``start``
    unreduced) and trailing empties (whose out-of-range start would
    have to be clipped, silently truncating the previous segment).
    """
    segments = len(segment_empty)
    if axis == 1:
        shape = (values.shape[0], segments)
    else:
        shape = (segments, values.shape[1])
    out = np.full(shape, fill, dtype=values.dtype)
    if values.shape[axis] == 0:
        return out
    nonempty = ~segment_empty
    if nonempty.any():
        reduced = ufunc.reduceat(values, segment_starts[nonempty], axis=axis)
        if axis == 1:
            out[:, nonempty] = reduced
        else:
            out[nonempty] = reduced
    return out


class DenseSLenBackend(SLenBackend):
    """Blocked ``int32`` all-pairs grid with vectorized kernels.

    ``block_size`` fixes the block edge.  Storage invariants: entries
    of free or padding slots are always :data:`SENTINEL`, a block absent
    from the grid is all-:data:`SENTINEL` by definition, and every
    occupied slot's diagonal entry is ``0`` (so the diagonal blocks of
    occupied block-rows are always allocated).
    """

    name = "dense"

    __slots__ = (
        "horizon",
        "block_size",
        "_index",
        "_slots",
        "_free",
        "_blocks",
        "_owned",
        "_row_cache",
        "_csr_cache",
    )

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        horizon: float = INF,
        block_size: int = DEFAULT_DENSE_BLOCK_SIZE,
    ) -> None:
        """Create an identity matrix (diagonal 0) over ``nodes``."""
        if block_size < 1:
            raise ValueError("dense block size must be positive")
        self.horizon = horizon
        self.block_size = int(block_size)
        order = list(dict.fromkeys(nodes))
        #: node -> slot (logical row/column position in the block grid)
        self._index: dict[NodeId, int] = {node: slot for slot, node in enumerate(order)}
        #: slot -> node (``None`` for free slots)
        self._slots: list[Optional[NodeId]] = list(order)
        self._free: list[int] = []
        #: (block_row, block_col) -> (block_size, block_size) int32 block;
        #: absent blocks are all-SENTINEL by definition (INF-block elision).
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        #: keys of blocks this instance may mutate in place.  Keys in
        #: ``_blocks`` but not here are **shared** with a :meth:`fork`
        #: relative and must be copied before the first write
        #: (copy-on-write; every write path funnels through
        #: :meth:`_ensure_block` / :meth:`_writable_block`).
        self._owned: set[tuple[int, int]] = set()
        size = self.block_size
        n = len(order)
        for block_row in range((n + size - 1) // size):
            low = block_row * size
            span = np.arange(min(n, low + size) - low)
            self._ensure_block(block_row, block_row)[span, span] = 0
        #: per-row materialised finite-entry dicts — the compatibility
        #: shim behind :meth:`row_view` (invalidated on mutation).  The
        #: matching fixpoint no longer needs it (:meth:`sources_within`
        #: reads the block grid directly).
        self._row_cache: dict[NodeId, dict[NodeId, int]] = {}
        #: (graph, version) -> CSR predecessor arrays.  The graph itself
        #: is held (identity-checked with ``is``) so a freed graph's
        #: reused id can never alias the cache.
        self._csr_cache: Optional[tuple[DataGraph, int, tuple]] = None

    # ------------------------------------------------------------------
    # Horizon / geometry helpers
    # ------------------------------------------------------------------
    @property
    def _hcap(self) -> Optional[int]:
        """The horizon as an int cap, or ``None`` for an unbounded matrix."""
        return None if self.horizon == INF else int(self.horizon)

    @property
    def _num_block_rows(self) -> int:
        """Blocks per grid edge (the grid is square)."""
        return (len(self._slots) + self.block_size - 1) // self.block_size

    @property
    def _padded_capacity(self) -> int:
        """Logical slot capacity rounded up to whole blocks.

        Slots past ``len(self._slots)`` are padding: no kernel ever
        writes a finite value there, so padded gathers read
        :data:`SENTINEL` and behave like absent nodes.
        """
        return self._num_block_rows * self.block_size

    def _ensure_block(self, block_row: int, block_col: int) -> np.ndarray:
        """A **writable** block at grid position, allocating it if absent.

        This is the single copy-on-write choke point: a block shared
        with a :meth:`fork` relative is copied (and marked owned) before
        being returned, so in-place writes can never leak into a pinned
        snapshot.  Every mutation path obtains its block through here or
        through :meth:`_writable_block`.
        """
        key = (block_row, block_col)
        block = self._blocks.get(key)
        if block is None:
            block = np.full((self.block_size, self.block_size), SENTINEL, dtype=np.int32)
            self._blocks[key] = block
            self._owned.add(key)
        elif key not in self._owned:
            block = block.copy()
            self._blocks[key] = block
            self._owned.add(key)
        return block

    def _writable_block(self, key: tuple[int, int]) -> Optional[np.ndarray]:
        """The block at ``key`` made safe for in-place writes, or ``None``.

        Unlike :meth:`_ensure_block` an absent block stays absent — used
        by write paths that only mutate existing blocks.
        """
        block = self._blocks.get(key)
        if block is None or key in self._owned:
            return block
        block = block.copy()
        self._blocks[key] = block
        self._owned.add(key)
        return block

    # ------------------------------------------------------------------
    # Memory introspection (the 10⁴-node acceptance surface)
    # ------------------------------------------------------------------
    def occupied_blocks(self) -> int:
        """Number of allocated (non-elided) blocks."""
        return len(self._blocks)

    def total_blocks(self) -> int:
        """Grid size: blocks the dense-full layout would allocate."""
        return self._num_block_rows**2

    def owned_blocks(self) -> int:
        """Blocks this instance may write in place (exclusively held)."""
        return len(self._owned)

    def shared_blocks(self) -> int:
        """Blocks shared with a :meth:`fork` relative (copy-on-write)."""
        return len(self._blocks) - len(self._owned)

    def block_arrays(self) -> Iterator[np.ndarray]:
        """Iterate over the allocated block arrays (introspection only).

        Callers deduplicate by ``id()`` to account bytes shared across
        forks exactly once; mutating a yielded array is undefined.
        """
        return iter(self._blocks.values())

    def allocated_bytes(self) -> int:
        """Bytes held by allocated blocks (the matrix's real footprint).

        Blocks shared with a fork relative are counted here in full —
        use :meth:`block_arrays` with ``id()`` deduplication for
        unique-byte accounting across a snapshot family.
        """
        return sum(block.nbytes for block in self._blocks.values())

    def dense_full_bytes(self) -> int:
        """What the pre-blocked O(|V|²) ``int32`` layout would cost."""
        n = len(self._index)
        return 4 * n * n

    # ------------------------------------------------------------------
    # Block-wise gather / scatter primitives
    # ------------------------------------------------------------------
    def _row_array(self, slot: int) -> np.ndarray:
        """One logical row as a fresh int32 array over the padded capacity."""
        size = self.block_size
        out = np.full(self._padded_capacity, SENTINEL, dtype=np.int32)
        block_row, offset = divmod(slot, size)
        blocks = self._blocks
        for block_col in range(self._num_block_rows):
            block = blocks.get((block_row, block_col))
            if block is not None:
                out[block_col * size : (block_col + 1) * size] = block[offset]
        return out

    def _column_array(self, slot: int) -> np.ndarray:
        """One logical column as a fresh int32 array over the padded capacity."""
        size = self.block_size
        out = np.full(self._padded_capacity, SENTINEL, dtype=np.int32)
        block_col, offset = divmod(slot, size)
        blocks = self._blocks
        for block_row in range(self._num_block_rows):
            block = blocks.get((block_row, block_col))
            if block is not None:
                out[block_row * size : (block_row + 1) * size] = block[:, offset]
        return out

    def _gather_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stack the logical rows of slot array ``rows`` into (k, capacity)."""
        size = self.block_size
        out = np.full((len(rows), self._padded_capacity), SENTINEL, dtype=np.int32)
        if not len(rows):
            return out
        rows = np.asarray(rows, dtype=np.int64)
        positions_by_block_row: dict[int, list[int]] = {}
        for position, slot in enumerate(rows.tolist()):
            positions_by_block_row.setdefault(slot // size, []).append(position)
        blocks = self._blocks
        for block_row, positions in positions_by_block_row.items():
            pos = np.asarray(positions, dtype=np.int64)
            offsets = rows[pos] % size
            for block_col in range(self._num_block_rows):
                block = blocks.get((block_row, block_col))
                if block is not None:
                    out[pos, block_col * size : (block_col + 1) * size] = block[offsets]
        return out

    def _scatter_row(self, slot: int, values: np.ndarray) -> None:
        """Write a full padded row back, allocating blocks only for finite chunks."""
        size = self.block_size
        block_row, offset = divmod(slot, size)
        for block_col in range(self._num_block_rows):
            chunk = values[block_col * size : (block_col + 1) * size]
            key = (block_row, block_col)
            block = self._blocks.get(key)
            if block is None:
                if (chunk < SENTINEL).any():
                    self._ensure_block(block_row, block_col)[offset] = chunk
            elif key in self._owned:
                block[offset] = chunk
            elif (block[offset] != chunk).any():
                # Shared block: copy only when the row actually changes.
                self._ensure_block(block_row, block_col)[offset] = chunk

    def _gather_pairs_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The submatrix ``D[xs × ys]`` as a fresh (|xs|, |ys|) int32 array."""
        size = self.block_size
        out = np.full((len(xs), len(ys)), SENTINEL, dtype=np.int32)
        if not len(xs) or not len(ys):
            return out
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        row_groups: dict[int, list[int]] = {}
        for position, slot in enumerate(xs.tolist()):
            row_groups.setdefault(slot // size, []).append(position)
        col_groups: dict[int, list[int]] = {}
        for position, slot in enumerate(ys.tolist()):
            col_groups.setdefault(slot // size, []).append(position)
        for block_row, row_positions in row_groups.items():
            row_pos = np.asarray(row_positions, dtype=np.int64)
            row_off = xs[row_pos] % size
            for block_col, col_positions in col_groups.items():
                block = self._blocks.get((block_row, block_col))
                if block is None:
                    continue
                col_pos = np.asarray(col_positions, dtype=np.int64)
                col_off = ys[col_pos] % size
                out[np.ix_(row_pos, col_pos)] = block[np.ix_(row_off, col_off)]
        return out

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def node_set(self) -> set[NodeId]:
        """A fresh set holding the node universe."""
        return set(self._index)

    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` is in the universe."""
        return node in self._index

    def number_of_nodes(self) -> int:
        """``|VD|`` as seen by the backend."""
        return len(self._index)

    def get(self, source: NodeId, target: NodeId) -> float | int:
        """``SLen(source, target)``; :data:`INF` when absent."""
        size = self.block_size
        i = self._index[source]
        j = self._index[target]
        block = self._blocks.get((i // size, j // size))
        if block is None:
            return INF
        value = int(block[i % size, j % size])
        return INF if value >= SENTINEL else value

    def row(self, source: NodeId) -> dict[NodeId, int]:
        """A fresh dict of the finite entries of one row."""
        values = self._row_array(self._index[source])
        slots = self._slots
        return {
            slots[position]: int(values[position])
            for position in np.nonzero(values < SENTINEL)[0]
        }

    def row_view(self, source: NodeId) -> Mapping[NodeId, int]:
        """A cached finite-entry dict of one row (compatibility shim).

        Kept for callers that want mapping semantics over a row; the
        matching fixpoint itself goes through :meth:`sources_within` and
        never materialises these dicts.
        """
        cached = self._row_cache.get(source)
        if cached is None:
            if source not in self._index:
                raise KeyError(source)
            cached = self.row(source)
            self._row_cache[source] = cached
        return cached

    def column(self, target: NodeId) -> dict[NodeId, int]:
        """``{source: distance}`` over all sources reaching ``target``."""
        values = self._column_array(self._index[target])
        slots = self._slots
        return {
            slots[position]: int(values[position])
            for position in np.nonzero(values < SENTINEL)[0]
        }

    def set_value(self, source: NodeId, target: NodeId, value: float | int) -> None:
        """Set one entry; :data:`INF` (or beyond the horizon) removes it."""
        size = self.block_size
        i = self._index[source]
        j = self._index[target]
        key = (i // size, j // size)
        if value == INF or value > self.horizon:
            block = self._blocks.get(key)
            if block is not None and block[i % size, j % size] < SENTINEL:
                self._writable_block(key)[i % size, j % size] = SENTINEL
        else:
            value = int(value)
            block = self._blocks.get(key)
            if block is None or block[i % size, j % size] != value:
                self._ensure_block(*key)[i % size, j % size] = value
        self._row_cache.pop(source, None)

    def set_row(self, source: NodeId, row: Mapping[NodeId, int]) -> None:
        """Replace one row (entries beyond the horizon are dropped)."""
        i = self._index[source]
        values = np.full(self._padded_capacity, SENTINEL, dtype=np.int32)
        horizon = self.horizon
        for target, dist in row.items():
            if dist <= horizon:
                values[self._index[target]] = int(dist)
        values[i] = 0
        self._scatter_row(i, values)
        self._row_cache.pop(source, None)

    def replace_row_raw(self, source: NodeId, row: dict[NodeId, int]) -> None:
        """Replace one row verbatim, without horizon filtering."""
        i = self._index[source]
        values = np.full(self._padded_capacity, SENTINEL, dtype=np.int32)
        for target, dist in row.items():
            values[self._index[target]] = int(dist)
        self._scatter_row(i, values)
        self._row_cache.pop(source, None)

    def add_node(self, node: NodeId) -> None:
        """Add an isolated node, reusing a free slot when one exists.

        Free slots were scrubbed to :data:`SENTINEL` on removal and
        appended slots live in never-written block regions, so only the
        diagonal needs establishing.
        """
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = node
        else:
            slot = len(self._slots)
            self._slots.append(node)
        self._index[node] = slot
        block_row, offset = divmod(slot, self.block_size)
        self._ensure_block(block_row, block_row)[offset, offset] = 0

    def remove_node(self, node: NodeId) -> None:
        """Drop a node, scrubbing its row and column; prune emptied blocks."""
        slot = self._index.pop(node)
        self._slots[slot] = None
        self._free.append(slot)
        block_index, offset = divmod(slot, self.block_size)
        grid = self._num_block_rows
        candidates = {(block_index, other) for other in range(grid)}
        candidates.update((other, block_index) for other in range(grid))
        emptied = []
        for key in candidates:
            block = self._blocks.get(key)
            if block is None:
                continue
            # Scrub (and pay the whole-block emptiness scan) only when
            # the node's row/column segment actually held finite entries
            # — an O(block_size) probe per block otherwise.  The probe
            # reads the (possibly shared) block; the write goes through
            # the copy-on-write path.
            scrub_row = key[0] == block_index and (block[offset, :] < SENTINEL).any()
            scrub_col = key[1] == block_index and (block[:, offset] < SENTINEL).any()
            if not (scrub_row or scrub_col):
                continue
            block = self._writable_block(key)
            if scrub_row:
                block[offset, :] = SENTINEL
            if scrub_col:
                block[:, offset] = SENTINEL
            if not (block < SENTINEL).any():
                emptied.append(key)
        for key in emptied:
            del self._blocks[key]
            self._owned.discard(key)
        # Every remaining row lost a column entry; drop all cached rows.
        self._row_cache.clear()

    def copy(self) -> "DenseSLenBackend":
        """An independent deep copy (same block size and horizon)."""
        clone = DenseSLenBackend(horizon=self.horizon, block_size=self.block_size)
        clone._index = dict(self._index)
        clone._slots = list(self._slots)
        clone._free = list(self._free)
        clone._blocks = {key: block.copy() for key, block in self._blocks.items()}
        clone._owned = set(clone._blocks)
        return clone

    def fork(self) -> "DenseSLenBackend":
        """A copy-on-write clone sharing every unmodified block.

        Only the node→slot map and the block-*pointer* grid are copied
        (O(occupied blocks) pointers, no block payload).  Afterwards
        **both** relatives hold every block as shared: the first
        in-place write on either side copies just the touched block, so
        a published snapshot stays frozen while the writer keeps
        settling — the MVCC primitive behind
        :mod:`repro.versioning`.  Caches are not shared; the fork
        starts with cold row/CSR caches.
        """
        clone = DenseSLenBackend(horizon=self.horizon, block_size=self.block_size)
        clone._index = dict(self._index)
        clone._slots = list(self._slots)
        clone._free = list(self._free)
        clone._blocks = dict(self._blocks)
        clone._owned = set()
        # The parent loses ownership too: its next write to any shared
        # block must copy, keeping the fork's view immutable.
        self._owned.clear()
        return clone

    def finite_count(self) -> int:
        """Number of finite (stored) entries."""
        return int(sum((block < SENTINEL).sum() for block in self._blocks.values()))

    def finite_entries(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Iterate over ``(source, target, distance)`` finite entries."""
        slots = self._slots
        for source, i in self._index.items():
            values = self._row_array(i)
            for position in np.nonzero(values < SENTINEL)[0]:
                yield (source, slots[position], int(values[position]))

    # ------------------------------------------------------------------
    # CSR adjacency cache
    # ------------------------------------------------------------------
    def _pred_csr(self, graph: DataGraph):
        """CSR predecessor arrays of ``graph`` over the current slot map.

        Returns ``(indptr, indices, empty)`` where ``indices[indptr[y] :
        indptr[y + 1]]`` are the slots of the in-neighbours of the node
        at slot ``y`` (graph nodes without a slot are dropped — they have
        no representable distance, exactly like their absence from a
        sparse row) and ``empty`` marks slots with no predecessor.  The
        result is cached against the graph's mutation version (and the
        current padded capacity, which can grow when nodes are added).
        """
        capacity = self._padded_capacity
        cache = self._csr_cache
        if (
            cache is not None
            and cache[0] is graph
            and cache[1] == (graph.version, capacity)
        ):
            return cache[2]
        index = self._index
        counts = np.zeros(capacity + 1, dtype=np.int64)
        pred_lists: list[list[int]] = [()] * capacity  # type: ignore[list-item]
        for node, slot in index.items():
            if not graph.has_node(node):
                continue
            preds = [
                index[w] for w in graph.predecessors_view(node) if w in index
            ]
            pred_lists[slot] = preds
            counts[slot + 1] = len(preds)
        indptr = np.cumsum(counts)
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        for slot in range(capacity):
            preds = pred_lists[slot]
            if preds:
                indices[indptr[slot] : indptr[slot + 1]] = preds
        empty = indptr[:-1] == indptr[1:]
        csr = (indptr, indices, empty)
        self._csr_cache = (graph, (graph.version, capacity), csr)
        return csr

    # ------------------------------------------------------------------
    # Multi-source BFS kernel
    # ------------------------------------------------------------------
    def _bfs_rows(
        self, graph: DataGraph, source_slots: np.ndarray, hcap: Optional[int]
    ) -> np.ndarray:
        """BFS level rows (len(source_slots), padded capacity) from each source.

        Bit-packed: the frontier and visited sets are (capacity, words)
        ``uint64`` arrays whose bit ``b`` of word ``w`` belongs to source
        ``64 w + b``.  One expansion level is a CSR predecessor gather
        plus ``bitwise_or.reduceat`` over whole words, with no
        per-source popcounts.  Levels are committed into the int32
        result via one unpack per level.
        """
        k = len(source_slots)
        capacity = self._padded_capacity
        levels = np.full((k, capacity), SENTINEL, dtype=np.int32)
        if k == 0:
            return levels
        source_slots = np.asarray(source_slots, dtype=np.int64)
        rows = np.arange(k)
        levels[rows, source_slots] = 0
        indptr, indices, empty = self._pred_csr(graph)
        if indices.size == 0:
            return levels
        # The packed arrays are (capacity, words) uint64 but every bit
        # operation round-trips through the same uint8 view (packbits /
        # unpackbits byte layout), so word endianness never matters.
        words = (k + 63) // 64
        seed_bytes = np.zeros((capacity, words * 8), dtype=np.uint8)
        seed_bytes[source_slots, rows // 8] = np.left_shift(1, rows % 8).astype(np.uint8)
        frontier = seed_bytes.view(np.uint64)
        visited = frontier.copy()
        level = 0
        while True:
            if hcap is not None and level >= hcap:
                break
            level += 1
            reached = _segment_reduce(
                frontier[indices], indptr[:-1], empty, np.bitwise_or, np.uint64(0), axis=0
            )
            newly = reached & ~visited
            # Commit levels sparsely: only target slots with a fresh bit
            # are unpacked, so the per-level cost scales with the newly
            # reached region instead of capacity × sources.
            active = np.nonzero(newly.any(axis=1))[0]
            if active.size == 0:
                break
            visited |= newly
            mask = np.unpackbits(
                newly[active].view(np.uint8), axis=1, bitorder="little", count=k
            ).view(np.bool_)
            hit_rows, hit_sources = np.nonzero(mask)
            levels[hit_sources, active[hit_rows]] = level
            frontier = newly
        return levels

    # ------------------------------------------------------------------
    # Vectorized maintenance kernels
    # ------------------------------------------------------------------
    def build(self, graph: DataGraph) -> None:
        """Construct all rows by striped bit-packed multi-source BFS.

        Sources are processed one block-row stripe at a time, so the
        transient level matrix is (block_size × capacity) — blocks whose
        stripe region stays all-``INF`` are never allocated, which is
        what keeps construction memory proportional to the occupied
        blocks instead of |V|².
        """
        if not self._index:
            return
        size = self.block_size
        hcap = self._hcap
        all_slots = np.array(sorted(self._index.values()), dtype=np.int64)
        for block_row in range(self._num_block_rows):
            low = block_row * size
            stripe = all_slots[(all_slots >= low) & (all_slots < low + size)]
            if stripe.size == 0:
                continue
            rows = self._bfs_rows(graph, stripe, hcap)
            offsets = stripe % size
            for block_col in range(self._num_block_rows):
                chunk = rows[:, block_col * size : (block_col + 1) * size]
                if (block_row, block_col) not in self._blocks and not (
                    chunk < SENTINEL
                ).any():
                    continue
                self._ensure_block(block_row, block_col)[offsets] = chunk
        self._row_cache.clear()

    def recompute_rows(self, graph: DataGraph, sources: Iterable[NodeId]) -> set[NodeId]:
        """Multi-source BFS restricted to ``sources``; returns changed rows.

        Mirrors the sparse quirk of storing plain (horizon-unfiltered)
        BFS rows: the frontier expansion here is unbounded too.
        """
        source_list = list(sources)
        if not source_list:
            return set()
        slot_of = self._index
        xi = np.array([slot_of[source] for source in source_list], dtype=np.int64)
        old_rows = self._gather_rows(xi)
        new_rows = self._bfs_rows(graph, xi, None)
        changed_mask = (new_rows != old_rows).any(axis=1)
        changed: set[NodeId] = set()
        for position in np.nonzero(changed_mask)[0]:
            self._scatter_row(int(xi[position]), new_rows[position])
            source = source_list[int(position)]
            changed.add(source)
            self._row_cache.pop(source, None)
        return changed

    def _block_extent(self, block_index: int) -> int:
        """Used rows/columns of one block (the last block may be partial).

        Kernels slice blocks to this extent so a small graph in a large
        block pays for its node count, not for the block padding.
        """
        return min(self.block_size, len(self._slots) - block_index * self.block_size)

    def _finite_block_stripes(self, values: np.ndarray) -> list[int]:
        """Block indices whose stripe of ``values`` holds a finite entry."""
        size = self.block_size
        return [
            block
            for block in range(self._num_block_rows)
            if (values[block * size : (block + 1) * size] < SENTINEL).any()
        ]

    def relax_edge(self, source: NodeId, target: NodeId) -> dict[Pair, Change]:
        """Rank-1 relaxation for an inserted edge, applied block by block.

        The candidate ``d(x, u) + 1 + d(v, y)`` is evaluated one block
        at a time against the block's contiguous storage; block stripes
        where the column of ``source`` (or the row of ``target``) is
        all-``INF`` are skipped outright (a :data:`SENTINEL` leg makes
        the candidate exceed every stored value), and absent blocks are
        allocated only when an in-horizon candidate actually lands in
        them.
        """
        iu = self._index[source]
        iv = self._index[target]
        column_u = self._column_array(iu)
        row_v = self._row_array(iv)
        size = self.block_size
        hcap = self._hcap
        limit = SENTINEL - 1 if hcap is None else hcap
        col_blocks = self._finite_block_stripes(column_u)
        row_blocks = self._finite_block_stripes(row_v)
        if not col_blocks or not row_blocks:
            return {}
        changed_xs: list[np.ndarray] = []
        changed_ys: list[np.ndarray] = []
        changed_old: list[np.ndarray] = []
        changed_new: list[np.ndarray] = []
        row_plus_one = {
            block_col: row_v[
                block_col * size : block_col * size + self._block_extent(block_col)
            ]
            + 1
            for block_col in row_blocks
        }
        for block_row in col_blocks:
            rows_used = self._block_extent(block_row)
            col_stripe = column_u[block_row * size : block_row * size + rows_used]
            for block_col in row_blocks:
                candidate = col_stripe[:, None] + row_plus_one[block_col][None, :]
                block = self._blocks.get((block_row, block_col))
                if block is None:
                    mask = candidate <= limit
                    a, b = np.nonzero(mask)
                    if a.size == 0:
                        continue
                    block = self._ensure_block(block_row, block_col)
                else:
                    cols_used = candidate.shape[1]
                    mask = candidate < block[:rows_used, :cols_used]
                    if hcap is not None:
                        mask &= candidate <= hcap
                    a, b = np.nonzero(mask)
                    if a.size == 0:
                        continue
                    block = self._ensure_block(block_row, block_col)
                changed_old.append(block[a, b])
                new_values = candidate[a, b].astype(np.int32)
                block[a, b] = new_values
                changed_xs.append(a + block_row * size)
                changed_ys.append(b + block_col * size)
                changed_new.append(new_values)
        if not changed_xs:
            return {}
        all_xs = np.concatenate(changed_xs)
        all_ys = np.concatenate(changed_ys)
        # Assemble the changed-pairs delta with C-level zips: an early
        # insertion on a well-connected graph can improve tens of
        # thousands of pairs, so per-pair Python work would dominate the
        # whole kernel.  Old ``INF`` entries surface as float('inf') via
        # a float cast (== is unaffected: 3.0 == 3).  The slot array is
        # filled by assignment — np.array() would try to unpack sequence
        # node ids (e.g. tuples) into extra dimensions.
        slot_array = np.empty(len(self._slots), dtype=object)
        slot_array[:] = self._slots
        keys = zip(slot_array[all_xs].tolist(), slot_array[all_ys].tolist())
        olds = np.concatenate(changed_old).astype(float)
        olds[olds >= SENTINEL] = INF
        news = np.concatenate(changed_new)
        changed = dict(zip(keys, zip(olds.tolist(), news.tolist())))
        cache = self._row_cache
        if cache:
            for x in dict.fromkeys(all_xs.tolist()):
                cache.pop(self._slots[x], None)
        return changed

    def affected_by_edge_deletion(
        self, source: NodeId, target: NodeId
    ) -> dict[NodeId, set[NodeId]]:
        """Vectorized affectedness test ``D == D[:, u] + 1 + D[v, :]``.

        Evaluated block by block against contiguous storage: absent
        blocks hold no finite pair and cannot be affected, stripes with
        an all-``INF`` leg cannot satisfy the equality (a
        :data:`SENTINEL` leg pushes the candidate past any stored
        value), and the diagonal (``D == 0 < candidate``) is excluded
        automatically.
        """
        iu = self._index[source]
        iv = self._index[target]
        column_u = self._column_array(iu)
        row_v = self._row_array(iv)
        size = self.block_size
        col_blocks = self._finite_block_stripes(column_u)
        row_blocks = self._finite_block_stripes(row_v)
        slots = self._slots
        affected: dict[NodeId, set[NodeId]] = {}
        for block_row in col_blocks:
            rows_used = self._block_extent(block_row)
            col_stripe = column_u[block_row * size : block_row * size + rows_used]
            for block_col in row_blocks:
                block = self._blocks.get((block_row, block_col))
                if block is None:
                    continue
                cols_used = self._block_extent(block_col)
                row_stripe = row_v[block_col * size : block_col * size + cols_used]
                candidate = col_stripe[:, None] + row_stripe[None, :]
                candidate += 1
                a, b = np.nonzero(block[:rows_used, :cols_used] == candidate)
                for x, y in zip(
                    (a + block_row * size).tolist(), (b + block_col * size).tolist()
                ):
                    affected.setdefault(slots[x], set()).add(slots[y])
        return affected

    def affected_by_node_deletion(
        self, old_row: Mapping[NodeId, int], old_column: Mapping[NodeId, int]
    ) -> dict[NodeId, set[NodeId]]:
        """Pairs whose every shortest path ran through a deleted node."""
        index = self._index
        xs_nodes = [x for x in old_column if x in index]
        ys_nodes = [y for y in old_row if y in index]
        if not xs_nodes or not ys_nodes:
            return {}
        xi = np.array([index[x] for x in xs_nodes], dtype=np.int64)
        yi = np.array([index[y] for y in ys_nodes], dtype=np.int64)
        through = (
            np.array([old_column[x] for x in xs_nodes], dtype=np.int32)[:, None]
            + np.array([old_row[y] for y in ys_nodes], dtype=np.int32)[None, :]
        )
        sub = self._gather_pairs_matrix(xi, yi)
        mask = (sub == through) & (xi[:, None] != yi[None, :])
        affected: dict[NodeId, set[NodeId]] = {}
        for a, b in zip(*(axis.tolist() for axis in np.nonzero(mask))):
            affected.setdefault(xs_nodes[a], set()).add(ys_nodes[b])
        return affected

    def settle_sources(
        self,
        graph_after: DataGraph,
        affected_by_source: Mapping[NodeId, set[NodeId]],
        skip_edges: frozenset[tuple[NodeId, NodeId]] | set = _NO_EDGES,
        skip_nodes: frozenset[NodeId] | set = _NO_NODES,
    ) -> dict[NodeId, dict[NodeId, int]]:
        """Batched affected-region recompute over all affected source rows.

        Affected entries start at :data:`SENTINEL` and are relaxed to a
        fixpoint through CSR predecessor gathers; unaffected entries are
        held fixed (they are exact by the Ramalingam-Reps affected-area
        argument), which makes the fixpoint equal to the per-source
        Dijkstra of the generic kernel.  The working rows are gathered
        from the block grid once (k × capacity transient) and the
        settled values are returned, not written — the caller applies
        them, exactly like the generic kernel.  Deletion settles whose
        seeding or relaxation crosses an elided (absent) block simply
        read :data:`SENTINEL` there, so INF-block elision is invisible
        to the fixpoint.
        """
        if not affected_by_source:
            return {}
        index = self._index
        slots = self._slots
        sources = list(affected_by_source)
        xi = np.array([index[source] for source in sources], dtype=np.int64)
        k = len(sources)
        capacity = self._padded_capacity
        working = self._gather_rows(xi)
        affected_mask = np.zeros((k, capacity), dtype=bool)
        union_slots: set[int] = set()
        for position, source in enumerate(sources):
            for y in affected_by_source[source]:
                slot = index[y]
                affected_mask[position, slot] = True
                union_slots.add(slot)
        working[affected_mask] = SENTINEL

        # Only the union targets can change, so only their predecessor
        # lists are gathered (skips applied inline) — far cheaper than a
        # whole-graph CSR when the affected region is small.
        targets = np.fromiter(sorted(union_slots), dtype=np.int64, count=len(union_slots))
        pred_lists = []
        for slot in targets.tolist():
            node = slots[slot]
            pred_lists.append(
                [
                    index[w]
                    for w in graph_after.predecessors_view(node)
                    if w in index and w not in skip_nodes and (w, node) not in skip_edges
                ]
            )
        segment_lengths = np.array([len(preds) for preds in pred_lists], dtype=np.int64)
        gather_cols = (
            np.concatenate([np.asarray(preds, dtype=np.int64) for preds in pred_lists if preds])
            if int(segment_lengths.sum())
            else np.empty(0, dtype=np.int64)
        )
        segment_starts = np.concatenate(([0], np.cumsum(segment_lengths)[:-1]))
        segment_empty = segment_lengths == 0
        hcap = self._hcap
        affected_cols = affected_mask[:, targets]
        if gather_cols.size:
            while True:
                candidate = _segment_reduce(
                    working[:, gather_cols], segment_starts, segment_empty, np.minimum, SENTINEL
                )
                candidate = candidate + 1
                if hcap is not None:
                    candidate[candidate > hcap] = SENTINEL
                else:
                    candidate[candidate > SENTINEL] = SENTINEL
                current = working[:, targets]
                improved = affected_cols & (candidate < current)
                if not improved.any():
                    break
                working[:, targets] = np.where(improved, candidate, current)

        results: dict[NodeId, dict[NodeId, int]] = {}
        for position, source in enumerate(sources):
            settled: dict[NodeId, int] = {}
            row = working[position]
            for slot in np.nonzero(affected_mask[position])[0]:
                value = int(row[slot])
                if value < SENTINEL:
                    settled[slots[slot]] = value
            results[source] = settled
        return results

    # ------------------------------------------------------------------
    # Matching-fixpoint kernel
    # ------------------------------------------------------------------
    def sources_within(
        self, sources: Iterable[NodeId], targets: Iterable[NodeId], bound: float | int
    ) -> set[NodeId]:
        """Subset of ``sources`` reaching some node of ``targets`` within ``bound``.

        One block-wise submatrix gather + a row-wise ``any`` instead of
        one materialised row dict per source — this is what drives the
        BGS simulation fixpoint off the block grid.  Large candidate
        sets are processed in row chunks so the transient submatrix
        stays bounded.  Sources or targets outside the universe are
        ignored (they have no representable distance).
        """
        source_list = [source for source in sources if source in self._index]
        target_slots = [self._index[target] for target in targets if target in self._index]
        if not source_list or not target_slots:
            return set()
        if bound == INF:
            limit = SENTINEL - 1
        else:
            limit = min(int(bound), SENTINEL - 1)
        if limit < 0:
            return set()
        xs = np.array([self._index[source] for source in source_list], dtype=np.int64)
        ys = np.array(target_slots, dtype=np.int64)
        satisfied: set[NodeId] = set()
        chunk = max(1, (1 << 22) // max(1, ys.size))
        for start in range(0, xs.size, chunk):
            part = xs[start : start + chunk]
            sub = self._gather_pairs_matrix(part, ys)
            hit = (sub <= limit).any(axis=1)
            for position in np.nonzero(hit)[0]:
                satisfied.add(source_list[start + int(position)])
        return satisfied
