"""Shortest-path-length substrate.

The GPNM machinery is built on all-pairs shortest path *lengths* over the
data graph (the paper's ``SLen`` matrix).  This package provides:

* :mod:`repro.spl.sssp` — single-source BFS (unweighted) and Dijkstra
  (weighted extension) traversals;
* :mod:`repro.spl.matrix` — the :class:`SLenMatrix` all-pairs facade;
* :mod:`repro.spl.backend` — the pluggable storage/kernel interface and
  the sparse (dict-of-dicts) backend;
* :mod:`repro.spl.dense` — the blocked dense ``int32`` NumPy backend:
  a lazily-allocated block grid (all-``INF`` blocks elided, so memory
  scales with occupied blocks rather than |V|²) with vectorized
  construction (bit-packed BFS frontiers), insertion, deletion and
  matching kernels; the block edge is fixed at 512 unless a matrix is
  built with ``dense_block_size`` (tests use small blocks);
* :mod:`repro.spl.incremental` — maintenance of ``SLen`` under the update
  vocabulary of Section III-C, producing the affected-pair sets (``AFF``)
  that drive elimination detection;
* :mod:`repro.spl.hybrid` — the ELL+COO "Hybrid format" compression of the
  sparse matrix discussed in the Section IV-B remark.
"""

from repro.spl.backend import (
    BACKEND_NAMES,
    DENSE_AUTO_THRESHOLD,
    SLenBackend,
    SparseSLenBackend,
    dense_available,
    resolve_backend_name,
)
from repro.spl.incremental import SLenDelta, fold_deltas, update_slen
from repro.spl.matrix import INF, SLenMatrix
from repro.spl.sssp import bfs_lengths, bfs_lengths_within, dijkstra_lengths
from repro.spl.hybrid import HybridMatrix

__all__ = [
    "INF",
    "SLenMatrix",
    "SLenDelta",
    "SLenBackend",
    "SparseSLenBackend",
    "BACKEND_NAMES",
    "DENSE_AUTO_THRESHOLD",
    "dense_available",
    "resolve_backend_name",
    "fold_deltas",
    "update_slen",
    "bfs_lengths",
    "bfs_lengths_within",
    "dijkstra_lengths",
    "HybridMatrix",
]
