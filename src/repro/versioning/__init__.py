"""Red-green MVCC snapshots for the streaming service (ROADMAP item 1).

The package turns ``DataGraph.version`` plus the blocked dense SLen
layout (PR 5) into first-class multi-version concurrency control,
following the KBase delta-load idiom (SNIPPETS.md §3): the **writer**
settles the next version against its private state while **readers**
keep whatever version they pinned; publication is an atomic pointer
swap, never an in-place mutation.

Three pieces compose:

* :class:`~repro.versioning.handle.SnapshotHandle` — a refcounted pin
  on one published snapshot: a ``(graph, SLen)`` pair plus the
  subscription states computed against it.  The snapshot is frozen;
  the handle frees its payload when the last pin releases.
* :class:`~repro.versioning.store.VersionStore` — the bounded ring of
  retained versions (``--snapshot-history N``).  Pinning an evicted or
  unpublished version raises
  :class:`~repro.versioning.store.VersionExpiredError` — time-travel
  reads fail loudly instead of answering from the wrong version.
* :class:`~repro.versioning.history.GraphHistory` — KBase-style
  ``created``/``expired`` version stamps per node and edge, recorded
  as settles publish, so "what did the graph contain at version v?"
  is answerable even without the full snapshot payload.

Snapshots are cheap because ``SLenMatrix.fork()`` is block-granular
copy-on-write on the dense backend: publishing shares every unmodified
block with the live matrix, and the next settle copies only the blocks
it actually touches.
"""

from repro.versioning.handle import SnapshotHandle
from repro.versioning.history import GraphHistory
from repro.versioning.store import (
    DEFAULT_SNAPSHOT_HISTORY,
    VersionExpiredError,
    VersionStore,
)

__all__ = [
    "DEFAULT_SNAPSHOT_HISTORY",
    "GraphHistory",
    "SnapshotHandle",
    "VersionExpiredError",
    "VersionStore",
]
