"""Refcounted pins on published snapshot versions.

A :class:`SnapshotHandle` wraps one immutable snapshot object (the
service's ``GraphSnapshot``, or any object exposing ``version`` plus
the pinned state) and counts pins on it.  The publisher (a
:class:`~repro.versioning.store.VersionStore`) holds the first
reference; readers :meth:`~SnapshotHandle.acquire` on top and
:meth:`~SnapshotHandle.release` when done.  When the last reference
drops, the handle lets go of the snapshot payload so Python's own
refcounting frees the shared copy-on-write blocks that no newer
version still references — that *is* the snapshot garbage collector;
there is no separate sweep.
"""

from __future__ import annotations

import threading
from typing import Any, Optional


class SnapshotHandle:
    """A refcounted pin on one published snapshot.

    The wrapped ``snapshot`` is treated as frozen: handles only ever
    read it.  ``acquire``/``release`` are thread-safe (readers pin from
    their own threads while the writer publishes new versions), and the
    handle doubles as a context manager::

        with store.pin(version) as handle:
            distances = handle.slen
    """

    __slots__ = ("_snapshot", "_refs", "_lock", "_on_final_release")

    def __init__(
        self,
        snapshot: Any,
        on_final_release: Optional[Any] = None,
    ) -> None:
        """Wrap ``snapshot`` with an initial reference count of one."""
        self._snapshot = snapshot
        self._refs = 1
        self._lock = threading.Lock()
        self._on_final_release = on_final_release

    # ------------------------------------------------------------------
    # Pinned-state accessors
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> Any:
        """The pinned snapshot object (raises once fully released)."""
        snapshot = self._snapshot
        if snapshot is None:
            raise RuntimeError("snapshot handle has been released")
        return snapshot

    @property
    def version(self) -> int:
        """The pinned version number."""
        return self.snapshot.version

    @property
    def data(self) -> Any:
        """The pinned data graph."""
        return self.snapshot.data

    @property
    def slen(self) -> Any:
        """The pinned ``SLen`` matrix (a copy-on-write fork)."""
        return self.snapshot.slen

    @property
    def result(self) -> Any:
        """The pinned match result."""
        return self.snapshot.result

    @property
    def pattern(self) -> Any:
        """The pinned pattern graph."""
        return self.snapshot.pattern

    # ------------------------------------------------------------------
    # Refcounting
    # ------------------------------------------------------------------
    @property
    def refcount(self) -> int:
        """Current number of pins (0 once fully released)."""
        with self._lock:
            return self._refs

    @property
    def pinned(self) -> bool:
        """Whether at least one pin is still held."""
        return self.refcount > 0

    def acquire(self) -> "SnapshotHandle":
        """Add a pin and return ``self`` (chainable)."""
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError("cannot acquire a fully released snapshot handle")
            self._refs += 1
        return self

    def release(self) -> bool:
        """Drop one pin; returns ``True`` when this was the last one.

        The final release drops the payload reference (freeing any
        copy-on-write blocks only this version still shared) and fires
        the ``on_final_release`` callback, if any.  Releasing an
        already-dead handle is an error — it means a double free.
        """
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError("snapshot handle released more times than acquired")
            self._refs -= 1
            final = self._refs == 0
            if final:
                self._snapshot = None
                callback = self._on_final_release
                self._on_final_release = None
        if final and callback is not None:
            callback(self)
        return final

    def __enter__(self) -> "SnapshotHandle":
        """Context-manager entry: the handle itself (already pinned)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release this pin."""
        self.release()

    def __repr__(self) -> str:
        """Debugging representation with version and refcount."""
        snapshot = self._snapshot
        if snapshot is None:
            return "SnapshotHandle(released)"
        return f"SnapshotHandle(version={snapshot.version}, refs={self._refs})"
