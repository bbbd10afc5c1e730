"""Small filesystem helpers shared across subsystems.

Two durability primitives live here:

* :func:`atomic_write_text` — journal compaction rewrites a log that
  the next recovery reads.  A plain ``Path.write_text`` truncates the
  file first, so a reader (or a crash) mid-write observes a corrupt
  artifact.  Writing to a temporary file in
  the same directory, fsyncing it, :func:`os.replace`-ing it over the
  target and fsyncing the *directory* makes the swap atomic **and**
  power-loss durable: after a crash the file is either the old complete
  version or the new complete version, never a torn or vanished one.
* :func:`append_line_durable` — the write-ahead journal's primitive.  A
  line is only "accepted" once it is flushed through the OS to the disk
  (``fsync``); when the append creates the file, the directory entry is
  fsynced too so the file itself survives a crash.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def fsync_directory(path: Union[str, Path]) -> None:
    """Flush ``path``'s directory metadata (new/renamed entries) to disk.

    A file create or rename is only crash-durable once its *directory
    entry* is synced, not just the file contents.  On platforms without
    directory file descriptors (Windows) this is a silent no-op — the
    containing rename is still atomic there, just not power-loss
    durable, which matches the platform's guarantees.
    """
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # pragma: no cover - Windows
        return
    try:
        fd = os.open(Path(path), os.O_RDONLY | flag)
    except OSError:  # pragma: no cover - unreadable parent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically and durably.

    The text is written to a uniquely-named temporary file in the same
    directory (same filesystem, so the final :func:`os.replace` is a
    rename, not a copy), fsynced, and moved over ``path`` only once
    fully flushed; the parent directory entry is then fsynced so the
    rename itself survives power loss.  On any failure the temporary
    file is removed and ``path`` is left untouched — a crash mid-write
    can no longer corrupt (or silently roll back) the artifact.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
        fsync_directory(target.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already gone / never created
            pass
        raise


def append_line_durable(path: Union[str, Path], line: str) -> None:
    """Durably append one line of text to ``path``.

    ``line`` is written (a trailing newline is added when missing),
    flushed, and fsynced before returning; when the append creates the
    file, the parent directory entry is fsynced too.  This is the
    write-ahead-journal primitive: once the call returns, the line
    survives a process crash or power loss — at worst a *later* torn
    append leaves a partial final line, which journal recovery detects
    and drops.
    """
    target = Path(path)
    if not line.endswith("\n"):
        line += "\n"
    created = not target.exists()
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        fsync_directory(target.parent)
