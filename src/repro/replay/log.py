"""Window reconstruction over a write-ahead journal (record side).

A :class:`ReplayLog` reads one graph's journal file — the same
JSON-lines format :class:`~repro.service.journal.GraphJournal` writes —
and turns it back into a *replayable* stream: the snapshot base (graph,
version, lifetime stamps, standing-pattern registry), followed by every
``delta`` / ``subscribe`` / ``unsubscribe`` record in sequence order,
with ``checkpoint`` records marking where the recorded run's settles
landed.  :meth:`ReplayLog.window` extracts a ``[from_seq, to_seq]``
slice of that stream as a :class:`ReplayWindow`: deltas *before* the
window are folded into the window's base graph (and its registry), so a
window can start anywhere after the compaction snapshot — but never
inside it, because deltas absorbed by a snapshot no longer exist as
records (the log is *snapshot-base aware* and refuses such windows
loudly instead of replaying from the wrong state).

Parsing is :func:`repro.service.journal.parse_journal`, the same reader
recovery uses, so a replay sees exactly the records and base a recovery
would.  The log is strictly read-only: a torn final line (a crash
mid-append) is ignored exactly as recovery would truncate it, but the
file is left untouched; malformed interior records raise
:class:`~repro.service.journal.JournalError` — a window is never
silently reconstructed around missing history.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.graph.digraph import DataGraph
from repro.service.journal import ReplayRecord, parse_journal


class ReplayError(RuntimeError):
    """A window that cannot be reconstructed from the journal."""


@dataclass(frozen=True)
class SettleGroup:
    """One recorded settle's worth of stream operations.

    ``operations`` are the delta/subscribe/unsubscribe records between
    the previous boundary and this one; ``boundary`` is the checkpoint
    record that closed the group in the recorded run, or ``None`` for
    the stream tail past the last checkpoint (the replay driver settles
    it at window end).
    """

    operations: tuple[ReplayRecord, ...]
    boundary: Optional[ReplayRecord] = None

    @property
    def delta_count(self) -> int:
        """Number of delta payloads in the group."""
        return sum(1 for record in self.operations if record.kind == "delta")


@dataclass(frozen=True)
class ReplayWindow:
    """A ``[from_seq, to_seq]`` slice of a journal, ready to re-run.

    ``base_graph`` is the state at the window start: the journal's
    snapshot base with every pre-window delta applied (the *warmup*
    prefix), so replaying ``entries`` from it reproduces the recorded
    stream exactly.  ``subscriptions`` is the standing-pattern registry
    active at the window start (serialized docs, registration order),
    after folding the snapshot's embedded registry and every pre-window
    control record.
    """

    source: str
    from_seq: int
    to_seq: int
    base_graph: DataGraph
    base_version: int
    stamps: Optional[dict]
    subscriptions: tuple[dict, ...]
    entries: tuple[ReplayRecord, ...]
    warmup_deltas: int = 0
    torn_tail: bool = False

    @property
    def delta_count(self) -> int:
        """Number of delta payloads inside the window."""
        return sum(1 for record in self.entries if record.kind == "delta")

    @property
    def update_count(self) -> int:
        """Total updates across the window's delta payloads."""
        return sum(len(record.updates) for record in self.entries)

    @property
    def checkpoints(self) -> tuple[ReplayRecord, ...]:
        """The recorded settle boundaries inside the window."""
        return tuple(r for r in self.entries if r.kind == "checkpoint")

    def settle_groups(self) -> tuple[SettleGroup, ...]:
        """The window cut at the recorded run's settle boundaries.

        Groups are formed in *sequence* order (a checkpoint bounds every
        delta with ``seq <= checkpoint.seq``, even when the file
        interleaved later deltas before it — settles run concurrently
        with ingestion, so file order is not settle order).  Operations
        past the last checkpoint form a final boundary-less group;
        an empty window yields no groups.
        """
        ordered = sorted(self.entries, key=lambda record: record.sort_key)
        groups: list[SettleGroup] = []
        pending: list[ReplayRecord] = []
        for record in ordered:
            if record.kind == "checkpoint":
                groups.append(SettleGroup(operations=tuple(pending), boundary=record))
                pending = []
            else:
                pending.append(record)
        if pending:
            groups.append(SettleGroup(operations=tuple(pending), boundary=None))
        return tuple(groups)

    def describe(self) -> dict:
        """A JSON-able summary (the CLI's ``replay`` banner)."""
        return {
            "source": self.source,
            "from_seq": self.from_seq,
            "to_seq": self.to_seq,
            "deltas": self.delta_count,
            "updates": self.update_count,
            "checkpoints": len(self.checkpoints),
            "warmup_deltas": self.warmup_deltas,
            "base_version": self.base_version,
            "base_nodes": self.base_graph.number_of_nodes,
            "base_edges": self.base_graph.number_of_edges,
            "subscriptions": [doc["pattern_id"] for doc in self.subscriptions],
            "torn_tail": self.torn_tail,
        }


class ReplayLog:
    """The replayable view of one graph's journal file.

    Parsing happens eagerly in the constructor; the instance then holds
    the snapshot base and the full record stream, and
    :meth:`window` slices it.  Raises
    :class:`~repro.service.journal.JournalError` on interior corruption
    and :class:`ReplayError` on an unusable file (e.g. empty).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        """Parse the journal at ``path`` (read-only)."""
        self.path = Path(path)
        if not self.path.exists():
            raise ReplayError(f"journal file {self.path} does not exist")
        contents = parse_journal(self.path)
        self.base_graph: Optional[DataGraph] = contents.base_graph
        self.base_seq: int = contents.base_seq
        self.base_version: int = contents.base_version
        self.stamps: Optional[dict] = contents.stamps
        self.base_subscriptions: dict[str, dict] = contents.base_subscriptions
        self.records: tuple[ReplayRecord, ...] = tuple(contents.records)
        self.last_seq: int = contents.last_seq
        self.torn_tail: bool = contents.torn_tail
        self.dropped_duplicates: int = contents.dropped_duplicates

    @classmethod
    def discover(cls, directory: Union[str, Path]) -> dict[str, Path]:
        """Journal files in ``directory``, keyed by graph slug.

        The slug is the filesystem-safe stem
        :func:`~repro.service.journal.journal_slug` wrote; for keys that
        were already filesystem-safe it *is* the graph key.
        """
        directory = Path(directory)
        found: dict[str, Path] = {}
        if not directory.is_dir():
            return found
        for path in sorted(directory.glob("*.journal.jsonl")):
            found[path.name[: -len(".journal.jsonl")]] = path
        return found

    # ------------------------------------------------------------------
    # Window extraction
    # ------------------------------------------------------------------
    def window(
        self,
        from_seq: Optional[int] = None,
        to_seq: Optional[int] = None,
        *,
        base_graph: Optional[DataGraph] = None,
    ) -> ReplayWindow:
        """Extract the ``[from_seq, to_seq]`` slice as a :class:`ReplayWindow`.

        ``from_seq`` defaults to the first record past the snapshot
        base; ``to_seq`` to the last recorded seq.  Records before
        ``from_seq`` are folded into the window's base (deltas applied
        to the graph in sequence order, control records folded into the
        registry); records after ``to_seq`` are dropped.  ``base_graph``
        supplies the starting graph for journals *without* a snapshot
        record (a service journal before its first compaction starts
        from the graph the caller registered, which the journal never
        saw); it is ignored when the journal carries its own base.
        Raises :class:`ReplayError` when the window reaches into the
        snapshot base (those deltas were compacted away and cannot be
        replayed) or is otherwise empty/inverted.
        """
        start = self.base_seq + 1 if from_seq is None else int(from_seq)
        end = self.last_seq if to_seq is None else int(to_seq)
        if start <= self.base_seq:
            raise ReplayError(
                f"window starts at seq {start}, inside the compaction snapshot "
                f"(base seq {self.base_seq}): deltas at or before the base were "
                "absorbed into the snapshot and no longer exist as records"
            )
        if end < start:
            raise ReplayError(f"empty window: from_seq {start} > to_seq {end}")
        base = self.base_graph.copy() if self.base_graph is not None else None
        if base is None and base_graph is not None:
            base = base_graph.copy()
        registry: dict[str, dict] = dict(self.base_subscriptions)
        warmup = 0
        entries: list[ReplayRecord] = []
        for record in sorted(self.records, key=lambda r: r.sort_key):
            if record.seq < start:
                if record.kind == "delta":
                    if base is None:
                        raise ReplayError(
                            f"window starts at seq {start} but the journal has no "
                            f"snapshot base to warm up from before seq {record.seq}"
                        )
                    for update in record.updates:
                        update.apply(base)
                    warmup += 1
                else:
                    record.fold_into(registry)
                continue
            if record.seq > end:
                continue
            entries.append(record)
        if base is None:
            raise ReplayError(
                f"journal {self.path} has no snapshot base: replay needs the "
                "graph the recorded run started from (journals hold one after "
                "the first compaction and live captures always start with one; "
                "for a pre-compaction journal pass base_graph=<the registered "
                "graph>)"
            )
        return ReplayWindow(
            source=str(self.path),
            from_seq=start,
            to_seq=end,
            base_graph=base,
            base_version=self.base_version,
            stamps=self.stamps,
            subscriptions=tuple(registry.values()),
            entries=tuple(entries),
            warmup_deltas=warmup,
            torn_tail=self.torn_tail,
        )
