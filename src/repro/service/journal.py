"""Per-graph write-ahead delta journal for the streaming service.

The :class:`~repro.service.service.StreamingUpdateService` promises in
its :class:`~repro.service.service.IngestReceipt` that an accepted delta
will be settled.  Without persistence that promise dies with the
process.  The journal closes the gap with the classic write-ahead
discipline (the durable half of the KBase delta-load design,
SNIPPETS.md §3):

* **Append before receipt** — every accepted payload's updates are
  serialized as one ``delta`` record and fsync-appended *before* the
  ingest receipt is returned.  Once a client holds a receipt, the delta
  survives a crash.  Payloads queued back to back share the append
  (group commit): :meth:`GraphJournal.append_delta` writes one record
  per payload with a single write and a single fsync, and no receipt
  of the group exists before that fsync returns.  A crash or torn write
  inside a group therefore loses at most an unreceipted suffix of it.
  A write or fsync that fails closes the journal (fail-stop): what
  reached the disk is unknown, and the next open decides.
* **Checkpoint after settle** — when a batch settles, a ``checkpoint``
  record (highest settled delta ``seq`` + graph version + batch id) is
  appended.  Recovery replays only the records *after* the last
  checkpoint.
* **Size-bounded compaction** — when the journal grows past
  ``compact_bytes`` and a checkpoint has advanced past the current
  base, the whole file is atomically rewritten as one ``snapshot``
  record (the settled graph, with its seq/version) followed by the
  still-uncheckpointed ``delta`` tail.  The journal is therefore
  bounded by snapshot size + uncheckpointed tail, not by history.
* **Torn-tail tolerance** — an fsync'd append can still be interrupted
  mid-record (power loss, the fault injector's torn writes).  Recovery
  accepts a malformed *final* line, truncates it away, and counts it;
  malformed interior lines — unparseable JSON or a record whose fields
  do not fit its kind — are real corruption and raise
  :class:`JournalError` with the line number.

This module is also the journal's only *reader*: :func:`parse_journal`
interprets the records once, and both recovery
(:meth:`GraphJournal.open`) and the replay log
(:class:`repro.replay.ReplayLog`) derive their views from its
:class:`JournalContents`.

File format: one JSON object per line.

.. code-block:: text

    {"t": "snapshot",    "seq": 40, "version": 7, "graph": {...},
                         "subscriptions": [{"pattern_id": ..., ...}]}
    {"t": "delta",       "seq": 41, "updates": [{"op": "insert_edge", ...}]}
    {"t": "checkpoint",  "seq": 41, "version": 8, "batch": 5}
    {"t": "subscribe",   "seq": 42, "sub": {"pattern_id": ..., "pattern": {...}}}
    {"t": "unsubscribe", "seq": 43, "pattern_id": "..."}

Subscriptions are pattern-aware durability: ``subscribe``/``unsubscribe``
control records ride the same seq counter as deltas, recovery folds them
(in file order) into the final registry, and compaction embeds the live
registry in the snapshot record — so standing patterns survive restarts
without the client re-subscribing.  Journals written before this record
vocabulary recover with an empty registry.

Replay idempotence is structural: recovery rebuilds state as *snapshot
base + every delta after it*, exactly once each.  A ``snapshot`` at seq
``K`` makes recovery drop every delta record with ``seq <= K`` (their
effect is inside the snapshot graph) plus duplicate seqs; every later
delta — including ones whose ``checkpoint`` was written, because the
settled graph that checkpoint described died with the process — is
replayed exactly once against that base.  Checkpoints, in turn, bound
*compaction*: they mark which deltas the next snapshot may absorb.

Quarantined deltas go to a separate :class:`DeadLetterJournal`
(``<graph>.deadletter.jsonl``), durably appended before the checkpoint
that supersedes them, so "removed from the stream" never means "lost".
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, field
from hashlib import blake2s
from pathlib import Path
from typing import Optional, Union

from repro.graph.digraph import DataGraph
from repro.graph.io import data_graph_from_dict, data_graph_to_dict
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    Update,
    delete_data_edge,
    delete_data_node,
    insert_data_edge,
    insert_data_node,
)
from repro.ioutil import append_line_durable, atomic_write_text, fsync_directory
from repro.service.faults import NULL_INJECTOR, POST_APPEND, PRE_APPEND, FaultInjector, InjectedCrash

#: Default compaction threshold: rewrite the journal once it exceeds
#: this many bytes (and a checkpoint has advanced past the base).
DEFAULT_COMPACT_BYTES: int = 1 << 20


class JournalError(RuntimeError):
    """An unrecoverable journal problem (interior corruption, bad record)."""


# ----------------------------------------------------------------------
# Update (de)serialization — the journal's wire vocabulary
# ----------------------------------------------------------------------
def update_to_doc(update: Update) -> dict:
    """Serialize one *data-graph* update to a JSON-able record."""
    if isinstance(update, EdgeInsertion):
        return {"op": "insert_edge", "source": update.source, "target": update.target}
    if isinstance(update, EdgeDeletion):
        return {"op": "delete_edge", "source": update.source, "target": update.target}
    if isinstance(update, NodeInsertion):
        return {
            "op": "insert_node",
            "node": update.node,
            "labels": list(update.labels),
            "edges": [list(edge) for edge in update.edges],
        }
    if isinstance(update, NodeDeletion):
        return {
            "op": "delete_node",
            "node": update.node,
            "labels": list(update.labels),
            "edges": [list(edge) for edge in update.edges],
        }
    raise JournalError(f"cannot journal update of type {type(update).__name__}")


def update_from_doc(doc: dict) -> Update:
    """Rebuild a data-graph update from :func:`update_to_doc` output."""
    try:
        op = doc["op"]
        if op == "insert_edge":
            return insert_data_edge(_freeze(doc["source"]), _freeze(doc["target"]))
        if op == "delete_edge":
            return delete_data_edge(_freeze(doc["source"]), _freeze(doc["target"]))
        if op == "insert_node":
            return insert_data_node(
                _freeze(doc["node"]),
                tuple(doc.get("labels", ())),
                tuple(tuple(_freeze(end) for end in edge) for edge in doc.get("edges", ())),
            )
        if op == "delete_node":
            return delete_data_node(
                _freeze(doc["node"]),
                tuple(doc.get("labels", ())),
                tuple(tuple(_freeze(end) for end in edge) for edge in doc.get("edges", ())),
            )
    except (KeyError, TypeError) as exc:
        raise JournalError(f"malformed update record {doc!r}: {exc}") from exc
    raise JournalError(f"unknown journal update op {doc.get('op')!r}")


def _freeze(raw: object):
    """JSON round-trips tuple node ids as lists; re-freeze them."""
    if isinstance(raw, list):
        return tuple(_freeze(item) for item in raw)
    return raw


def journal_slug(key: str) -> str:
    """A filesystem-safe, collision-free file stem for a graph key."""
    sanitized = re.sub(r"[^A-Za-z0-9._-]", "_", key) or "graph"
    if sanitized == key:
        return sanitized
    return f"{sanitized}-{blake2s(key.encode('utf-8'), digest_size=4).hexdigest()}"


def read_journal_records(path: Union[str, Path]) -> tuple[list[dict], bool, int]:
    """Parse a journal file without modifying it.

    Returns ``(records, torn_line, good_bytes)``: every well-formed
    record in file order, whether a malformed *final* line was found
    (the torn tail a crash mid-append leaves), and the byte length of
    the well-formed prefix.  Callers that own the file (recovery)
    truncate to ``good_bytes`` when ``torn_line`` is set; read-only
    callers (the replay log) simply ignore the tail.  A malformed
    *interior* line is real corruption and raises :class:`JournalError`
    — a record is never silently dropped from the middle of the file.
    """
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    # A file ending in "\n" splits to [.., b""]; anything else has a
    # candidate torn tail as its final element.
    entries: list[tuple[bytes, bool]] = []  # (line, is_final_and_unterminated)
    for index, line in enumerate(lines):
        if index == len(lines) - 1:
            if line:
                entries.append((line, True))
        elif line:
            entries.append((line, False))
    records: list[dict] = []
    torn = False
    good_bytes = 0
    for position, (line, unterminated) in enumerate(entries):
        is_final = position == len(entries) - 1
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except ValueError as exc:
            if is_final:
                # Torn tail: the crash interrupted this append.
                torn = True
                break
            raise JournalError(
                f"corrupt journal record at line {position + 1} of {path}: {exc}"
            ) from exc
        if not unterminated:
            records.append(record)
            good_bytes += len(line) + 1
            continue
        # Well-formed JSON but no trailing newline: the append died
        # between the payload bytes and the newline, so the fsync never
        # completed and no receipt was issued.  Dropping the record is
        # therefore allowed — and *keeping* the unterminated line would
        # corrupt the journal on the next append, which would glue its
        # record onto this line.  Treat it as the torn tail it is.
        torn = True
    return records, torn, good_bytes


# ----------------------------------------------------------------------
# The record interpreter: one fold shared by recovery and replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayRecord:
    """One journal record past the snapshot base.

    ``seq`` is the journal's monotone sequence number.  Checkpoints
    share the seq of the highest delta they cover (they do not consume
    the counter), so within one seq a delta sorts before its
    checkpoint; ``sort_key`` encodes that.
    """

    seq: int
    kind: str
    updates: tuple[Update, ...] = ()
    version: Optional[int] = None
    batch: Optional[int] = None
    subscription: Optional[dict] = None
    pattern_id: Optional[str] = None

    @property
    def sort_key(self) -> tuple[int, int]:
        """Deterministic stream position: by seq, checkpoint after delta."""
        return (self.seq, 1 if self.kind == "checkpoint" else 0)

    def fold_into(self, registry: dict[str, dict]) -> None:
        """Apply a subscribe/unsubscribe record to a pattern-id registry.

        Every other kind leaves the registry unchanged.
        """
        if self.kind == "subscribe":
            registry[self.subscription["pattern_id"]] = self.subscription
        elif self.kind == "unsubscribe":
            registry.pop(self.pattern_id, None)


@dataclass
class JournalContents:
    """What :func:`parse_journal` read from one journal file.

    The snapshot base (``base_graph`` is ``None`` without a snapshot
    record; ``base_subscriptions`` is its embedded registry, keyed by
    pattern id) and ``records``: every ``delta``/``checkpoint``/
    ``subscribe``/``unsubscribe`` record past the base, in file order.
    A snapshot absorbs every earlier record with ``seq`` at or below its
    own, and a delta whose seq was already seen or lies inside the base
    is dropped and counted in ``dropped_duplicates``.  ``last_seq`` is
    the highest seq anywhere in the file; ``torn_tail`` and
    ``good_bytes`` are :func:`read_journal_records`'s torn-tail report.
    """

    base_graph: Optional[DataGraph] = None
    base_seq: int = 0
    base_version: int = 0
    stamps: Optional[dict] = None
    base_subscriptions: dict[str, dict] = field(default_factory=dict)
    records: list[ReplayRecord] = field(default_factory=list)
    last_seq: int = 0
    torn_tail: bool = False
    good_bytes: int = 0
    dropped_duplicates: int = 0


def parse_journal(path: Union[str, Path]) -> JournalContents:
    """Read the journal at ``path`` (without modifying it) and fold it once.

    Raises :class:`JournalError` naming the line of the first malformed
    interior record; a torn final line is reported, not raised.
    """
    raw, torn, good_bytes = read_journal_records(path)
    contents = JournalContents(torn_tail=torn, good_bytes=good_bytes)
    seen_deltas: set[int] = set()
    for position, record in enumerate(raw):
        try:
            _fold_record(record, contents, seen_deltas)
        except JournalError as exc:
            raise JournalError(
                f"corrupt journal record at line {position + 1} of {path}: {exc}"
            ) from exc
    return contents


def _fold_record(record: dict, contents: JournalContents, seen_deltas: set[int]) -> None:
    kind = record.get("t")
    seq = record.get("seq")
    if not isinstance(seq, int):
        raise JournalError(f"record lacks an integer seq: {record!r}")
    contents.last_seq = max(contents.last_seq, seq)
    if kind == "snapshot":
        graph = record.get("graph")
        if not isinstance(graph, dict):
            raise JournalError(f"snapshot record lacks a graph object: {record!r}")
        try:
            contents.base_graph = data_graph_from_dict(graph)
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed snapshot graph: {exc!r}") from exc
        contents.base_seq = seq
        contents.base_version = _record_version(record)
        stamps = record.get("stamps")
        contents.stamps = stamps if isinstance(stamps, dict) else None
        embedded = record.get("subscriptions", [])
        if not isinstance(embedded, list):
            raise JournalError(f"snapshot subscriptions must be a list: {record!r}")
        contents.base_subscriptions = {}
        for doc in embedded:
            if not isinstance(doc, dict) or "pattern_id" not in doc:
                raise JournalError(f"malformed snapshot subscription {doc!r}")
            contents.base_subscriptions[doc["pattern_id"]] = doc
        # Records at or before the snapshot are inside it; a mid-file
        # snapshot (never written by compaction, but legal in the
        # format) absorbs every earlier record it covers.
        absorbed = [r for r in contents.records if r.seq <= seq]
        contents.dropped_duplicates += sum(1 for r in absorbed if r.kind == "delta")
        contents.records = [r for r in contents.records if r.seq > seq]
        seen_deltas.difference_update([s for s in seen_deltas if s <= seq])
    elif kind == "delta":
        if seq in seen_deltas or seq <= contents.base_seq:
            contents.dropped_duplicates += 1
            return
        updates = record.get("updates")
        if not isinstance(updates, list):
            raise JournalError(f"delta record lacks an updates list: {record!r}")
        seen_deltas.add(seq)
        contents.records.append(
            ReplayRecord(seq, "delta", updates=tuple(update_from_doc(doc) for doc in updates))
        )
    elif kind == "checkpoint":
        contents.records.append(
            ReplayRecord(
                seq, "checkpoint", version=_record_version(record), batch=record.get("batch")
            )
        )
    elif kind == "subscribe":
        doc = record.get("sub")
        if not isinstance(doc, dict) or "pattern_id" not in doc:
            raise JournalError(f"malformed subscribe record {record!r}")
        contents.records.append(ReplayRecord(seq, "subscribe", subscription=doc))
    elif kind == "unsubscribe":
        pattern_id = record.get("pattern_id")
        if not isinstance(pattern_id, str):
            raise JournalError(f"malformed unsubscribe record {record!r}")
        contents.records.append(ReplayRecord(seq, "unsubscribe", pattern_id=pattern_id))
    else:
        raise JournalError(f"unknown journal record type {kind!r}")


def _record_version(record: dict) -> int:
    try:
        return int(record.get("version", 0))
    except (TypeError, ValueError) as exc:
        raise JournalError(f"record version is not an integer: {record!r}") from exc


# ----------------------------------------------------------------------
# Recovery state
# ----------------------------------------------------------------------
class RecoveredState:
    """What :meth:`GraphJournal.open` found on disk.

    Derived from the :func:`parse_journal` result: recovery replays the
    same records the replay log reads, against the same base.

    Attributes
    ----------
    base_graph:
        The compaction snapshot's graph, or ``None`` when the journal
        has no snapshot record (recovery then starts from the graph the
        caller registers).
    base_seq / base_version:
        The snapshot's delta seq and graph version (0/0 without one).
    checkpoint_seq / checkpoint_version:
        The highest checkpoint observed (>= the base's).
    tail:
        ``(seq, [Update, ...])`` pairs for every delta record with
        ``seq > base_seq`` — exactly what recovery must replay against
        the base, in seq order.  Checkpointed-but-unsnapshotted deltas
        are *included*: their checkpoint proved they settled, but the
        settled graph died with the process, so only replay can
        reproduce their effect.
    last_seq:
        The highest seq seen anywhere (appends resume after it).
    torn_line:
        Whether a malformed final line was found (and truncated away).
    dropped_duplicates:
        Delta records ignored because their seq was already covered by
        a snapshot/checkpoint or seen twice.
    stamps:
        The snapshot record's serialized
        :class:`~repro.versioning.history.GraphHistory` document
        (created/expired lifetime stamps), or ``None`` when the
        snapshot predates stamping or no snapshot exists.  Recovery
        hands it back to the service so time-travel metadata survives
        compaction.
    subscriptions:
        The final standing-pattern registry: one serialized subscription
        doc per pattern id, in registration order, after folding the
        snapshot record's embedded registry and every later
        ``subscribe``/``unsubscribe`` control record in file order.
        Empty for journals written before subscriptions existed.
    """

    def __init__(self, contents: JournalContents) -> None:
        self.base_graph: Optional[DataGraph] = contents.base_graph
        self.base_seq: int = contents.base_seq
        self.base_version: int = contents.base_version
        checkpoints = [r for r in contents.records if r.kind == "checkpoint"]
        self.checkpoint_seq: int = max([contents.base_seq, *(r.seq for r in checkpoints)])
        self.checkpoint_version: int = max(
            [contents.base_version, *(r.version for r in checkpoints)]
        )
        self.tail: list[tuple[int, list[Update]]] = sorted(
            (r.seq, list(r.updates)) for r in contents.records if r.kind == "delta"
        )
        self.last_seq: int = contents.last_seq
        self.torn_line: bool = contents.torn_tail
        self.dropped_duplicates: int = contents.dropped_duplicates
        self.stamps: Optional[dict] = contents.stamps
        self.subscriptions: dict[str, dict] = dict(contents.base_subscriptions)
        for record in contents.records:
            record.fold_into(self.subscriptions)

    def __repr__(self) -> str:
        return (
            f"<RecoveredState base_seq={self.base_seq} checkpoint_seq={self.checkpoint_seq} "
            f"tail={len(self.tail)} last_seq={self.last_seq} torn={self.torn_line}>"
        )


# ----------------------------------------------------------------------
# The write-ahead journal
# ----------------------------------------------------------------------
class GraphJournal:
    """Append-only JSON-lines write-ahead journal for one graph.

    All methods that touch the file are synchronous and blocking (they
    fsync); the service runs them on an executor thread, serialized on
    the graph's action queue, so the journal itself needs no locking.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        compact_bytes: int = DEFAULT_COMPACT_BYTES,
        faults: FaultInjector = NULL_INJECTOR,
    ) -> None:
        self.path = Path(path)
        self.compact_bytes = compact_bytes
        self._faults = faults
        self._handle = None
        self._bytes = 0
        self._next_seq = 1
        self._checkpoint_seq = 0
        self._base_seq = 0
        #: Uncheckpointed delta records (seq -> serialized updates),
        #: retained so compaction can rewrite the tail without
        #: re-reading the file.  Bounded by the uncheckpointed tail.
        self._pending: dict[int, list[dict]] = {}
        # Counters surfaced through the service's stats.  ``appends``
        # counts records, ``fsyncs`` the fsyncs that made them durable,
        # so ``appends / fsyncs`` is the mean group-commit size.
        self.appends = 0
        self.fsyncs = 0
        self.checkpoints = 0
        self.compactions = 0
        self.torn_lines = 0

    # ------------------------------------------------------------------
    # Opening / recovery
    # ------------------------------------------------------------------
    def open(self) -> RecoveredState:
        """Read (and repair) the journal, then position it for appends.

        Returns the :class:`RecoveredState` the service replays.  A
        missing file is a fresh journal; a malformed final line is
        truncated away and counted; malformed interior lines raise
        :class:`JournalError`.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        contents = parse_journal(self.path) if self.path.exists() else JournalContents()
        if contents.torn_tail:
            self.torn_lines += 1
            with open(self.path, "ab") as handle:
                handle.truncate(contents.good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        state = RecoveredState(contents)
        self._base_seq = state.base_seq
        self._checkpoint_seq = state.checkpoint_seq
        self._next_seq = state.last_seq + 1
        # Compaction bookkeeping only needs the *uncheckpointed* part of
        # the tail: the next snapshot (at checkpoint_seq) absorbs the
        # checkpointed part.
        self._pending = {
            seq: [update_to_doc(u) for u in updates]
            for seq, updates in state.tail
            if seq > state.checkpoint_seq
        }
        self._handle = open(self.path, "ab")
        self._bytes = self._handle.tell()
        fsync_directory(self.path.parent)
        return state

    def initialize(
        self,
        graph: DataGraph,
        *,
        seq: int = 0,
        version: int = 0,
        stamps: Optional[dict] = None,
        subscriptions: Optional[list[dict]] = None,
    ) -> None:
        """Start a fresh journal whose base is ``graph`` at ``seq``/``version``.

        The live-capture entry point: unlike :meth:`open` (which reads
        an existing file) this *writes* one — a single ``snapshot``
        record of the state being captured — and positions the journal
        for appends with ``seq`` already consumed, exactly as if the
        file had just been compacted there.  An existing file at the
        path is atomically replaced (captures do not resume; recovery
        does, through :meth:`open`).  Raises :class:`JournalError` when
        the journal is already open.
        """
        if self._handle is not None:
            raise JournalError(f"journal {self.path} is already open")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "t": "snapshot",
            "seq": seq,
            "version": version,
            "graph": data_graph_to_dict(graph),
        }
        if stamps is not None:
            record["stamps"] = stamps
        if subscriptions is not None:
            record["subscriptions"] = subscriptions
        atomic_write_text(self.path, json.dumps(record) + "\n")
        self._handle = open(self.path, "ab")
        self._bytes = self._handle.tell()
        self._base_seq = seq
        self._checkpoint_seq = seq
        self._next_seq = seq + 1
        self._pending = {}
        fsync_directory(self.path.parent)

    # ------------------------------------------------------------------
    # The write-ahead path
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """The seq of the most recently appended delta record."""
        return self._next_seq - 1

    @property
    def checkpoint_seq(self) -> int:
        """The highest checkpointed delta seq."""
        return self._checkpoint_seq

    def append_delta(self, updates: list[Update], *more: list[Update]) -> int:
        """Durably append accepted payloads' updates; returns the last seq.

        Each payload (``updates``, then every one of ``more``) becomes
        one ``delta`` record with the next seq, and the records go out
        in one write and one fsync (group commit).  When this returns,
        every record is fsynced — the service may issue the receipts.
        Crash points: ``pre-append`` fires before any bytes are written
        (the payloads are lost, which is allowed because no receipt
        exists yet); ``post-append`` fires after the fsync (the
        payloads are durable, recovery must replay them); a torn append
        writes a prefix of the group's bytes and "dies", leaving whole
        records of a group prefix and possibly a partial line recovery
        must truncate.
        """
        self._ensure_open()
        self._faults.hit(PRE_APPEND)
        first = self._next_seq
        records = {
            first + offset: [update_to_doc(update) for update in payload]
            for offset, payload in enumerate((updates, *more))
        }
        lines = [
            (json.dumps({"t": "delta", "seq": seq, "updates": docs}) + "\n").encode("utf-8")
            for seq, docs in records.items()
        ]
        tear = self._faults.take_torn_append()
        if tear is not None:
            # Simulate the power failing mid-write: ``tear`` records'
            # worth of the group reaches the disk, the rest never does.
            whole = int(tear)
            prefix = b"".join(lines[:whole])
            if whole < len(lines):
                prefix += lines[whole][: int(len(lines[whole]) * (tear - whole))]
            self._write_durable(prefix)
            raise InjectedCrash("torn-append")
        payload = b"".join(lines)
        self._write_durable(payload)
        self._next_seq = first + len(records)
        self._bytes += len(payload)
        self._pending.update(records)
        self.appends += len(records)
        self.fsyncs += 1
        self._faults.hit(POST_APPEND)
        return self.last_seq

    def checkpoint(self, seq: int, version: int, batch_id: int) -> None:
        """Record that every delta up to ``seq`` is settled (durably)."""
        self._ensure_open()
        record = {"t": "checkpoint", "seq": seq, "version": version, "batch": batch_id}
        payload = (json.dumps(record) + "\n").encode("utf-8")
        self._write_durable(payload)
        self._bytes += len(payload)
        self._checkpoint_seq = max(self._checkpoint_seq, seq)
        for pending_seq in [s for s in self._pending if s <= seq]:
            del self._pending[pending_seq]
        self.checkpoints += 1

    def append_subscribe(self, doc: dict) -> int:
        """Durably record a new standing pattern; returns the record seq.

        ``doc`` is the serialized subscription
        (:meth:`repro.service.subscriptions.Subscription.to_doc`).  The
        record shares the delta seq counter so recovery sees one total
        order; it is not part of the compaction tail — the snapshot
        record embeds the registry instead.
        """
        self._ensure_open()
        if not isinstance(doc, dict) or "pattern_id" not in doc:
            raise JournalError(f"subscription doc lacks a pattern_id: {doc!r}")
        return self._append_control({"t": "subscribe", "sub": doc})

    def append_unsubscribe(self, pattern_id: str) -> int:
        """Durably record a standing pattern's removal; returns the seq."""
        self._ensure_open()
        return self._append_control({"t": "unsubscribe", "pattern_id": pattern_id})

    def _append_control(self, record: dict) -> int:
        """fsync-append one control record with the next seq."""
        seq = self._next_seq
        record = {**record, "seq": seq}
        payload = (json.dumps(record) + "\n").encode("utf-8")
        self._write_durable(payload)
        self._next_seq = seq + 1
        self._bytes += len(payload)
        self.appends += 1
        self.fsyncs += 1
        return seq

    def _write_durable(self, payload: bytes) -> None:
        """Write ``payload`` to the append handle and fsync it.

        A write or fsync that fails closes the journal, so every later
        append or checkpoint raises :class:`JournalError`: how much of
        ``payload`` reached the disk is unknown (a failed fsync may even
        drop pages it had accepted), and records appended behind it
        could reuse its seqs.  The next :meth:`open` decides what
        survived.
        """
        try:
            self._handle.write(payload)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            handle, self._handle = self._handle, None
            with contextlib.suppress(OSError):
                handle.close()
            raise

    def should_compact(self) -> bool:
        """Whether the log is both oversized and compactable."""
        return self._bytes > self.compact_bytes and self._checkpoint_seq > self._base_seq

    def compact(
        self,
        graph: DataGraph,
        version: int,
        stamps: Optional[dict] = None,
        subscriptions: Optional[list[dict]] = None,
    ) -> None:
        """Atomically rewrite the log as snapshot + uncheckpointed tail.

        ``graph`` must be the settled state as of :attr:`checkpoint_seq`
        (the service passes the snapshot it just checkpointed, from the
        serialized settle action; with copy-on-write snapshots that
        graph is frozen by construction, so nothing can be mutating
        it).  ``stamps`` optionally embeds the graph's serialized
        lifetime history (``GraphHistory.to_doc``) in the snapshot
        record so time-travel metadata survives compaction; old
        journals without it recover with ``stamps=None``.
        ``subscriptions`` embeds the live standing-pattern registry (the
        serialized docs, in registration order) so subscriptions survive
        the rewrite that drops their control records.
        """
        self._ensure_open()
        snapshot_record = {
            "t": "snapshot",
            "seq": self._checkpoint_seq,
            "version": version,
            "graph": data_graph_to_dict(graph),
        }
        if stamps is not None:
            snapshot_record["stamps"] = stamps
        if subscriptions is not None:
            snapshot_record["subscriptions"] = subscriptions
        lines = [json.dumps(snapshot_record)]
        for seq in sorted(self._pending):
            lines.append(json.dumps({"t": "delta", "seq": seq, "updates": self._pending[seq]}))
        self._handle.close()
        text = "\n".join(lines) + "\n"
        atomic_write_text(self.path, text)
        self._handle = open(self.path, "ab")
        self._bytes = self._handle.tell()
        self._base_seq = self._checkpoint_seq
        self.compactions += 1

    def close(self) -> None:
        """Close the append handle (the file stays valid).  Idempotent."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _ensure_open(self) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is not open")

    def __repr__(self) -> str:
        return (
            f"<GraphJournal {self.path.name} last_seq={self.last_seq} "
            f"checkpoint_seq={self._checkpoint_seq} bytes={self._bytes}>"
        )


class DeadLetterJournal:
    """Durable append-only record of quarantined (poison) deltas.

    Every entry is an update the service gave up settling (its batch
    failed bounded retries and bisection isolated it) or an accepted
    delta invalidated by such a quarantine (``cascade``).  The file is
    the operator's repair queue: nothing in it was silently dropped.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, update: Update, error: str, *, kind: str = "poison") -> None:
        """Durably record one quarantined update and why it failed."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = {"kind": kind, "update": update_to_doc(update), "error": error}
        append_line_durable(self.path, json.dumps(record))

    def load(self) -> list[dict]:
        """All quarantine records (empty when the file does not exist).

        A torn final line (a crash mid-append) is ignored; interior
        corruption raises :class:`JournalError`.
        """
        if not self.path.exists():
            return []
        return read_journal_records(self.path)[0]

    def __len__(self) -> int:
        return len(self.load())
