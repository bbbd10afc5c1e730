"""GraphJournal: recovery edge cases, compaction, dead letters.

The service-level (replay-through-admission) side of recovery is
covered by ``test_faults.py``; this module exercises the journal file
format directly: empty and checkpoint-only journals, torn final lines,
duplicate-seq idempotence, malformed records, the compaction rewrite,
and agreement between recovery and the replay log (one reader).
"""

import asyncio
import json

import pytest

from repro.graph import DataGraph, PatternGraph
from repro.graph.io import data_graph_to_dict
from repro.graph.updates import (
    delete_data_edge,
    delete_data_node,
    insert_data_edge,
    insert_data_node,
)
from repro.replay import ReplayLog
from repro.service import FaultInjector, InjectedCrash, ServiceConfig, StreamingUpdateService
from repro.service.journal import (
    DeadLetterJournal,
    GraphJournal,
    JournalError,
    journal_slug,
    update_from_doc,
    update_to_doc,
)

from tests.conftest import register_default


def make_graph(num_nodes: int = 6) -> DataGraph:
    data = DataGraph()
    for i in range(num_nodes):
        data.add_node(f"n{i}", "A" if i % 2 == 0 else "B")
    for i in range(num_nodes):
        data.add_edge(f"n{i}", f"n{(i + 1) % num_nodes}")
    return data


def recover(path):
    """Open the journal at ``path`` for recovery, then close its handle."""
    journal = GraphJournal(path)
    try:
        return journal.open()
    finally:
        journal.close()


def make_pattern() -> PatternGraph:
    pattern = PatternGraph()
    pattern.add_node("p0", "A")
    pattern.add_node("p1", "B")
    pattern.add_edge("p0", "p1", 2)
    return pattern


QUIET = dict(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Update (de)serialization
# ----------------------------------------------------------------------
def test_update_doc_round_trip_covers_every_op():
    updates = [
        insert_data_edge("a", "b"),
        delete_data_edge("a", "b"),
        insert_data_node("c", ("A", "B"), (("c", "a"), ("b", "c"))),
        delete_data_node("c", ("A",), (("c", "a"),)),
    ]
    for update in updates:
        assert update_from_doc(update_to_doc(update)) == update


def test_update_doc_round_trip_refreezes_tuple_ids():
    update = insert_data_edge(("u", 1), ("v", 2))
    doc = json.loads(json.dumps(update_to_doc(update)))  # tuples -> lists
    assert update_from_doc(doc) == update


def test_update_from_doc_rejects_malformed_records():
    with pytest.raises(JournalError):
        update_from_doc({"op": "teleport", "node": "x"})
    with pytest.raises(JournalError):
        update_from_doc({"op": "insert_edge", "source": "a"})  # no target


def test_journal_slug_is_filesystem_safe_and_collision_free():
    assert journal_slug("email-EU-core") == "email-EU-core"
    slashy = journal_slug("a/b")
    dotty = journal_slug("a.b")
    assert "/" not in slashy
    # Sanitisation alone would collide ("a/b" vs "a_b"); the hash suffix
    # keeps them distinct.
    assert slashy != journal_slug("a_b")
    assert slashy != dotty


# ----------------------------------------------------------------------
# Recovery edge cases
# ----------------------------------------------------------------------
def test_missing_journal_recovers_to_a_fresh_state(tmp_path):
    journal = GraphJournal(tmp_path / "g.journal.jsonl")
    state = journal.open()
    assert state.base_graph is None
    assert state.tail == []
    assert state.last_seq == 0
    assert not state.torn_line
    assert journal.append_delta([insert_data_edge("a", "b")]) == 1
    journal.close()


def test_empty_journal_file_recovers_to_a_fresh_state(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    path.write_text("")
    journal = GraphJournal(path)
    state = journal.open()
    assert state.tail == [] and state.last_seq == 0 and not state.torn_line
    journal.close()


def test_checkpoint_only_journal_recovers_with_empty_tail(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.checkpoint(1, version=1, batch_id=1)
    journal.close()
    # Strip the delta record, keeping only its checkpoint — the shape a
    # compaction interrupted between rewrite and first append leaves.
    lines = [l for l in path.read_text().splitlines() if json.loads(l)["t"] == "checkpoint"]
    path.write_text("\n".join(lines) + "\n")
    reopened = GraphJournal(path)
    state = reopened.open()
    assert state.tail == []
    assert state.checkpoint_seq == 1
    assert state.base_graph is None
    # Appends resume after the checkpointed seq.
    assert reopened.append_delta([insert_data_edge("c", "d")]) == 2
    reopened.close()


def test_torn_final_line_is_truncated_and_counted(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.append_delta([insert_data_edge("c", "d")])
    journal.close()
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"t": "delta", "seq": 3, "upd')  # torn mid-record
    reopened = GraphJournal(path)
    state = reopened.open()
    assert state.torn_line
    assert reopened.torn_lines == 1
    assert [seq for seq, _ in state.tail] == [1, 2]
    # The torn bytes are gone: the file is valid JSON lines again.
    reopened.close()
    for line in path.read_text().splitlines():
        json.loads(line)


def test_torn_terminated_final_line_is_also_tolerated(tmp_path):
    # A torn write can also leave a *complete* line of garbage (half a
    # record, newline flushed): still the final line, still truncated.
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.close()
    path.write_bytes(path.read_bytes() + b'{"t": "delta", "broken\n')
    reopened = GraphJournal(path)
    state = reopened.open()
    assert state.torn_line
    assert [seq for seq, _ in state.tail] == [1]
    reopened.close()


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.append_delta([insert_data_edge("c", "d")])
    journal.close()
    lines = path.read_text().splitlines()
    lines[0] = lines[0][: len(lines[0]) // 2]  # corrupt a *non-final* record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="corrupt journal record"):
        GraphJournal(path).open()


def test_duplicate_seq_records_are_dropped_once(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.close()
    line = path.read_text().splitlines()[0]
    path.write_text(line + "\n" + line + "\n")  # the same seq twice
    state = recover(path)
    assert [seq for seq, _ in state.tail] == [1]
    assert state.dropped_duplicates == 1


def test_checkpointed_deltas_stay_in_the_replay_tail(tmp_path):
    # A checkpoint proves its deltas settled — but the settled graph
    # died with the process, so recovery must still replay them against
    # the base.  Only a *snapshot* removes deltas from the tail.
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.checkpoint(1, version=1, batch_id=1)
    journal.append_delta([insert_data_edge("c", "d")])
    journal.close()
    state = recover(path)
    assert [seq for seq, _ in state.tail] == [1, 2]
    assert state.checkpoint_seq == 1


def test_torn_tail_fuzz_every_byte_offset(tmp_path):
    # Byte-granular crash fuzz: truncate a valid journal at *every*
    # byte offset (not just line granularity) and recover.  The
    # contract: recovery yields exactly the fully-terminated records of
    # the surviving prefix — a partial final line is truncated away and
    # flagged torn, interior records are never silently dropped, and no
    # offset may raise anything but JournalError.  The offsets inside
    # the final record are the satellite case; sweeping from zero also
    # covers torn tails that swallow whole records.
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("n0", "n2")])
    journal.append_delta([insert_data_node("x", ("A",), (("x", "n0"),))])
    journal.append_delta([delete_data_edge("n0", "n2")])
    journal.close()
    intact = path.read_bytes()
    lines = intact.splitlines(keepends=True)
    # Byte offset right after each terminated record (0 = empty file).
    boundaries = [0]
    for line in lines:
        boundaries.append(boundaries[-1] + len(line))
    assert boundaries[-1] == len(intact)
    for cut in range(len(intact) + 1):
        path.write_bytes(intact[:cut])
        reopened = GraphJournal(path)
        try:
            state = reopened.open()
        except JournalError:
            # Tolerated by the contract, but pure truncation must never
            # trigger it (a prefix has no *interior* corruption).
            pytest.fail(f"truncation at byte {cut} raised JournalError")
        finally:
            reopened.close()
        complete = sum(1 for boundary in boundaries[1:] if boundary <= cut)
        assert [seq for seq, _ in state.tail] == list(range(1, complete + 1)), (
            f"cut at byte {cut}: expected records 1..{complete}"
        )
        assert state.torn_line == (cut not in boundaries), (
            f"cut at byte {cut}: torn_line misreported"
        )
        # The truncation repair leaves a cleanly appendable file.
        assert path.stat().st_size == boundaries[complete]


GROUP = (
    [insert_data_edge("n0", "n2")],
    [insert_data_node("x", ("A",), (("x", "n0"),)), insert_data_edge("n1", "n3")],
    [delete_data_edge("n0", "n2")],
)


def test_grouped_append_writes_the_records_of_single_appends_with_one_fsync(tmp_path):
    grouped = GraphJournal(tmp_path / "grouped.journal.jsonl")
    grouped.open()
    assert grouped.append_delta(*GROUP) == 3
    assert (grouped.appends, grouped.fsyncs) == (3, 1)
    grouped.close()

    single = GraphJournal(tmp_path / "single.journal.jsonl")
    single.open()
    assert [single.append_delta(payload) for payload in GROUP] == [1, 2, 3]
    assert (single.appends, single.fsyncs) == (3, 3)
    single.close()

    # Same bytes on disk, and recovery reads one record per payload.
    assert grouped.path.read_bytes() == single.path.read_bytes()
    reopened = GraphJournal(grouped.path)
    state = reopened.open()
    assert state.tail == [(seq, payload) for seq, payload in enumerate(GROUP, start=1)]
    assert reopened.append_delta([insert_data_edge("n2", "n4")]) == 4
    reopened.close()


@pytest.mark.parametrize("at", [0.0, 0.5, 1.0, 1.5, 2.0, 2.9])
def test_torn_grouped_append_leaves_a_record_prefix(tmp_path, at):
    faults = FaultInjector()
    faults.arm_torn_append(after=1, at=at)
    journal = GraphJournal(tmp_path / "g.journal.jsonl", faults=faults)
    journal.open()
    journal.append_delta([insert_data_edge("n3", "n5")])
    with pytest.raises(InjectedCrash):
        journal.append_delta(*GROUP)
    journal.close()

    reopened = GraphJournal(journal.path)
    state = reopened.open()
    # The first record, then the whole records of the torn group's
    # prefix; a partial record is truncated away as a torn tail.
    assert [seq for seq, _ in state.tail] == list(range(1, 2 + int(at)))
    assert state.torn_line == (at != int(at))
    assert reopened.append_delta([insert_data_edge("n2", "n4")]) == 2 + int(at)
    reopened.close()


def test_unterminated_but_valid_final_record_is_dropped_as_torn(tmp_path):
    # The subtle fuzz offset: the final record's bytes are all present
    # *except* the trailing newline, so it parses as valid JSON.  The
    # fsync that included the newline never completed, so no receipt
    # was issued for it — recovery must drop it (and truncate), or the
    # append handle would glue the next record onto the unterminated
    # line and corrupt the journal for the *next* recovery.
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.append_delta([insert_data_edge("c", "d")])
    journal.close()
    intact = path.read_bytes()
    path.write_bytes(intact[:-1])  # strip only the final newline
    reopened = GraphJournal(path)
    state = reopened.open()
    assert [seq for seq, _ in state.tail] == [1]
    assert state.torn_line
    # The repaired file plus a fresh append must recover both records.
    assert reopened.append_delta([insert_data_edge("e", "f")]) == 2
    reopened.close()
    final = recover(path)
    assert [seq for seq, _ in final.tail] == [1, 2]


# ----------------------------------------------------------------------
# Malformed records: both readers raise JournalError with the line
# ----------------------------------------------------------------------
READERS = {
    "recovery": lambda path: GraphJournal(path).open(),
    "replay": ReplayLog,
}

MALFORMED_RECORDS = {
    "snapshot-without-graph": {"t": "snapshot", "seq": 1, "version": 1},
    "snapshot-with-list-graph": {"t": "snapshot", "seq": 1, "version": 1, "graph": []},
    "snapshot-with-empty-graph": {"t": "snapshot", "seq": 1, "version": 1, "graph": {}},
    "snapshot-with-bad-version": {
        "t": "snapshot",
        "seq": 1,
        "version": "x",
        "graph": data_graph_to_dict(make_graph()),
    },
    "checkpoint-with-bad-version": {"t": "checkpoint", "seq": 1, "version": "x", "batch": 1},
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_raises_journal_error_with_its_line(tmp_path, reader, case):
    path = tmp_path / "g.journal.jsonl"
    lines = [
        {"t": "delta", "seq": 1, "updates": [update_to_doc(insert_data_edge("n0", "n2"))]},
        MALFORMED_RECORDS[case],
        {"t": "delta", "seq": 2, "updates": [update_to_doc(insert_data_edge("n0", "n3"))]},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(JournalError, match="corrupt journal record at line 2"):
        READERS[reader](path)


# ----------------------------------------------------------------------
# One reader: recovery is a faithful replay of the window past the base
# ----------------------------------------------------------------------
def test_recovery_and_replay_log_read_the_same_records(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    journal.initialize(make_graph(), seq=3, version=2, subscriptions=[{"pattern_id": "kept"}])
    journal.append_delta([insert_data_edge("n0", "n2")])
    journal.append_subscribe({"pattern_id": "added"})
    journal.checkpoint(4, version=3, batch_id=1)
    journal.append_delta([delete_data_edge("n0", "n1")])
    journal.append_unsubscribe("kept")
    journal.close()
    # A re-appended copy of seq 4: both readers must drop it.
    first_delta = path.read_text().splitlines()[1]
    with open(path, "a") as handle:
        handle.write(first_delta + "\n")

    state = recover(path)
    log = ReplayLog(path)
    assert state.base_graph == log.base_graph == make_graph()
    assert state.base_seq == log.base_seq == 3
    assert state.last_seq == log.last_seq == 7
    assert state.dropped_duplicates == log.dropped_duplicates == 1
    replayed = [(r.seq, list(r.updates)) for r in log.records if r.kind == "delta"]
    assert state.tail == replayed
    assert [seq for seq, _ in state.tail] == [4, 6]
    assert (state.checkpoint_seq, state.checkpoint_version) == (4, 3)
    assert list(state.subscriptions) == ["added"]
    assert [doc["pattern_id"] for doc in log.window().subscriptions] == ["kept"]


# ----------------------------------------------------------------------
# Journal initialization (live capture)
# ----------------------------------------------------------------------
def test_initialize_writes_a_replayable_snapshot_base(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path)
    graph = make_graph()
    journal.initialize(
        graph,
        seq=7,
        version=3,
        stamps={"latest": 3, "nodes": [], "edges": []},
        subscriptions=[{"pattern_id": "p", "pattern": {"kind": "pattern_graph", "nodes": [], "edges": []}}],
    )
    # Appends continue after the base seq, checkpoints cover them.
    assert journal.append_delta([insert_data_edge("n0", "n2")]) == 8
    journal.checkpoint(8, version=4, batch_id=1)
    journal.close()
    state = recover(path)
    assert state.base_graph == graph
    assert state.base_seq == 7
    assert state.checkpoint_version == 4
    assert [seq for seq, _ in state.tail] == [8]
    assert state.subscriptions and "p" in state.subscriptions


def test_initialize_refuses_an_already_open_journal(tmp_path):
    journal = GraphJournal(tmp_path / "g.journal.jsonl")
    journal.open()
    with pytest.raises(JournalError):
        journal.initialize(make_graph())
    journal.close()


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_compaction_rewrites_to_snapshot_plus_uncheckpointed_tail(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path, compact_bytes=1)  # always oversized
    journal.open()
    graph = make_graph()
    journal.append_delta([insert_data_edge("n0", "n2")])
    journal.append_delta([insert_data_edge("n0", "n3")])
    settled = graph.copy()
    settled.add_edge("n0", "n2")
    settled.add_edge("n0", "n3")
    journal.checkpoint(2, version=1, batch_id=1)
    journal.append_delta([insert_data_edge("n1", "n4")])  # uncheckpointed
    assert journal.should_compact()
    journal.compact(settled, version=1)
    journal.close()

    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert [r["t"] for r in records] == ["snapshot", "delta"]
    assert records[0]["seq"] == 2 and records[1]["seq"] == 3

    state = recover(path)
    assert state.base_graph == settled
    assert state.base_seq == 2
    assert [seq for seq, _ in state.tail] == [3]


def test_appends_continue_after_compaction(tmp_path):
    path = tmp_path / "g.journal.jsonl"
    journal = GraphJournal(path, compact_bytes=1)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    journal.checkpoint(1, version=1, batch_id=1)
    journal.compact(make_graph(), version=1)
    assert journal.append_delta([insert_data_edge("c", "d")]) == 2
    journal.checkpoint(2, version=2, batch_id=2)
    journal.close()
    state = recover(path)
    assert state.last_seq == 2
    assert [seq for seq, _ in state.tail] == [2]


def test_should_compact_requires_checkpoint_progress(tmp_path):
    journal = GraphJournal(tmp_path / "g.journal.jsonl", compact_bytes=1)
    journal.open()
    journal.append_delta([insert_data_edge("a", "b")])
    # Oversized but nothing checkpointed past the base: compacting now
    # would snapshot a state that does not cover the tail.
    assert not journal.should_compact()
    journal.checkpoint(1, version=1, batch_id=1)
    assert journal.should_compact()
    journal.close()


# ----------------------------------------------------------------------
# Dead letters
# ----------------------------------------------------------------------
def test_dead_letter_journal_round_trip(tmp_path):
    dead = DeadLetterJournal(tmp_path / "g.deadletter.jsonl")
    assert dead.load() == [] and len(dead) == 0
    dead.append(insert_data_edge("a", "b"), "kernel exploded")
    dead.append(delete_data_edge("c", "d"), "cascade", kind="cascade")
    records = dead.load()
    assert len(dead) == 2
    assert records[0]["kind"] == "poison"
    assert records[0]["update"]["op"] == "insert_edge"
    assert records[0]["error"] == "kernel exploded"
    assert records[1]["kind"] == "cascade"


def test_dead_letter_journal_ignores_a_torn_final_line(tmp_path):
    path = tmp_path / "g.deadletter.jsonl"
    dead = DeadLetterJournal(path)
    dead.append(insert_data_edge("a", "b"), "kernel exploded")
    dead.append(delete_data_edge("c", "d"), "cascade", kind="cascade")
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"kind": "poison", "upd')  # crash mid-append
    assert [record["kind"] for record in dead.load()] == ["poison", "cascade"]
    assert len(dead) == 2
    # Interior corruption is not a torn tail.
    lines = intact.splitlines(keepends=True)
    path.write_bytes(lines[0][:10] + b"\n" + lines[1])
    with pytest.raises(JournalError, match="corrupt journal record at line 1"):
        dead.load()


# ----------------------------------------------------------------------
# Service-level replay idempotence
# ----------------------------------------------------------------------
def test_replay_is_idempotent_across_repeated_recoveries(tmp_path):
    # Boot -> accept -> crash (no checkpoint) -> recover -> recover
    # again: the delta must be applied exactly once each boot, never
    # doubled, and survive an arbitrary number of recovery cycles.
    async def scenario():
        config = ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        service = StreamingUpdateService(config)
        await register_default(service, "g", make_pattern(), make_graph())
        receipt = await service.submit(
            "g", {"inserts": [{"type": "edge", "source": "n0", "target": "n3"}]}
        )
        assert receipt.accepted == 1
        # Abandon without settling: the journal holds an uncheckpointed
        # delta, exactly what a crash after the receipt leaves.
        await service.abort()

        for boot in range(3):
            revived = StreamingUpdateService(config)
            await register_default(revived, "g", make_pattern(), make_graph())
            await revived.drain()
            stats = revived.stats("g")
            snapshot = revived.snapshot("g")
            assert snapshot.data.has_edge("n0", "n3")
            # Exactly one application per boot: replayed once, never
            # double-applied (the ring edge count proves no duplicates).
            assert stats["recovered"] + stats["recovery_skipped"] >= 1
            assert snapshot.data.number_of_edges == make_graph().number_of_edges + 1
            if boot < 2:
                await revived.abort()
            else:
                await revived.close()

    run(scenario())


def test_recovery_skips_deltas_already_present_in_the_base(tmp_path):
    # A journaled delta whose effect is already in the recovered base
    # (settled into a snapshot, checkpoint lost) must be skipped by
    # validation, not double-applied.
    async def scenario():
        config = ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        service = StreamingUpdateService(config)
        await register_default(service, "g", make_pattern(), make_graph())
        await service.submit(
            "g", {"inserts": [{"type": "edge", "source": "n0", "target": "n3"}]}
        )
        await service.abort()

        # Register with a base that already contains the edge — the
        # stand-in for "it settled into a snapshot before the crash".
        base = make_graph()
        base.add_edge("n0", "n3")
        revived = StreamingUpdateService(config)
        await register_default(revived, "g", make_pattern(), base)
        await revived.drain()
        stats = revived.stats("g")
        assert stats["recovery_skipped"] == 1
        assert stats["recovered"] == 0
        snapshot = revived.snapshot("g")
        assert snapshot.data.number_of_edges == base.number_of_edges
        await revived.close()

    run(scenario())
