"""Fault injection: kill-and-recover differentials, retries, quarantine.

The central claim of the durability layer — *no accepted delta is ever
lost, and none is applied twice* — is proven here differentially: a
service is crashed (deterministically, at every named crash point) and
recovered from its journal, and the recovered graph, SLen and match
state must equal an uninterrupted oracle run over exactly the payloads
the crashed run accepted (plus any journaled-but-unreceipted payload:
durability is decided at the fsync, not at the receipt).
"""

import asyncio
import json
import os
import threading

import pytest

from repro.graph import DataGraph, PatternGraph
from repro.graph.updates import EdgeInsertion, NodeInsertion
from repro.service import (
    CRASH_POINTS,
    POST_APPEND,
    PRE_APPEND,
    PRE_SETTLE,
    FaultInjector,
    InjectedCrash,
    KernelFault,
    ServiceConfig,
    StreamingUpdateService,
    flaky_algorithm_factory,
)
from repro.service.journal import DeadLetterJournal, GraphJournal, JournalError, journal_slug
from repro.service.service import default_algorithm_factory

from tests.conftest import register_default


def make_data(num_nodes: int = 8) -> DataGraph:
    data = DataGraph()
    for i in range(num_nodes):
        data.add_node(f"n{i}", "A" if i % 2 == 0 else "B")
    for i in range(num_nodes):
        data.add_edge(f"n{i}", f"n{(i + 1) % num_nodes}")
    return data


def make_pattern() -> PatternGraph:
    pattern = PatternGraph()
    pattern.add_node("p0", "A")
    pattern.add_node("p1", "B")
    pattern.add_edge("p0", "p1", 2)
    return pattern


def edge_spec(source: str, target: str) -> dict:
    return {"type": "edge", "source": source, "target": target}


#: The differential workload: a mix of inserts and deletes, one payload
#: per line, applied in order.  With ``deadline_seconds=0`` every
#: payload cuts (and settles) individually, so every crash point is
#: exercised between payloads.
WORKLOAD = [
    {"inserts": [edge_spec("n0", "n2")]},
    {"inserts": [edge_spec("n0", "n3"), edge_spec("n1", "n4")]},
    {"deletes": [edge_spec("n0", "n2")]},
    {"inserts": [edge_spec("n2", "n5")]},
    {"deletes": [edge_spec("n1", "n4")]},
    {"inserts": [edge_spec("n3", "n6")]},
]

QUIET = dict(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)
#: Every payload cuts and settles on its own.
EAGER = dict(deadline_seconds=0.0, max_buffer=10_000, coalesce_min_batch=10_000)


def run(coro):
    return asyncio.run(coro)


async def oracle_state(payloads):
    """The uninterrupted run: apply ``payloads`` with no journal/faults."""
    service = StreamingUpdateService(ServiceConfig(**QUIET))
    await register_default(service, "g", make_pattern(), make_data())
    for payload in payloads:
        receipt = await service.submit("g", payload)
        assert receipt.rejected == 0
    await service.drain()
    snapshot = service.snapshot("g")
    state = (snapshot.data, snapshot.slen, snapshot.result.as_dict())
    await service.close()
    return state


# ----------------------------------------------------------------------
# The FaultInjector itself
# ----------------------------------------------------------------------
def test_injector_counts_hits_and_fires_on_schedule():
    faults = FaultInjector()
    faults.arm(PRE_SETTLE, after=2)
    faults.hit(PRE_SETTLE)
    faults.hit(PRE_SETTLE)
    with pytest.raises(InjectedCrash) as excinfo:
        faults.hit(PRE_SETTLE)
    assert excinfo.value.point == PRE_SETTLE
    faults.hit(PRE_SETTLE)  # disarmed after firing
    assert faults.hits[PRE_SETTLE] == 4


def test_injector_rejects_unknown_points():
    with pytest.raises(ValueError):
        FaultInjector().arm("post-apocalypse")


def test_injected_crash_is_not_an_exception():
    # The whole design rests on this: Exception-catching retry logic
    # must never absorb a simulated process death.
    assert not issubclass(InjectedCrash, Exception)
    assert issubclass(InjectedCrash, BaseException)


# ----------------------------------------------------------------------
# Kill-and-recover differential, every named crash point
# ----------------------------------------------------------------------
async def crash_run(journal_dir, arm, payloads=WORKLOAD):
    """Run ``payloads`` against a journaled service until the armed
    fault fires, abandon the instance, and return the payloads that
    must survive recovery (receipted ones, plus a
    journaled-but-unreceipted one for post-append crashes)."""
    faults = FaultInjector()
    arm(faults)
    service = StreamingUpdateService(
        ServiceConfig(journal_dir=str(journal_dir), **EAGER), faults=faults
    )
    await register_default(service, "g", make_pattern(), make_data())
    durable = []
    crashed = False
    for payload in payloads:
        try:
            receipt = await service.submit("g", payload)
        except InjectedCrash as crash:
            # No receipt was issued.  The payload is durable anyway iff
            # the crash hit after the fsync.
            if crash.point == POST_APPEND:
                durable.append(payload)
            crashed = True
            break
        assert receipt.rejected == 0
        durable.append(payload)
        await service.quiesce()
        if any(isinstance(exc, InjectedCrash) for _, exc in service.errors):
            crashed = True
            break
    assert crashed, "the armed fault never fired"
    await service.abort()
    return durable


async def recover_and_snapshot(journal_dir):
    service = StreamingUpdateService(
        ServiceConfig(journal_dir=str(journal_dir), **QUIET)
    )
    await register_default(service, "g", make_pattern(), make_data())
    await service.drain()
    snapshot = service.snapshot("g")
    stats = service.stats("g")
    state = (snapshot.data, snapshot.slen, snapshot.result.as_dict())
    await service.close()
    return state, stats


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_kill_and_recover_equals_uninterrupted_oracle(tmp_path, point):
    async def scenario():
        durable = await crash_run(tmp_path, lambda f: f.arm(point, after=1))
        recovered, stats = await recover_and_snapshot(tmp_path)
        expected = await oracle_state(durable)
        # Zero accepted-delta loss, no double application: the recovered
        # graph, SLen and match state are *equal* to the oracle's.
        assert recovered[0] == expected[0]
        assert recovered[1] == expected[1]
        assert recovered[2] == expected[2]
        assert stats["quarantined"] == 0

    run(scenario())


def test_torn_append_is_truncated_and_only_unreceipted_data_lost(tmp_path):
    async def scenario():
        durable = await crash_run(tmp_path, lambda f: f.arm_torn_append(after=1))
        recovered, stats = await recover_and_snapshot(tmp_path)
        expected = await oracle_state(durable)
        assert recovered[0] == expected[0]
        assert recovered[1] == expected[1]
        assert recovered[2] == expected[2]
        assert stats["journal"]["torn_lines"] == 1

    run(scenario())


def test_recovered_service_keeps_accepting_and_checkpointing(tmp_path):
    # Recovery is not read-only: the revived service must accept new
    # deltas, checkpoint them, and a third boot must see everything.
    async def scenario():
        await crash_run(tmp_path, lambda f: f.arm(PRE_SETTLE, after=0))
        config = ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        revived = StreamingUpdateService(config)
        await register_default(revived, "g", make_pattern(), make_data())
        await revived.drain()
        receipt = await revived.submit("g", {"inserts": [edge_spec("n4", "n6")]})
        assert receipt.accepted == 1
        await revived.close()

        third = StreamingUpdateService(config)
        await register_default(third, "g", make_pattern(), make_data())
        await third.drain()
        assert third.snapshot("g").data.has_edge("n4", "n6")
        await third.close()

    run(scenario())


# ----------------------------------------------------------------------
# Kernel failures: transient retry, poison quarantine, cascade
# ----------------------------------------------------------------------
def test_transient_settle_failure_is_retried_to_success(tmp_path):
    async def scenario():
        factory = flaky_algorithm_factory(default_algorithm_factory, fail_times=2)
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=2,
                settle_backoff_seconds=0.001,
                **QUIET,
            ),
            algorithm_factory=factory,
        )
        await register_default(service, "g", make_pattern(), make_data())
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.drain()
        stats = service.stats("g")
        assert stats["settle_failures"] == 2
        assert stats["settle_retries"] == 2
        assert stats["rebuilds"] == 2
        assert stats["quarantined"] == 0
        assert stats["settled"] == 1
        assert service.snapshot("g").data.has_edge("n0", "n2")
        assert service.errors == []
        await service.close()

    run(scenario())


def test_poison_delta_is_quarantined_and_the_graph_lives_on(tmp_path):
    async def scenario():
        def is_poison(update):
            return (
                isinstance(update, EdgeInsertion)
                and update.source == "n0"
                and update.target == "n2"
            )

        factory = flaky_algorithm_factory(
            default_algorithm_factory, poison=is_poison, message="poison kernel bug"
        )
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=1,
                settle_backoff_seconds=0.001,
                **QUIET,
            ),
            algorithm_factory=factory,
        )
        await register_default(service, "g", make_pattern(), make_data())
        # One batch: the poison delta plus two innocents.
        await service.submit(
            "g",
            {
                "inserts": [
                    edge_spec("n0", "n2"),  # poison
                    edge_spec("n0", "n3"),
                    edge_spec("n1", "n4"),
                ]
            },
        )
        await service.drain()
        stats = service.stats("g")
        assert stats["quarantined"] == 1
        assert stats["settle_retries"] == 1
        snapshot = service.snapshot("g")
        # The innocents settled, the poison did not.
        assert not snapshot.data.has_edge("n0", "n2")
        assert snapshot.data.has_edge("n0", "n3")
        assert snapshot.data.has_edge("n1", "n4")
        # ...and it is durably dead-lettered with the kernel's error.
        dead = DeadLetterJournal(
            tmp_path / f"{journal_slug('g')}.deadletter.jsonl"
        ).load()
        assert len(dead) == 1
        assert dead[0]["kind"] == "poison"
        assert dead[0]["update"] == {
            "op": "insert_edge",
            "source": "n0",
            "target": "n2",
        }
        assert "poison kernel bug" in dead[0]["error"]

        # Subsequent deltas on the same graph still settle and reads
        # still answer.
        receipt = await service.submit("g", {"inserts": [edge_spec("n2", "n5")]})
        assert receipt.accepted == 1
        await service.drain()
        assert service.snapshot("g").data.has_edge("n2", "n5")
        assert service.matches("g") is not None
        await service.close()

    run(scenario())


def test_quarantine_cascades_to_buffered_dependents(tmp_path):
    # A delta buffered *behind* a poison batch can depend on it (here: a
    # delete of the edge the poison insert never materialised).  When
    # the poison is quarantined, the dependent must be dead-lettered as
    # a cascade, not silently dropped.
    #
    # Queue choreography: both ingests are scheduled in the same tick,
    # so the order on the graph's queue is [ingest1, ingest2, settle1].
    # Payload 1 (two inserts) hits the max_buffer=2 capacity cut at
    # ingest1; payload 2 (the dependent delete) is then validated
    # against the staged state — which still contains the poison edge —
    # and is sitting in the buffer when settle1 fails.
    async def scenario():
        def is_poison(update):
            return (
                isinstance(update, EdgeInsertion)
                and update.source == "n0"
                and update.target == "n2"
            )

        factory = flaky_algorithm_factory(
            default_algorithm_factory, poison=is_poison, message="poison kernel bug"
        )
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=0,
                deadline_seconds=30.0,
                max_buffer=2,
                coalesce_min_batch=10_000,
            ),
            algorithm_factory=factory,
        )
        await register_default(service, "g", make_pattern(), make_data())
        first = service.submit_nowait(
            "g", {"inserts": [edge_spec("n0", "n2"), edge_spec("n1", "n4")]}
        )
        second = service.submit_nowait("g", {"deletes": [edge_spec("n0", "n2")]})
        receipt1 = await first
        receipt2 = await second
        assert receipt1.accepted == 2 and receipt1.cut == "capacity"
        assert receipt2.accepted == 1  # valid against the staged state
        await service.drain()

        stats = service.stats("g")
        assert stats["quarantined"] == 2  # the poison + its dependent
        dead = DeadLetterJournal(
            tmp_path / f"{journal_slug('g')}.deadletter.jsonl"
        ).load()
        kinds = sorted(record["kind"] for record in dead)
        assert kinds == ["cascade", "poison"]
        snapshot = service.snapshot("g")
        # The innocent half of the poison batch settled; the poison and
        # its dependent did not.
        assert not snapshot.data.has_edge("n0", "n2")
        expected = make_data()
        expected.add_edge("n1", "n4")
        assert snapshot.data == expected
        await service.close()

    run(scenario())


def test_quarantine_restages_cut_batches_still_waiting_to_settle(tmp_path):
    # Cut batches queued behind the failing settle are unsettled too.
    # One ingest group stages three payloads: two capacity cuts
    # (max_buffer=2) and a buffered delete of an edge the *second* cut
    # inserts.  The settle takes only the first cut, which holds the
    # poison.  Restaging after the quarantine must replay the waiting
    # cut before the buffer: the delete is valid and must settle, and
    # the staged graph must keep the waiting cut's edges, so a later
    # duplicate insert of one of them is rejected at submit.
    async def scenario():
        def is_poison(update):
            return (
                isinstance(update, EdgeInsertion)
                and update.source == "n0"
                and update.target == "n2"
            )

        factory = flaky_algorithm_factory(
            default_algorithm_factory, poison=is_poison, message="poison kernel bug"
        )
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=0,
                deadline_seconds=30.0,
                max_buffer=2,
                coalesce_min_batch=10_000,
            ),
            algorithm_factory=factory,
        )
        await service.register("g", make_data())
        await service.subscribe("g", "default", make_pattern())
        payloads = [
            {"inserts": [edge_spec("n0", "n2"), edge_spec("n0", "n3")]},
            {"inserts": [edge_spec("n1", "n4"), edge_spec("n1", "n5")]},
            {"deletes": [edge_spec("n1", "n4")]},
        ]
        receipts = await asyncio.gather(
            *(service.submit_nowait("g", payload) for payload in payloads)
        )
        assert [receipt.accepted for receipt in receipts] == [2, 2, 1]
        assert [receipt.cut for receipt in receipts] == ["capacity", "capacity", None]
        await service.drain()

        stats = service.stats("g")
        assert stats["quarantined"] == 1  # the poison only
        dead = DeadLetterJournal(
            tmp_path / f"{journal_slug('g')}.deadletter.jsonl"
        ).load()
        assert [record["kind"] for record in dead] == ["poison"]
        snapshot = service.snapshot("g")
        assert not snapshot.data.has_edge("n0", "n2")
        assert not snapshot.data.has_edge("n1", "n4")
        expected = make_data()
        expected.add_edge("n0", "n3")
        expected.add_edge("n1", "n5")
        assert snapshot.data == expected
        assert service._session("g").staged == snapshot.data

        duplicate = await service.submit("g", {"inserts": [edge_spec("n1", "n5")]})
        assert duplicate.accepted == 0 and duplicate.rejected == 1
        await service.drain()
        assert service.stats("g")["quarantined"] == 1
        await service.close()

    run(scenario())


def test_a_cut_batch_emptied_by_restaging_still_checkpoints(tmp_path):
    # Every delta of the waiting cut depends on the quarantined node, so
    # restaging empties it.  The empty batch keeps its seq high mark:
    # nothing settles (no new version), but the checkpoint advances.
    async def scenario():
        def is_poison(update):
            return isinstance(update, NodeInsertion) and update.node == "x"

        factory = flaky_algorithm_factory(
            default_algorithm_factory, poison=is_poison, message="poison kernel bug"
        )
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=0,
                deadline_seconds=30.0,
                max_buffer=2,
                coalesce_min_batch=10_000,
            ),
            algorithm_factory=factory,
        )
        await service.register("g", make_data())
        payloads = [
            {"inserts": [{"type": "node", "node": "x", "labels": ["A"]}, edge_spec("n0", "n3")]},
            {"inserts": [edge_spec("x", "n1"), edge_spec("n1", "x")]},
        ]
        receipts = await asyncio.gather(
            *(service.submit_nowait("g", payload) for payload in payloads)
        )
        assert [receipt.cut for receipt in receipts] == ["capacity", "capacity"]
        await service.drain()

        stats = service.stats("g")
        assert stats["quarantined"] == 3  # the poison + both dependents
        assert stats["settles"] == 1  # the innocent half of the first cut
        assert stats["snapshot"]["version"] == 1
        assert stats["journal"]["checkpoint_seq"] == stats["journal"]["last_seq"]
        expected = make_data()
        expected.add_edge("n0", "n3")
        assert service.snapshot("g").data == expected
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Scheduler errors surface through stats (and the log)
# ----------------------------------------------------------------------
def test_queue_errors_surface_in_stats_and_log(tmp_path, caplog):
    async def scenario():
        faults = FaultInjector()
        faults.arm(PRE_SETTLE)
        service = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **EAGER), faults=faults
        )
        await register_default(service, "g", make_pattern(), make_data())
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.quiesce()
        assert len(service.errors) == 1
        key, exc = service.errors[0]
        assert key == "g" and isinstance(exc, InjectedCrash)
        assert service.stats("g")["queue_errors"] == 1
        assert any(
            "action on queue 'g' failed" in record.message
            for record in caplog.records
        )
        await service.abort()

    import logging

    with caplog.at_level(logging.ERROR, logger="repro.service"):
        run(scenario())


# ----------------------------------------------------------------------
# Seeded random workloads, settle provenance, replay as the oracle
# ----------------------------------------------------------------------
#: Root seed of the randomized crash differentials below.  Per-case
#: seeds derive from it via :func:`derive_seed` — the same cross-process
#: stable contract tests/versioning/test_isolation.py pins — so a
#: failing crash point reproduces its exact workload in any process.
ROOT_SEED = 20260807


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_kill_and_recover_differential_under_seeded_workloads(tmp_path, point):
    from repro.workloads.update_gen import derive_seed, generate_payload_stream

    async def scenario():
        payloads = list(
            generate_payload_stream(
                make_data(),
                payloads=8,
                updates_per_payload=3,
                seed=derive_seed(ROOT_SEED, "faults", point),
            )
        )
        durable = await crash_run(
            tmp_path, lambda f: f.arm(point, after=2), payloads=payloads
        )
        recovered, _stats = await recover_and_snapshot(tmp_path)
        expected = await oracle_state(durable)
        assert recovered[0] == expected[0]
        assert recovered[1] == expected[1]
        assert recovered[2] == expected[2]

    run(scenario())


def test_seeded_workload_derivation_is_pinned():
    from repro.workloads.update_gen import derive_seed

    # The per-point seed must never silently change between processes
    # or releases: recorded crash reproductions depend on it.
    assert derive_seed(ROOT_SEED, "faults", PRE_SETTLE) == 12497881693818095501


def test_recovery_splits_settle_provenance(tmp_path):
    # stats() tells recovered (journal-replayed) settles apart from
    # live ones — the operator's signal for "how much of this boot was
    # catch-up".
    async def scenario():
        await crash_run(tmp_path, lambda f: f.arm(PRE_SETTLE, after=1))
        service = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        )
        await register_default(service, "g", make_pattern(), make_data())
        await service.drain()
        stats = service.stats("g")
        # The journaled-but-unsettled tail settled as *recovered*.
        assert stats["recovered"] >= 1
        assert stats["recovered_settles"] >= 1
        assert stats["live_settles"] == 0
        assert stats["settles"] == stats["recovered_settles"]

        # Fresh traffic settles as *live*; the split stays exhaustive.
        receipt = await service.submit("g", {"inserts": [edge_spec("n4", "n6")]})
        assert receipt.accepted == 1
        await service.drain()
        stats = service.stats("g")
        assert stats["live_settles"] == 1
        assert stats["settles"] == stats["recovered_settles"] + stats["live_settles"]
        await service.close()

    run(scenario())


def test_replayed_window_is_an_oracle_for_recovery(tmp_path):
    # The journal a crashed run leaves behind replays — through a fresh
    # un-journaled service — into exactly the state recovery serves,
    # including the journaled-but-unreceipted tail payload.  Replay is
    # the recovery oracle: no scripted second live run required.
    from repro.replay import ReplayLog, replay

    async def scenario():
        await crash_run(tmp_path, lambda f: f.arm(POST_APPEND, after=1))
        recovered, _stats = await recover_and_snapshot(tmp_path)

        window = ReplayLog(
            tmp_path / f"{journal_slug('g')}.journal.jsonl"
        ).window(base_graph=make_data())
        result = await replay(window)
        assert list(result.final.nodes) == sorted(
            str(node) for node in recovered[0].nodes()
        )
        assert [tuple(edge) for edge in result.final.edges] == sorted(
            (str(s), str(t)) for s, t in recovered[0].edges()
        )
        expected_matches = {
            str(u): sorted(str(v) for v in vs) for u, vs in recovered[2].items()
        }
        replayed = {
            u: list(vs) for u, vs in result.final.as_of[0]["default"].items()
        }
        assert replayed == expected_matches

    run(scenario())


# ----------------------------------------------------------------------
# Group commit: payloads queued back to back share one append + fsync
# ----------------------------------------------------------------------
async def pipelined_crash_run(journal_dir, arm, payloads=WORKLOAD):
    """The pipelined counterpart of :func:`crash_run`.

    The first half of ``payloads`` goes in with ``submit_nowait`` as one
    ingest group and settles; the second half then goes in as a second
    group, during whose append or settle the armed fault must fire
    (``arm`` skips the first group's hit).  Returns ``(receipted,
    unreceipted)`` payloads.
    """
    faults = FaultInjector()
    arm(faults)
    service = StreamingUpdateService(
        ServiceConfig(journal_dir=str(journal_dir), **EAGER), faults=faults
    )
    await service.register("g", make_data())
    await service.subscribe("g", "default", make_pattern())
    half = len(payloads) // 2
    await asyncio.gather(*(service.submit_nowait("g", payload) for payload in payloads[:half]))
    await service.quiesce()
    second = payloads[half:]
    outcomes = await asyncio.gather(
        *(service.submit_nowait("g", payload) for payload in second), return_exceptions=True
    )
    await service.quiesce()
    assert any(isinstance(exc, InjectedCrash) for _, exc in service.errors), (
        "the armed fault never fired"
    )
    await service.abort()
    failed = [isinstance(outcome, BaseException) for outcome in outcomes]
    # One fsync for the group: its receipts resolve all together or not at all.
    assert all(failed) or not any(failed)
    assert all(isinstance(o, InjectedCrash) for o, bad in zip(outcomes, failed) if bad)
    receipted = payloads[:half] + [p for p, bad in zip(second, failed) if not bad]
    return receipted, [p for p, bad in zip(second, failed) if bad]


async def recovered_group_prefix(journal_dir, receipted, unreceipted):
    """How many unreceipted payloads recovery kept, by the oracle.

    The recovered state must equal the oracle over the receipted
    payloads plus some prefix of the unreceipted group.
    """
    recovered, stats = await recover_and_snapshot(journal_dir)
    for kept in range(len(unreceipted) + 1):
        if recovered == await oracle_state(receipted + unreceipted[:kept]):
            return kept, stats
    pytest.fail("recovered state is no oracle of the receipted payloads plus a group prefix")


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_pipelined_kill_and_recover_keeps_a_prefix_of_the_unreceipted_group(tmp_path, point):
    async def scenario():
        receipted, unreceipted = await pipelined_crash_run(
            tmp_path, lambda f: f.arm(point, after=1)
        )
        kept, stats = await recovered_group_prefix(tmp_path, receipted, unreceipted)
        if point == PRE_APPEND:
            assert (len(unreceipted), kept) == (3, 0)
        elif point == POST_APPEND:
            # Durable at the fsync, although no receipt was issued.
            assert (len(unreceipted), kept) == (3, 3)
        else:
            # Settle-side crashes come after the group's receipts.
            assert unreceipted == []
        assert stats["quarantined"] == 0

    run(scenario())


@pytest.mark.parametrize("at", [1.0, 1.5])
def test_pipelined_torn_append_keeps_the_whole_records_of_the_group(tmp_path, at):
    # 1.0 tears exactly on a record boundary inside the group's write;
    # 1.5 tears in the middle of its second record.
    async def scenario():
        receipted, unreceipted = await pipelined_crash_run(
            tmp_path, lambda f: f.arm_torn_append(after=1, at=at)
        )
        assert len(unreceipted) == 3
        kept, stats = await recovered_group_prefix(tmp_path, receipted, unreceipted)
        assert kept == 1
        assert stats["journal"]["torn_lines"] == (1 if at == 1.5 else 0)

    run(scenario())


class FsyncGate:
    """Blocks the next ``os.fsync`` once ``armed`` is set, until ``release``."""

    def __init__(self, monkeypatch, *, sync: bool = True) -> None:
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()
        real_fsync = os.fsync

        def fsync(fd):
            if self.armed:
                self.armed = False
                self.entered.set()
                self.release.wait(timeout=10)
                if not sync:
                    return
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    async def wait_entered(self) -> None:
        while not self.entered.is_set():
            await asyncio.sleep(0.001)


def test_no_receipt_resolves_before_its_groups_fsync(tmp_path, monkeypatch):
    gate = FsyncGate(monkeypatch)

    async def scenario():
        service = StreamingUpdateService(ServiceConfig(journal_dir=str(tmp_path), **QUIET))
        await service.register("g", make_data())
        await service.subscribe("g", "default", make_pattern())
        gate.armed = True
        receipts = [service.submit_nowait("g", payload) for payload in WORKLOAD]
        await gate.wait_entered()
        # Every record is written, and the fsync has not returned yet.
        path = tmp_path / f"{journal_slug('g')}.journal.jsonl"
        deltas = [line for line in path.read_text().splitlines() if '"t": "delta"' in line]
        assert len(deltas) == len(WORKLOAD)
        await asyncio.sleep(0.05)
        assert not any(receipt.done() for receipt in receipts)
        gate.release.set()
        outcomes = await asyncio.gather(*receipts)
        assert [o.accepted for o in outcomes] == [
            len(p.get("inserts", [])) + len(p.get("deletes", [])) for p in WORKLOAD
        ]
        journal = service.stats("g")["journal"]
        # The subscribe record plus one group of six, two fsyncs in all.
        assert (journal["appends"], journal["fsyncs"]) == (1 + len(WORKLOAD), 2)
        await service.close()

    run(scenario())


def test_abort_during_a_groups_fsync_cancels_every_receipt(tmp_path, monkeypatch):
    gate = FsyncGate(monkeypatch, sync=False)

    async def scenario():
        service = StreamingUpdateService(ServiceConfig(journal_dir=str(tmp_path), **QUIET))
        await service.register("g", make_data())
        await service.subscribe("g", "default", make_pattern())
        gate.armed = True
        receipts = [service.submit_nowait("g", payload) for payload in WORKLOAD]
        await gate.wait_entered()
        try:
            await asyncio.wait_for(service.abort(), timeout=5)
            assert all(receipt.cancelled() for receipt in receipts)
        finally:
            gate.release.set()

    run(scenario())


def test_pipelined_burst_makes_one_append_with_the_records_of_awaited_submits(
    tmp_path, monkeypatch
):
    from repro.workloads.update_gen import generate_payload_stream

    calls = []
    append_delta = GraphJournal.append_delta

    def counting_append(journal, *payloads):
        calls.append(len(payloads))
        return append_delta(journal, *payloads)

    monkeypatch.setattr(GraphJournal, "append_delta", counting_append)
    data = make_data(30)
    payloads = list(
        generate_payload_stream(data, payloads=120, updates_per_payload=4, seed=ROOT_SEED)
    )
    config = dict(deadline_seconds=30.0, max_buffer=100, coalesce_min_batch=64)

    async def ingest(directory, pipelined):
        service = StreamingUpdateService(ServiceConfig(journal_dir=str(directory), **config))
        await service.register("g", data)
        await service.subscribe("g", "p", make_pattern())
        if pipelined:
            receipts = await asyncio.gather(
                *(service.submit_nowait("g", payload) for payload in payloads)
            )
        else:
            receipts = [await service.submit("g", payload) for payload in payloads]
        await service.drain()
        stats = service.stats("g")
        snapshot = service.snapshot("g")
        await service.close()
        path = directory / f"{journal_slug('g')}.journal.jsonl"
        deltas = [
            line for line in path.read_bytes().splitlines() if json.loads(line)["t"] == "delta"
        ]
        return receipts, stats, deltas, snapshot

    async def scenario():
        awaited = await ingest(tmp_path / "awaited", pipelined=False)
        assert calls == [1] * len(payloads)
        calls.clear()
        pipelined = await ingest(tmp_path / "pipelined", pipelined=True)
        assert calls == [len(payloads)]
        receipts, stats, deltas, snapshot = pipelined
        assert receipts == awaited[0]
        assert stats["cut_reasons"] == awaited[1]["cut_reasons"]
        assert len(deltas) == len(payloads)
        assert deltas == awaited[2]
        assert snapshot.data == awaited[3].data
        assert snapshot.state_for("p").result == awaited[3].state_for("p").result
        assert (stats["journal"]["appends"], stats["journal"]["fsyncs"]) == (1 + len(payloads), 2)
        assert stats["journal"]["fsyncs"] < awaited[1]["journal"]["fsyncs"]

    run(scenario())


def test_failed_group_append_stops_the_journal(tmp_path, monkeypatch):
    # A real I/O error, not a simulated death.  How much of the group
    # reached the disk is unknown, so the journal takes no more appends
    # (they could reuse the group's seqs) and no checkpoint; a restart
    # recovers the receipted payloads plus a prefix of the group.
    failing = {"armed": False}
    real_fsync = os.fsync

    def fsync(fd):
        if failing["armed"]:
            failing["armed"] = False
            raise OSError("disk full")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    first = {"inserts": [edge_spec("n0", "n2")]}
    group = [
        {"inserts": [edge_spec("n0", "n3")]},
        {"inserts": [edge_spec("n1", "n4"), edge_spec("n2", "n5")]},
    ]

    async def scenario():
        config = ServiceConfig(
            journal_dir=str(tmp_path),
            deadline_seconds=30.0,
            max_buffer=2,
            coalesce_min_batch=10_000,
        )
        service = StreamingUpdateService(config)
        await service.register("g", make_data())
        await service.subscribe("g", "default", make_pattern())
        receipt = await service.submit("g", first)
        assert receipt.accepted == 1 and receipt.cut is None
        failing["armed"] = True
        # Both payloads cut (capacity) before the append fails.
        outcomes = await asyncio.gather(
            *(service.submit_nowait("g", payload) for payload in group), return_exceptions=True
        )
        assert [type(outcome) for outcome in outcomes] == [OSError, OSError]
        with pytest.raises(JournalError):
            await service.submit("g", {"inserts": [edge_spec("n3", "n6")]})
        # The subscribe record and the first payload; the group's seqs
        # never became the journal's.
        assert service.stats("g")["journal"]["last_seq"] == 2
        await service.abort()

        kept, _stats = await recovered_group_prefix(tmp_path, [first], group)
        assert kept == len(group)  # written and flushed; only the fsync failed

    run(scenario())


def test_failed_group_append_rolls_back_the_groups_deltas(tmp_path, monkeypatch):
    # The group's deltas were staged, cut and buffered before its append
    # failed.  No receipt covers them and no restart would recover them,
    # so a later drain must not settle them; the receipted payload
    # buffered before the group still settles.
    failing = {"armed": False}
    real_fsync = os.fsync

    def fsync(fd):
        if failing["armed"]:
            failing["armed"] = False
            raise OSError("disk full")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    first = {"inserts": [edge_spec("n0", "n2")]}
    group = [
        {"inserts": [edge_spec("n0", "n3")]},
        {"inserts": [edge_spec("n1", "n4"), edge_spec("n2", "n5")]},
    ]

    async def scenario():
        config = ServiceConfig(
            journal_dir=str(tmp_path),
            deadline_seconds=30.0,
            max_buffer=2,
            coalesce_min_batch=10_000,
        )
        service = StreamingUpdateService(config)
        await service.register("g", make_data())
        await service.subscribe("g", "default", make_pattern())
        receipt = await service.submit("g", first)
        assert receipt.accepted == 1 and receipt.cut is None
        failing["armed"] = True
        outcomes = await asyncio.gather(
            *(service.submit_nowait("g", payload) for payload in group), return_exceptions=True
        )
        assert [type(outcome) for outcome in outcomes] == [OSError, OSError]
        await service.drain()

        snapshot = service.snapshot("g")
        expected = make_data()
        expected.add_edge("n0", "n2")
        assert snapshot.data == expected
        for source, target in (("n0", "n3"), ("n1", "n4"), ("n2", "n5")):
            assert not snapshot.data.has_edge(source, target)
        assert service._session("g").staged == snapshot.data
        assert service.stats("g")["quarantined"] == 0
        # A later payload that stays buffered is rolled back the same way.
        with pytest.raises(JournalError):
            await service.submit("g", {"inserts": [edge_spec("n3", "n6")]})
        assert service.backlog("g") == 0
        assert service._session("g").staged == snapshot.data
        await service.abort()

    run(scenario())
