"""Live capture hooks (``start_capture`` / ``stop_capture``).

A capture journal must be indistinguishable from a journal-from-birth
as a replay source: snapshot base of the settled state, buffered tail
as the first delta record, every subsequent payload journaled, and a
faithful replay of its window reproducing the live session exactly.
"""

import asyncio
import json

import pytest

from repro.replay import ReplayLog, replay
from repro.service import ServiceConfig, ServiceError, StreamingUpdateService
from repro.workloads.update_gen import generate_payload_stream

from tests.replay.conftest import (
    EAGER,
    QUIET,
    make_graph,
    make_pattern,
    observed_matches,
    run,
)


async def start_service(config_kwargs, *, patterns=("alpha",)):
    graph = make_graph()
    service = StreamingUpdateService(ServiceConfig(**config_kwargs))
    await service.register("g", graph)
    labels = {"alpha": ("A", "B"), "beta": ("B", "C")}
    for pattern_id in patterns:
        await service.subscribe("g", pattern_id, make_pattern(*labels[pattern_id]))
    return service, graph


def payloads_for(graph, count, *, seed=31):
    return list(
        generate_payload_stream(graph, payloads=count, updates_per_payload=4, seed=seed)
    )


# ----------------------------------------------------------------------
# Lifecycle guards
# ----------------------------------------------------------------------
def test_start_capture_refuses_an_already_journaled_graph(tmp_path):
    async def scenario():
        service, _ = await start_service(
            dict(journal_dir=str(tmp_path / "wal"), **EAGER)
        )
        try:
            with pytest.raises(ServiceError, match="already journaled"):
                await service.start_capture("g", tmp_path / "capture")
        finally:
            await service.close()

    run(scenario())


def test_stop_capture_without_a_journal_refuses(tmp_path):
    async def scenario():
        service, _ = await start_service(dict(**EAGER))
        try:
            with pytest.raises(ServiceError, match="no journal to stop"):
                await service.stop_capture("g")
        finally:
            await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# The captured file
# ----------------------------------------------------------------------
def test_capture_snapshots_settled_state_and_buffers_the_tail(tmp_path):
    async def scenario():
        # QUIET: nothing settles on its own, so pre-capture payloads sit
        # in the buffer when capture starts.
        service, graph = await start_service(dict(**QUIET))
        payloads = payloads_for(graph, 6)
        for payload in payloads[:2]:
            receipt = await service.submit("g", payload)
            assert receipt.rejected == 0
        info = await service.start_capture("g", tmp_path)
        # Settled state is still the registered graph (version 0, no
        # journaled seqs yet); the buffer became one delta record.
        assert info["base_seq"] == 0
        assert info["last_seq"] == 1
        for payload in payloads[2:]:
            await service.submit("g", payload)
        await service.drain()
        await service.close()

        with open(info["path"]) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["t"] == "snapshot"
        assert lines[0]["seq"] == 0
        assert lines[0]["version"] == 0
        assert [doc["pattern_id"] for doc in lines[0]["subscriptions"]] == ["alpha"]
        # First delta record carries the whole pre-capture buffer.
        assert lines[1]["t"] == "delta"
        assert len(lines[1]["updates"]) == 2 * 4

    run(scenario())


def test_capture_journal_is_a_recovery_source(tmp_path):
    async def scenario():
        service, graph = await start_service(dict(**EAGER))
        for payload in payloads_for(graph, 5):
            await service.submit("g", payload)
        await service.start_capture("g", tmp_path)
        for payload in payloads_for(graph, 5, seed=77)[2:]:
            await service.submit("g", payload)
        await service.drain()
        live = {
            "matches": observed_matches(service, "g"),
            "version": service.snapshot("g").version,
        }
        await service.close()  # "crash" after the last fsync

        # A fresh service pointed at the capture directory recovers the
        # captured graph — journal-from-birth and capture are the same
        # format.
        recovered = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **EAGER)
        )
        snapshot = await recovered.register("g", make_graph())
        assert observed_matches(recovered, "g") == live["matches"]
        assert snapshot.version >= live["version"]
        await recovered.close()

    run(scenario())


def test_capture_records_cut_batches_still_waiting_for_their_settle(tmp_path):
    async def scenario():
        # EAGER cuts every payload.  All ingests are queued ahead of the
        # capture, and the first cut queues its settle behind it, so the
        # capture runs while every cut batch still waits to settle.
        service, graph = await start_service(dict(**EAGER))
        receipts = [
            service.submit_nowait("g", payload) for payload in payloads_for(graph, 4)
        ]
        info = await service.start_capture("g", tmp_path)
        cuts = [receipt.cut for receipt in await asyncio.gather(*receipts)]
        await service.drain()
        live_graph = service.snapshot("g").data.copy()
        live_matches = observed_matches(service, "g")
        settles = service.stats("g")["settles"]
        await service.close()

        recovered = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **EAGER)
        )
        await recovered.register("g", make_graph())
        await recovered.drain()
        recovered_graph = recovered.snapshot("g").data
        recovered_matches = observed_matches(recovered, "g")
        await recovered.close()

        assert all(cuts) and settles == 1
        # The waiting cut batches are the capture's first delta record.
        assert info["last_seq"] == info["base_seq"] + 1
        assert recovered_graph == live_graph
        assert recovered_matches == live_matches

    run(scenario())


def test_stopped_capture_leaves_the_file_immutable(tmp_path):
    async def scenario():
        service, graph = await start_service(dict(**EAGER))
        stream = payloads_for(graph, 6)
        await service.start_capture("g", tmp_path)
        for payload in stream[:3]:
            await service.submit("g", payload)
        await service.drain()
        info = await service.stop_capture("g")
        with open(info["path"], "rb") as handle:
            frozen = handle.read()
        # Post-stop traffic is accepted but no longer journaled.
        for payload in stream[3:]:
            receipt = await service.submit("g", payload)
            assert receipt.rejected == 0
        await service.drain()
        with open(info["path"], "rb") as handle:
            assert handle.read() == frozen
        assert info["last_seq"] == 3
        assert info["checkpoint_seq"] == 3
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Replay of a captured window matches the live session
# ----------------------------------------------------------------------
def test_replay_of_a_captured_window_matches_live(tmp_path):
    async def scenario():
        service, graph = await start_service(dict(**EAGER), patterns=("alpha", "beta"))
        pre = payloads_for(graph, 4)
        for payload in pre:
            await service.submit("g", payload)
        await service.drain()
        await service.start_capture("g", tmp_path)
        # Fresh generator seeded from the *current* graph so mid-stream
        # inserts/deletes stay valid.
        post = list(
            generate_payload_stream(
                service.snapshot("g").data.copy(),
                payloads=8,
                updates_per_payload=4,
                seed=59,
            )
        )
        for payload in post:
            receipt = await service.submit("g", payload)
            assert receipt.rejected == 0
        await service.drain()
        live = {
            "matches": observed_matches(service, "g"),
            "version": service.snapshot("g").version,
            "history": service.graph_history("g").canonical_doc(),
        }
        await service.close()

        window = ReplayLog(tmp_path / "g.journal.jsonl").window()
        assert window.warmup_deltas == 0  # capture journals self-base
        assert window.delta_count == 8
        assert sorted(d["pattern_id"] for d in window.subscriptions) == [
            "alpha",
            "beta",
        ]
        result = await replay(window)
        assert {
            pid: {u: list(vs) for u, vs in per.items()}
            for pid, per in result.final.as_of[0].items()
        } == live["matches"]
        # Capture bases replay versioning at the captured version.
        assert result.final.version == live["version"] - window.base_version
        # Lifetime stamps restart at the capture base (the live run's
        # pre-capture history is inside the snapshot, not the stream),
        # so vs-live they are offset — but across replays of the same
        # captured window they are deterministic and comparable.
        assert result.final.history != live["history"]
        again = await replay(window, slen_backend="dense")
        assert again.final.history == result.final.history

    run(scenario())
