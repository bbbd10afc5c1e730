"""StreamingUpdateService: serialization, admission, group settle, drain, non-blocking reads."""

import asyncio
import dataclasses
import time

import pytest

from repro.algorithms import UAGPNM
from repro.batching.coalesce import DEFAULT_COALESCE_MIN_BATCH
from repro.batching.planner import (
    DEFAULT_COST_MODEL,
    STRATEGY_PER_UPDATE,
    BatchStatistics,
    plan_batch,
)
from repro.graph import DataGraph, PatternGraph
from repro.graph.updates import EdgeDeletion, GraphKind, UpdateBatch
from repro.matching import bounded_simulation, gpnm_query
from repro.service import (
    CUT_CAPACITY,
    CUT_CROSSOVER,
    CUT_DEADLINE,
    CUT_DRAIN,
    DeltaError,
    ServiceConfig,
    ServiceError,
    StreamingUpdateService,
)
from repro.service.faults import flaky_algorithm_factory
from repro.service.service import default_algorithm_factory
from repro.spl.matrix import SLenMatrix

from tests.conftest import register_default


def make_data(num_nodes: int = 10) -> DataGraph:
    """A deterministic ring over ``num_nodes`` labelled nodes."""
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


def make_braided_ring(num_nodes: int = 40) -> DataGraph:
    """A ring plus chords two and three nodes ahead: ``3 * num_nodes`` edges."""
    data = make_data(num_nodes)
    for i in range(num_nodes):
        for stride in (2, 3):
            data.add_edge(f"n{i}", f"n{(i + stride) % num_nodes}")
    return data


def edge_spec(source: str, target: str) -> dict:
    return {"type": "edge", "source": source, "target": target}


#: A config whose deadline/crossover/capacity triggers all stay out of
#: the way, so tests trigger cuts explicitly (via drain) or pick one
#: trigger deliberately.
QUIET = dict(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Queue serialization: concurrent writers == sequential oracle
# ----------------------------------------------------------------------
def test_concurrent_writers_settle_to_the_sequential_oracle():
    async def scenario():
        data = make_data(12)
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), data)

        # Each writer owns a disjoint set of non-ring pairs and toggles
        # them an odd number of times, so the expected final graph is
        # the initial one plus every owned pair — independent of how the
        # writers' submissions interleave.
        owned = {
            0: [("n0", "n2"), ("n0", "n3")],
            1: [("n1", "n4"), ("n1", "n5")],
            2: [("n2", "n6"), ("n2", "n7")],
        }

        async def writer(pairs):
            for source, target in pairs:
                for _ in range(3):  # insert, delete, insert
                    await service.submit("g", {"inserts": [edge_spec(source, target)]})
                    await service.submit("g", {"deletes": [edge_spec(source, target)]})
                await service.submit("g", {"inserts": [edge_spec(source, target)]})

        await asyncio.gather(*(writer(pairs) for pairs in owned.values()))
        await service.drain()

        expected = data.copy()
        for pairs in owned.values():
            for source, target in pairs:
                expected.add_edge(source, target)
        snapshot = service.snapshot("g")
        assert snapshot.data == expected
        # The settled SLen and match result agree with a from-scratch
        # recomputation on the expected graph (the oracle).
        oracle_slen = SLenMatrix.from_graph(expected)
        assert snapshot.slen == oracle_slen
        oracle_result = bounded_simulation(make_pattern(), expected, oracle_slen)
        assert snapshot.result.as_dict() == dict(oracle_result)

        stats = service.stats("g")
        # 3 writers x 2 owned pairs x 7 toggles per pair, none rejected.
        assert stats["rejected"] == 0
        assert stats["accepted"] == stats["settled"] == 3 * 2 * 7
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Admission triggers
# ----------------------------------------------------------------------
def test_deadline_expiry_cuts_the_buffer():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=0.05, max_buffer=10_000, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        receipt = await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        assert receipt.cut is None
        assert receipt.pending == 1
        assert service.snapshot("g").version == 0

        deadline = time.monotonic() + 5.0
        while service.stats("g")["settles"] < 1:
            assert time.monotonic() < deadline, "deadline cut never settled"
            await asyncio.sleep(0.01)
        stats = service.stats("g")
        assert stats["cut_reasons"] == {CUT_DEADLINE: 1}
        assert stats["pending"] == 0
        snapshot = service.snapshot("g")
        assert snapshot.version == 1
        assert snapshot.data.has_edge("n0", "n2")
        await service.close()

    run(scenario())


def test_planner_crossover_cuts_immediately():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=4)
        )
        await register_default(service, "g", make_pattern(), make_data(40))
        # A deletion-heavy batch past the cost model's coalescing
        # crossover routes off per-update maintenance, which is the
        # service's cut signal (32 deletions on 40 nodes prices
        # coalesced below per-update under the shipped calibration).
        receipt = await service.submit(
            "g",
            {"deletes": [edge_spec(f"n{i}", f"n{i + 1}") for i in range(32)]},
        )
        assert receipt.cut == CUT_CROSSOVER
        assert receipt.pending == 0
        await service.drain()
        assert service.stats("g")["cut_reasons"] == {CUT_CROSSOVER: 1}
        assert not service.snapshot("g").data.has_edge("n0", "n1")
        await service.close()

    run(scenario())


def test_capacity_backstop_cuts_when_buffer_fills():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=3, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        receipt = await service.submit(
            "g",
            {
                "inserts": [
                    edge_spec("n0", "n2"),
                    edge_spec("n0", "n3"),
                    edge_spec("n0", "n4"),
                ]
            },
        )
        assert receipt.cut == CUT_CAPACITY
        await service.drain()
        assert service.stats("g")["cut_reasons"] == {CUT_CAPACITY: 1}
        await service.close()

    run(scenario())


def test_zero_deadline_cuts_every_payload():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=0.0, max_buffer=10_000, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        receipt = await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        assert receipt.cut == CUT_DEADLINE
        await service.drain()
        assert service.snapshot("g").version == 1
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Graceful drain: nothing accepted is ever lost
# ----------------------------------------------------------------------
def test_close_settles_every_accepted_delta():
    async def scenario():
        data = make_data(12)
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), data)
        pairs = [("n0", f"n{i}") for i in range(2, 11)]
        for source, target in pairs:
            receipt = await service.submit("g", {"inserts": [edge_spec(source, target)]})
            assert receipt.accepted == 1
            assert receipt.cut is None  # nothing triggers; close must flush
        assert service.snapshot("g").version == 0
        await service.close()
        stats = service.stats("g")
        assert stats["settled"] == stats["accepted"] == len(pairs)
        assert stats["pending"] == 0
        assert stats["cut_reasons"] == {CUT_DRAIN: 1}
        snapshot = service.snapshot("g")
        for source, target in pairs:
            assert snapshot.data.has_edge(source, target)
        assert not service.errors

    run(scenario())


# ----------------------------------------------------------------------
# Reads never block behind a settling batch
# ----------------------------------------------------------------------
def test_reads_answer_from_last_snapshot_while_settle_is_in_flight():
    async def scenario():
        settle_started = asyncio.Event()
        release_settle = None  # threading.Event, created below
        import threading

        release_settle = threading.Event()
        loop = asyncio.get_running_loop()

        def slow_factory(data, config):
            algorithm = default_algorithm_factory(data, config)
            inner = algorithm.subsequent_query

            def slow(batch):
                loop.call_soon_threadsafe(settle_started.set)
                assert release_settle.wait(timeout=10), "test never released settle"
                return inner(batch)

            algorithm.subsequent_query = slow
            return algorithm

        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=0.0, max_buffer=10_000, coalesce_min_batch=10_000),
            algorithm_factory=slow_factory,
        )
        await register_default(service, "g", make_pattern(), make_data())
        baseline = service.snapshot("g")

        receipt = await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        assert receipt.cut == CUT_DEADLINE
        await asyncio.wait_for(settle_started.wait(), timeout=10)

        # The settle is now provably in flight (and blocked).  Reads
        # must return promptly from the last published snapshot.
        started = time.perf_counter()
        snapshot = service.snapshot("g")
        matched = service.matches("g")
        distance = service.slen_distance("g", "n0", "n1")
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"reads stalled {elapsed:.3f}s behind the settle"
        assert snapshot.version == baseline.version == 0
        assert not snapshot.data.has_edge("n0", "n2")
        assert set(matched) == set(baseline.result.as_dict())
        assert distance == 1

        release_settle.set()
        await service.drain()
        settled = service.snapshot("g")
        assert settled.version == 1
        assert settled.data.has_edge("n0", "n2")
        await service.close()

    run(scenario())


def test_a_settle_makes_one_executor_hop():
    # Engine pass, fan-out and snapshot build run in one executor call;
    # the commit happens on the loop.  No journal, so no checkpoint hop.
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), make_data())
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        loop = asyncio.get_running_loop()
        calls = []
        run_in_executor = loop.run_in_executor

        def counting(executor, func, *args):
            calls.append(func)
            return run_in_executor(executor, func, *args)

        loop.run_in_executor = counting
        try:
            await service.drain()
        finally:
            del loop.run_in_executor
        stats = service.stats("g")
        assert (stats["settles"], stats["settle_failures"], stats["settle_retries"]) == (1, 0, 0)
        assert len(calls) == 1, calls
        assert service.snapshot("g").data.has_edge("n0", "n2")
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Validation: staged state, rejections, addressing
# ----------------------------------------------------------------------
def test_validation_sees_buffered_but_unsettled_deltas():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), make_data())
        first = await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        assert (first.accepted, first.rejected) == (1, 0)
        # Still buffered — yet the duplicate must be rejected against
        # the staged state, not the settled one.
        second = await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        assert (second.accepted, second.rejected) == (0, 1)
        assert "already exists" in second.errors[0]
        await service.close()
        assert service.stats("g")["settled"] == 1

    run(scenario())


def test_invalid_deltas_are_rejected_with_reasons_and_valid_ones_kept():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), make_data())
        receipt = await service.submit(
            "g",
            {
                "inserts": [
                    edge_spec("n0", "n1"),      # already exists (ring edge)
                    edge_spec("n0", "ghost"),   # missing endpoint
                    edge_spec("n0", "n2"),      # fine
                    {"type": "node", "node": "n0", "labels": ["A"]},  # exists
                ],
                "deletes": [
                    edge_spec("n0", "n5"),      # no such edge
                    {"type": "node", "node": "ghost"},  # no such node
                ],
            },
        )
        assert receipt.accepted == 1
        assert receipt.rejected == 5
        assert len(receipt.errors) == 5
        await service.close()
        snapshot = service.snapshot("g")
        assert snapshot.data.has_edge("n0", "n2")

    run(scenario())


def test_node_insert_payload_edges_are_validated():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), make_data())
        bad = await service.submit(
            "g",
            {
                "inserts": [
                    {
                        "type": "node",
                        "node": "fresh",
                        "labels": ["A"],
                        "edges": [["fresh", "ghost"]],
                    }
                ]
            },
        )
        assert (bad.accepted, bad.rejected) == (0, 1)
        good = await service.submit(
            "g",
            {
                "inserts": [
                    {
                        "type": "node",
                        "node": "fresh",
                        "labels": ["A"],
                        "edges": [["fresh", "n0"], ["n1", "fresh"]],
                    }
                ]
            },
        )
        assert (good.accepted, good.rejected) == (1, 0)
        await service.close()
        snapshot = service.snapshot("g")
        assert snapshot.data.has_node("fresh")
        assert snapshot.data.has_edge("fresh", "n0")
        assert snapshot.data.has_edge("n1", "fresh")

    run(scenario())


def test_unknown_graph_and_duplicate_registration_raise():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        with pytest.raises(ServiceError, match="unknown graph"):
            await service.submit("nope", {"inserts": []})
        with pytest.raises(ServiceError, match="unknown graph"):
            service.snapshot("nope")
        await register_default(service, "g", make_pattern(), make_data())
        with pytest.raises(ServiceError, match="already registered"):
            await register_default(service, "g", make_pattern(), make_data())
        await service.close()

    run(scenario())


def test_payload_addressed_to_a_different_graph_is_refused():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "g", make_pattern(), make_data())
        with pytest.raises(DeltaError, match="addresses graph"):
            await service.submit("g", {"graph": "other", "inserts": []})
        await service.close()

    run(scenario())


def test_graphs_are_independent():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await register_default(service, "a", make_pattern(), make_data())
        await register_default(service, "b", make_pattern(), make_data())
        await service.submit("a", {"inserts": [edge_spec("n0", "n2")]})
        await service.close()
        assert service.snapshot("a").data.has_edge("n0", "n2")
        assert not service.snapshot("b").data.has_edge("n0", "n2")
        assert service.stats("b")["accepted"] == 0
        assert sorted(service.graphs) == ["a", "b"]

    run(scenario())


# ----------------------------------------------------------------------
# Admission fast path: small buffers skip the planner, same decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("eager_model", [False, True], ids=["shipped-model", "zero-overhead-model"])
@pytest.mark.parametrize("min_batch", [DEFAULT_COALESCE_MIN_BATCH, 0, 1, 5])
def test_admission_cuts_exactly_when_the_planner_leaves_per_update(
    monkeypatch, min_batch, eager_model
):
    # The zero-overhead model prices coalescing below per-update for any
    # batch rule 1 lets through, so it pins the fast path's boundary.
    model = None
    if eager_model:
        model = dataclasses.replace(
            DEFAULT_COST_MODEL, coalesce_fixed_overhead=0.0, partition_fixed_overhead=0.0
        )

    def factory(data, config):
        return UAGPNM(
            PatternGraph(),
            data,
            use_partition=config.use_partition,
            coalesce_min_batch=config.coalesce_min_batch,
            cost_model=model,
        )

    async def scenario():
        data = make_braided_ring(40)
        deletions = [
            EdgeDeletion(graph=GraphKind.DATA, source=source, target=target)
            for source, target in sorted(data.edges())
        ]
        service = StreamingUpdateService(
            ServiceConfig(
                deadline_seconds=30.0,
                max_buffer=10_000,
                coalesce_min_batch=min_batch,
            ),
            algorithm_factory=factory,
        )
        await service.register("g", data)
        # Observe the decision only: no settle, no deadline timer.
        monkeypatch.setattr(service, "_cut", lambda session, reason: reason)
        monkeypatch.setattr(service, "_arm_deadline", lambda session: None)
        session = service._session("g")
        algorithm = session.algorithm
        decisions = []
        for size in range(min_batch + 3):
            session.buffer = UpdateBatch(deletions[:size])
            plan = plan_batch(
                BatchStatistics.from_updates(
                    session.buffer,
                    node_count=session.staged.number_of_nodes,
                    backend=algorithm.slen_backend,
                    partition_available=algorithm.uses_partition,
                ),
                min_batch=min_batch,
                model=algorithm.cost_model,
            )
            planned = CUT_CROSSOVER if size and plan.strategy != STRATEGY_PER_UPDATE else None
            assert service._admit(session) == planned, f"buffer of {size}"
            decisions.append(planned)
        if eager_model or min_batch == DEFAULT_COALESCE_MIN_BATCH:
            assert CUT_CROSSOVER in decisions  # the comparison covers a cut
        session.buffer = UpdateBatch()
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Group settle: cut batches queued behind one settle merge into it
# ----------------------------------------------------------------------
#: Crossover cuts at 30 deletions per payload (the shipped cost model
#: prices 30 deletions coalesced below per-update at any graph size).
CROSSOVER_DELETES = 30


def deletion_payloads(data: DataGraph, groups: int) -> list[dict]:
    """``groups`` disjoint payloads of ``CROSSOVER_DELETES`` edge deletions."""
    edges = sorted(data.edges())
    return [
        {
            "deletes": [
                edge_spec(source, target)
                for source, target in edges[g * CROSSOVER_DELETES:(g + 1) * CROSSOVER_DELETES]
            ]
        }
        for g in range(groups)
    ]


def recording_factory(sizes: list[int]):
    """The stock factory, recording the size of every settled batch."""

    def factory(data, config):
        algorithm = default_algorithm_factory(data, config)
        inner = algorithm.subsequent_query

        def recorded(batch):
            sizes.append(len(batch))
            return inner(batch)

        algorithm.subsequent_query = recorded
        return algorithm

    return factory


CROSSOVER = dict(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=4)


def test_pipelined_crossover_cuts_settle_once_and_recover(tmp_path):
    async def scenario():
        data = make_braided_ring(40)
        groups = 4
        payloads = deletion_payloads(data, groups)
        expected = data.copy()
        for payload in payloads:
            for spec in payload["deletes"]:
                expected.remove_edge(spec["source"], spec["target"])
        config = ServiceConfig(journal_dir=str(tmp_path), **CROSSOVER)
        service = StreamingUpdateService(config)
        await service.register("g", data)
        await service.subscribe("g", "p", make_pattern())

        receipts = await asyncio.gather(
            *(service.submit_nowait("g", payload) for payload in payloads)
        )
        assert [receipt.cut for receipt in receipts] == [CUT_CROSSOVER] * groups
        last_payload_seq = service.stats("g")["journal"]["last_seq"]
        await service.drain()

        stats = service.stats("g")
        assert stats["settles"] == 1
        assert stats["cut_reasons"] == {CUT_CROSSOVER: groups}
        assert stats["merged_cuts"] == groups - 1
        assert stats["settled"] == stats["accepted"] == groups * CROSSOVER_DELETES
        assert stats["journal"]["checkpoint_seq"] == last_payload_seq
        snapshot = service.snapshot("g")
        assert snapshot.version == 1
        assert snapshot.data == expected
        assert snapshot.slen == SLenMatrix.from_graph(expected)
        matches = snapshot.state_for("p").result
        assert matches == gpnm_query(make_pattern(), expected)
        await service.close()

        recovered = StreamingUpdateService(config)
        await recovered.register("g", data)
        await recovered.drain()
        assert recovered.snapshot("g").data == expected
        assert recovered.snapshot("g").state_for("p").result == matches
        await recovered.close()

    run(scenario())


def test_drain_queued_behind_a_journaled_burst_joins_its_one_settle(tmp_path):
    # The repo benchmark's burst shape: every payload pipelined, the
    # drain queued right behind them while the group is still fsyncing.
    # The group schedules its settle only after the fsync, so the drain
    # cut of the leftover payload lands ahead of it and joins it.
    async def scenario():
        data = make_braided_ring(40)
        payloads = deletion_payloads(data, 4)
        payloads[-1]["deletes"] = payloads[-1]["deletes"][:1]  # below the crossover
        service = StreamingUpdateService(ServiceConfig(journal_dir=str(tmp_path), **CROSSOVER))
        await service.register("g", data)
        receipts = [service.submit_nowait("g", payload) for payload in payloads]
        drained = asyncio.ensure_future(service.drain())
        assert [receipt.cut for receipt in await asyncio.gather(*receipts)] == [
            CUT_CROSSOVER, CUT_CROSSOVER, CUT_CROSSOVER, None
        ]
        await drained

        stats = service.stats("g")
        assert stats["cut_reasons"] == {CUT_CROSSOVER: 3, CUT_DRAIN: 1}
        assert stats["settles"] == 1
        assert stats["settled"] == stats["accepted"] == 3 * CROSSOVER_DELETES + 1
        assert stats["journal"]["checkpoint_seq"] == stats["journal"]["last_seq"]
        await service.close()

    run(scenario())


def test_max_buffer_caps_every_merged_settle():
    async def scenario():
        data = make_braided_ring(40)
        sizes: list[int] = []
        max_buffer = 2 * CROSSOVER_DELETES + 10
        service = StreamingUpdateService(
            ServiceConfig(**{**CROSSOVER, "max_buffer": max_buffer}),
            algorithm_factory=recording_factory(sizes),
        )
        await service.register("g", data)
        payloads = deletion_payloads(data, 4)
        await asyncio.gather(*(service.submit_nowait("g", payload) for payload in payloads))
        await service.drain()

        stats = service.stats("g")
        assert stats["cut_reasons"] == {CUT_CROSSOVER: 4}
        # Two cuts fit under the cap; the other two take a follow-up.
        assert sizes == [2 * CROSSOVER_DELETES, 2 * CROSSOVER_DELETES]
        assert all(size <= max_buffer for size in sizes)
        assert stats["settles"] == 2
        assert stats["merged_cuts"] == 2
        assert stats["settled"] == stats["accepted"] == 4 * CROSSOVER_DELETES
        await service.close()

    run(scenario())


def test_awaited_submits_keep_one_settle_and_version_per_cut():
    async def scenario():
        data = make_braided_ring(40)
        sizes: list[int] = []
        service = StreamingUpdateService(
            ServiceConfig(**CROSSOVER), algorithm_factory=recording_factory(sizes)
        )
        await service.register("g", data)
        for payload in deletion_payloads(data, 3):
            receipt = await service.submit("g", payload)
            assert receipt.cut == CUT_CROSSOVER
        await service.drain()

        stats = service.stats("g")
        assert sizes == [CROSSOVER_DELETES] * 3
        assert stats["settles"] == 3
        assert stats["merged_cuts"] == 0
        assert service.snapshot("g").version == 3
        await service.close()

    run(scenario())


def test_poison_delta_in_a_merged_settle_is_quarantined_alone():
    async def scenario():
        data = make_braided_ring(40)
        payloads = deletion_payloads(data, 3)
        poison = payloads[1]["deletes"][7]

        def is_poison(update):
            return (
                isinstance(update, EdgeDeletion)
                and (update.source, update.target) == (poison["source"], poison["target"])
            )

        service = StreamingUpdateService(
            ServiceConfig(settle_retries=0, **CROSSOVER),
            algorithm_factory=flaky_algorithm_factory(default_algorithm_factory, poison=is_poison),
        )
        await service.register("g", data)
        await asyncio.gather(*(service.submit_nowait("g", payload) for payload in payloads))
        await service.drain()

        stats = service.stats("g")
        assert stats["merged_cuts"] == 2
        assert stats["quarantined"] == 1
        assert stats["settled"] == 3 * CROSSOVER_DELETES - 1
        expected = data.copy()
        for payload in payloads:
            for spec in payload["deletes"]:
                if spec is not poison:
                    expected.remove_edge(spec["source"], spec["target"])
        snapshot = service.snapshot("g")
        assert snapshot.data == expected
        assert snapshot.data.has_edge(poison["source"], poison["target"])
        await service.close()

    run(scenario())


def test_pipelined_burst_backlog_counts_every_waiting_payload():
    # One ingest group carries many payloads in one queue action, yet
    # backlog() still counts one per waiting single-delta payload — the
    # count the TCP front end's max_pending refusal has always seen —
    # and a drain queued between two bursts keeps them two groups.
    async def scenario():
        import threading

        settle_started = asyncio.Event()
        release_settle = threading.Event()
        loop = asyncio.get_running_loop()

        def gated_factory(data, config):
            algorithm = default_algorithm_factory(data, config)
            inner = algorithm.subsequent_query

            def gated(batch):
                loop.call_soon_threadsafe(settle_started.set)
                assert release_settle.wait(timeout=10), "test never released settle"
                return inner(batch)

            algorithm.subsequent_query = gated
            return algorithm

        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000),
            algorithm_factory=gated_factory,
        )
        await service.register("g", make_data())
        pairs = [("n0", "n2"), ("n0", "n3"), ("n1", "n3"), ("n1", "n4"), ("n2", "n4"), ("n2", "n5")]
        receipts = [service.submit_nowait("g", {"inserts": [edge_spec(*pairs[0])]})]
        assert service.backlog("g") == 1
        await receipts[0]
        first_drain = asyncio.ensure_future(service.drain())
        await asyncio.wait_for(settle_started.wait(), timeout=10)
        # The worker is busy settling one delta.  Queue 3 payloads, a
        # drain cut, then 2 more: before grouping that was 6 ingest and
        # drain actions behind the running settle.
        receipts += [service.submit_nowait("g", {"inserts": [edge_spec(*p)]}) for p in pairs[1:4]]
        assert service.backlog("g") == 1 + 1 + 3
        second_drain = asyncio.ensure_future(service.drain())
        await asyncio.sleep(0)
        receipts += [service.submit_nowait("g", {"inserts": [edge_spec(*p)]}) for p in pairs[4:]]
        assert service.backlog("g") == 1 + 1 + 3 + 1 + 2
        release_settle.set()
        await first_drain
        await second_drain
        assert [receipt.result().accepted for receipt in receipts] == [1] * len(pairs)
        # The last two payloads came after the second drain's cut.
        assert service.backlog("g") == 2
        await service.drain()
        assert service.backlog("g") == 0
        stats = service.stats("g")
        assert stats["settled"] == stats["accepted"] == len(pairs)
        await service.close()

    run(scenario())
