"""Multi-pattern subscriptions: shared maintenance, fan-out, push, recovery.

The load-bearing suite of the subscription system:

* **Equivalence** — after every settle, every subscription's matches
  and top-k equal a from-scratch oracle (``bounded_simulation`` /
  ``top_k_matches``) on the settled snapshot, across seeds and across
  skewed persona workloads.  This is what makes the shared-delta
  fan-out (one maintenance pass + per-pattern amendment with a
  label-intersection skip filter) trustworthy.
* **Shared maintenance** — with 32 standing patterns one settle runs
  exactly one maintenance/SLen pass (telemetry counters), the
  acceptance criterion of the whole design.
* **Durability** — subscriptions ride the journal (subscribe and
  unsubscribe records, compaction snapshots) and recover after a
  simulated crash.
* **Push** — listeners receive per-pattern deltas that describe
  exactly the relation change the settle published.
"""

import asyncio
import warnings

import pytest

from repro.graph import DataGraph, PatternGraph
from repro.matching import MatchResult, bounded_simulation, top_k_matches
from repro.service import (
    DEFAULT_PATTERN_ID,
    ServiceConfig,
    ServiceError,
    StreamingUpdateService,
    reset_register_deprecation_warning,
)
from repro.service.service import default_algorithm_factory
from repro.spl.matrix import SLenMatrix
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UPDATE_PERSONAS, UpdateWorkloadSpec, generate_update_batch


def make_data(num_nodes: int = 12) -> DataGraph:
    """A labelled ring with a few chords (labels A/B/C cycle)."""
    labels = ("A", "B", "C")
    data = DataGraph()
    for i in range(num_nodes):
        data.add_node(f"n{i}", labels[i % 3])
    for i in range(num_nodes):
        data.add_edge(f"n{i}", f"n{(i + 1) % num_nodes}")
    for i in range(0, num_nodes, 3):
        data.add_edge(f"n{i}", f"n{(i + 2) % num_nodes}")
    return data


def make_pattern(label_a: str = "A", label_b: str = "B", bound: int = 2) -> PatternGraph:
    pattern = PatternGraph()
    pattern.add_node("p0", label_a)
    pattern.add_node("p1", label_b)
    pattern.add_edge("p0", "p1", bound)
    return pattern


def diverse_patterns(count: int, seed: int = 11) -> list[PatternGraph]:
    """``count`` distinct generated patterns over the A/B/C label set."""
    patterns = []
    for position in range(count):
        size = 2 + position % 4
        patterns.append(
            generate_pattern(
                PatternSpec(
                    num_nodes=size,
                    num_edges=size,
                    labels=("A", "B", "C"),
                    seed=seed + position,
                )
            )
        )
    return patterns


def edge_spec(source: str, target: str) -> dict:
    return {"type": "edge", "source": source, "target": target}


QUIET = dict(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)


def run(coro):
    return asyncio.run(coro)


def assert_matches_oracle(service: StreamingUpdateService, key: str, k: int = 3) -> None:
    """Every subscription's published matches/top-k == from-scratch oracle."""
    snapshot = service.snapshot(key)
    oracle_slen = SLenMatrix.from_graph(snapshot.data)
    assert snapshot.slen == oracle_slen
    for pattern_id, state in snapshot.subscriptions.items():
        # Published state is totality-enforced, so the oracle must apply
        # the same all-or-nothing collapse to the raw simulation.
        oracle = MatchResult(
            bounded_simulation(state.pattern, snapshot.data, oracle_slen),
            enforce_totality=True,
        )
        assert service.matches(key, pattern_id=pattern_id) == oracle.as_dict(), pattern_id
        ranked = service.top_k(key, k, pattern_id=pattern_id)
        oracle_ranked = top_k_matches(
            oracle, state.pattern, snapshot.data, oracle_slen, k
        )
        assert ranked == oracle_ranked, pattern_id


def batch_to_payload(batch) -> list[dict]:
    """Lower a generated update batch to wire payloads (one per update)."""
    from repro.graph.updates import EdgeDeletion, EdgeInsertion, NodeDeletion, NodeInsertion

    payloads = []
    for update in batch:
        if isinstance(update, EdgeInsertion):
            payloads.append({"inserts": [edge_spec(update.source, update.target)]})
        elif isinstance(update, EdgeDeletion):
            payloads.append({"deletes": [edge_spec(update.source, update.target)]})
        elif isinstance(update, NodeInsertion):
            payloads.append(
                {
                    "inserts": [
                        {
                            "type": "node",
                            "node": update.node,
                            "labels": list(update.labels),
                            "edges": [list(edge) for edge in update.edges],
                        }
                    ]
                }
            )
        elif isinstance(update, NodeDeletion):
            payloads.append({"deletes": [{"type": "node", "node": update.node}]})
    return payloads


# ----------------------------------------------------------------------
# Equivalence: every subscription == its standalone oracle, every settle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_pattern_equivalence_across_settles(seed):
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await service.register("g", make_data(15))
        for position, pattern in enumerate(diverse_patterns(6, seed=seed * 17 + 3)):
            await service.subscribe("g", f"q{position}", pattern, k=3)
        assert_matches_oracle(service, "g")

        spec = UpdateWorkloadSpec(0, 30, seed=seed * 31 + 7)
        batch = generate_update_batch(service.snapshot("g").data, PatternGraph(), spec)
        for payload in batch_to_payload(batch):
            receipt = await service.submit("g", payload)
            assert receipt.rejected == 0
            await service.drain()  # settle after every payload
            assert_matches_oracle(service, "g")
        await service.close()

    run(scenario())


@pytest.mark.parametrize("persona", UPDATE_PERSONAS)
def test_equivalence_under_persona_workloads(persona):
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await service.register("g", make_data(18))
        for position, pattern in enumerate(diverse_patterns(4, seed=5)):
            await service.subscribe("g", f"q{position}", pattern, k=2)

        spec = UpdateWorkloadSpec(0, 40, seed=23, persona=persona)
        batch = generate_update_batch(service.snapshot("g").data, PatternGraph(), spec)
        payloads = batch_to_payload(batch)
        # Settle in chunks, not per payload: personas exercise batched
        # (coalesced) maintenance through the fan-out too.
        for start in range(0, len(payloads), 8):
            for payload in payloads[start : start + 8]:
                await service.submit("g", payload)
            await service.drain()
            assert_matches_oracle(service, "g")
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Shared maintenance: one pass per settle, regardless of pattern count
# ----------------------------------------------------------------------
def test_32_patterns_one_maintenance_pass_per_settle():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await service.register("g", make_data(15))
        for position, pattern in enumerate(diverse_patterns(32, seed=2)):
            await service.subscribe("g", f"q{position}", pattern)
        assert len(service.snapshot("g").subscriptions) == 32

        for source, target in [("n0", "n4"), ("n1", "n5"), ("n2", "n7")]:
            await service.submit("g", {"inserts": [edge_spec(source, target)]})
            await service.drain()

        stats = service.stats("g")
        settles = stats["settles"]
        assert settles == 3
        # THE acceptance criterion: the pattern-independent work ran
        # exactly once per settle, not once per subscription.
        assert stats["shared"]["maintenance_passes"] == settles
        assert stats["shared"]["slen_update_passes"] == settles
        # Every subscription was either amended or provably skipped.
        assert (
            stats["shared"]["fanout_amend_passes"] + stats["shared"]["fanout_skips"]
            == 32 * settles
        )
        assert_matches_oracle(service, "g")
        await service.close()

    run(scenario())


def test_label_filter_skips_untouched_patterns():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        data = make_data(12)
        data.add_node("x0", "X")
        data.add_node("x1", "X")
        await service.register("g", data)
        await service.subscribe("g", "ab", make_pattern("A", "B"))
        await service.subscribe("g", "xx", make_pattern("X", "X", bound=1))

        # An edge between X-labelled islands cannot touch the A/B pattern.
        await service.submit("g", {"inserts": [edge_spec("x0", "x1")]})
        await service.drain()
        stats = service.stats("g")
        assert stats["subscriptions"]["ab"]["skipped_settles"] == 1
        assert stats["subscriptions"]["xx"]["amend_passes"] == 1
        assert_matches_oracle(service, "g")
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_duplicate_cap_and_unknown_pattern_errors():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(max_subscriptions=2, **QUIET))
        await service.register("g", make_data())
        await service.subscribe("g", "q0", make_pattern())
        with pytest.raises(ServiceError, match="already has subscription"):
            await service.subscribe("g", "q0", make_pattern("B", "C"))
        # replace=True swaps the pattern in place.
        state = await service.subscribe("g", "q0", make_pattern("B", "C"), replace=True)
        assert state.pattern.label_of("p0") == "B"
        await service.subscribe("g", "q1", make_pattern())
        with pytest.raises(ServiceError, match="subscription cap"):
            await service.subscribe("g", "q2", make_pattern())
        with pytest.raises(ServiceError, match="no subscription"):
            service.matches("g", pattern_id="nope")
        assert await service.unsubscribe("g", "nope") is False
        assert await service.unsubscribe("g", "q1") is True
        assert service.snapshot("g").pattern_ids == ("q0",)
        await service.close()

    run(scenario())


def test_unsubscribe_mid_settle_is_serialized():
    async def scenario():
        release = asyncio.Event()
        loop = asyncio.get_running_loop()

        def slow_factory(pattern, data, config):
            algorithm = default_algorithm_factory(pattern, data, config)
            inner = algorithm.subsequent_query

            def slow(batch):
                # Block the settle (executor thread) until released.
                asyncio.run_coroutine_threadsafe(release.wait(), loop).result(10)
                return inner(batch)

            algorithm.subsequent_query = slow
            return algorithm

        service = StreamingUpdateService(
            ServiceConfig(**QUIET), algorithm_factory=slow_factory
        )
        await service.register("g", make_data())
        await service.subscribe("g", "q0", make_pattern())
        await service.subscribe("g", "q1", make_pattern("B", "C"))

        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.drain()  # noop: nothing cut yet (quiet config)

        # Cut + settle is now in flight (blocked); unsubscribe while hot.
        future = service.submit_nowait("g", {"inserts": [edge_spec("n0", "n4")]})
        drop = asyncio.ensure_future(service.unsubscribe("g", "q1"))
        await asyncio.sleep(0.05)
        release.set()
        await future
        assert await drop is True
        await service.drain()

        snapshot = service.snapshot("g")
        assert "q1" not in snapshot.subscriptions
        assert_matches_oracle(service, "g")
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Push channel
# ----------------------------------------------------------------------
def test_listener_receives_exact_relation_delta():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        data = DataGraph()
        for node, label in [("a0", "A"), ("b0", "B"), ("b1", "B")]:
            data.add_node(node, label)
        data.add_edge("a0", "b0")
        await service.register("g", data)
        await service.subscribe("g", "q", make_pattern("A", "B", bound=1), k=2)
        before = service.matches("g", pattern_id="q")

        received = []
        service.attach_listener("g", "q", received.append)
        await service.submit("g", {"inserts": [edge_spec("a0", "b1")]})
        await service.drain()

        after = service.matches("g", pattern_id="q")
        assert len(received) == 1
        delta = received[0]
        assert delta.graph == "g" and delta.pattern_id == "q"
        assert delta.version == service.snapshot("g").version
        for pattern_node in set(before) | set(after):
            added = after.get(pattern_node, frozenset()) - before.get(pattern_node, frozenset())
            removed = before.get(pattern_node, frozenset()) - after.get(pattern_node, frozenset())
            assert delta.added.get(pattern_node, frozenset()) == added
            assert delta.removed.get(pattern_node, frozenset()) == removed
        assert delta.top_k is not None  # ranking changed with the new match

        # A detached listener stays silent.
        token = service.attach_listener("g", "q", received.append)
        assert service.detach_listener("g", "q", token) is True
        await service.submit("g", {"deletes": [edge_spec("a0", "b1")]})
        await service.drain()
        assert len(received) == 2  # only the still-attached listener fired
        await service.close()

    run(scenario())


def test_push_notifications_config_off_silences_listeners():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(push_notifications=False, **QUIET)
        )
        await service.register("g", make_data())
        await service.subscribe("g", "q", make_pattern())
        received = []
        service.attach_listener("g", "q", received.append)
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.drain()
        assert received == []
        assert_matches_oracle(service, "g")  # reads still serve
        await service.close()

    run(scenario())


def test_raising_listener_does_not_fail_the_settle():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await service.register("g", make_data())
        await service.subscribe("g", "q", make_pattern())

        def bad_listener(delta):
            raise RuntimeError("client bug")

        received = []
        service.attach_listener("g", "q", bad_listener)
        service.attach_listener("g", "q", received.append)
        await service.submit("g", {"deletes": [edge_spec("n0", "n1")]})
        await service.drain()
        assert service.errors == []
        assert len(received) == 1  # the healthy listener still fired
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Durability: subscriptions ride the journal
# ----------------------------------------------------------------------
def test_subscriptions_recover_after_crash(tmp_path):
    async def scenario():
        config = ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        service = StreamingUpdateService(config)
        await service.register("g", make_data())
        await service.subscribe("g", "q0", make_pattern(), k=2)
        await service.subscribe("g", "q1", make_pattern("B", "C"))
        await service.subscribe("g", "gone", make_pattern("C", "A"))
        await service.unsubscribe("g", "gone")
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.drain()
        expected = {
            pattern_id: service.matches("g", pattern_id=pattern_id)
            for pattern_id in ("q0", "q1")
        }
        await service.abort()  # simulated kill -9

        revived = StreamingUpdateService(config)
        # register() alone restores the registry from the journal.
        await revived.register("g", make_data())
        await revived.drain()  # flush replayed tail
        snapshot = revived.snapshot("g")
        assert set(snapshot.subscriptions) == {"q0", "q1"}
        assert snapshot.state_for("q0").k == 2
        for pattern_id, matched in expected.items():
            assert revived.matches("g", pattern_id=pattern_id) == matched
        assert_matches_oracle(revived, "g")
        await revived.close()

    run(scenario())


def test_subscriptions_survive_journal_compaction(tmp_path):
    async def scenario():
        # A one-byte threshold compacts after every checkpoint, so the
        # registry must survive *in the compaction snapshot*, not just
        # as replayable subscribe records.
        config = ServiceConfig(
            journal_dir=str(tmp_path), journal_compact_bytes=1, **QUIET
        )
        service = StreamingUpdateService(config)
        await service.register("g", make_data())
        await service.subscribe("g", "q0", make_pattern(), k=2)
        for source, target in [("n0", "n2"), ("n1", "n5"), ("n2", "n7")]:
            await service.submit("g", {"inserts": [edge_spec(source, target)]})
            await service.drain()
        assert service.stats("g")["journal"]["compactions"] >= 1
        expected = service.matches("g", pattern_id="q0")
        await service.abort()

        revived = StreamingUpdateService(config)
        await revived.register("g", make_data())
        await revived.drain()
        assert set(revived.snapshot("g").subscriptions) == {"q0"}
        assert revived.matches("g", pattern_id="q0") == expected
        await revived.close()

    run(scenario())


# ----------------------------------------------------------------------
# The single-pattern shim
# ----------------------------------------------------------------------
def test_register_graph_shim_serves_default_pattern():
    async def scenario():
        reset_register_deprecation_warning()
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        with pytest.warns(DeprecationWarning, match="register_graph.*deprecated"):
            snapshot = await service.register_graph("g", make_pattern(), make_data())
        assert snapshot.pattern_ids == (DEFAULT_PATTERN_ID,)
        # Legacy accessors and pattern-unaddressed reads resolve "default".
        assert snapshot.result.as_dict() == service.matches("g")
        assert service.matches("g") == service.matches("g", pattern_id=DEFAULT_PATTERN_ID)
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.drain()
        assert_matches_oracle(service, "g")
        await service.close()

    run(scenario())


def test_register_graph_deprecation_warns_once_per_process():
    async def scenario():
        reset_register_deprecation_warning()
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        with pytest.warns(DeprecationWarning):
            await service.register_graph("g1", make_pattern(), make_data())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            await service.register_graph("g2", make_pattern(), make_data())
        await service.close()
        reset_register_deprecation_warning()

    run(scenario())


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------
def test_stats_expose_shared_and_per_subscription_sections():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(**QUIET))
        await service.register("g", make_data())
        await service.subscribe("g", "q", make_pattern(), k=4)
        await service.submit("g", {"inserts": [edge_spec("n0", "n5")]})
        await service.drain()
        stats = service.stats("g")
        assert set(stats["shared"]) == {
            "maintenance_passes",
            "slen_update_passes",
            "fanout_amend_passes",
            "fanout_skips",
            "notifications_sent",
        }
        assert stats["subscriptions"]["q"]["k"] == 4
        assert stats["subscriptions"]["q"]["pattern"]["kind"] == "pattern_graph"
        assert stats["subscriptions"]["q"]["amend_passes"] >= 1
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Time travel x subscriptions: history is frozen, the registry is not
# ----------------------------------------------------------------------
def test_unsubscribed_pattern_stays_readable_at_retained_versions():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(snapshot_history=8, **QUIET))
        await service.register("g", make_data())
        await service.subscribe("g", "p", make_pattern())
        await service.submit("g", {"inserts": [edge_spec("n0", "n4")]})
        await service.drain()  # version 1 carries "p"
        frozen = service.matches("g", pattern_id="p")
        frozen_top = service.top_k("g", 2, pattern_id="p")
        await service.submit("g", {"inserts": [edge_spec("n1", "n5")]})
        await service.drain()  # version 2
        assert await service.unsubscribe("g", "p")

        # The latest snapshot (v2, republished in place) dropped the
        # pattern: present-time reads fail cleanly...
        with pytest.raises(ServiceError, match="no subscription 'p'"):
            service.matches("g", pattern_id="p")
        with pytest.raises(ServiceError, match="version 2"):
            service.matches("g", pattern_id="p", as_of=2)
        # ...but version 1 was retained with its SubscriptionState
        # frozen at publish time: time-travel reads still serve the
        # pattern exactly as it matched then, including top-k.
        assert service.matches("g", pattern_id="p", as_of=1) == frozen
        assert service.top_k("g", 2, pattern_id="p", as_of=1) == frozen_top
        assert "p" in service.snapshot("g", as_of=1).pattern_ids
        assert "p" not in service.snapshot("g").pattern_ids

        # The frozen state survives further settles while retained.
        await service.submit("g", {"inserts": [edge_spec("n2", "n6")]})
        await service.drain()
        assert service.matches("g", pattern_id="p", as_of=1) == frozen
        await service.close()

    run(scenario())


def test_reading_a_version_before_the_pattern_existed_is_a_clean_error():
    async def scenario():
        service = StreamingUpdateService(ServiceConfig(snapshot_history=8, **QUIET))
        await service.register("g", make_data())
        await service.submit("g", {"inserts": [edge_spec("n0", "n4")]})
        await service.drain()  # version 1, no subscriptions yet
        await service.submit("g", {"inserts": [edge_spec("n1", "n5")]})
        await service.drain()  # version 2
        # Subscribing republishes the *latest* version (2) with the new
        # pattern bound; version 1 predates it and must stay pristine.
        await service.subscribe("g", "late", make_pattern())

        assert service.matches("g", pattern_id="late")  # latest: bound
        assert "late" in service.snapshot("g", as_of=2).pattern_ids
        with pytest.raises(ServiceError, match="no subscription 'late' in snapshot version 1"):
            service.matches("g", pattern_id="late", as_of=1)
        with pytest.raises(ServiceError, match="version 1"):
            service.top_k("g", 2, pattern_id="late", as_of=1)
        await service.close()

    run(scenario())


def test_replayed_window_reproduces_subscription_fanout(tmp_path):
    # Record/replay as the equivalence oracle for the multi-pattern
    # fan-out: the journaled session replays — through a fresh service —
    # into exactly the per-subscription matches the live run published,
    # including the effect of the trailing unsubscribe control record.
    from repro.replay import ReplayLog, replay

    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        )
        await service.register("g", make_data())
        await service.subscribe("g", "ab", make_pattern("A", "B"), k=2)
        await service.subscribe("g", "bc", make_pattern("B", "C"))
        for payload in (
            {"inserts": [edge_spec("n0", "n4"), edge_spec("n1", "n5")]},
            {"deletes": [edge_spec("n0", "n4")]},
            {"inserts": [edge_spec("n2", "n6")]},
        ):
            receipt = await service.submit("g", payload)
            assert receipt.rejected == 0
            await service.drain()
        await service.unsubscribe("g", "bc")
        live = {
            pid: service.matches("g", pattern_id=pid)
            for pid in service.snapshot("g").pattern_ids
        }
        await service.close()

        window = ReplayLog(tmp_path / "g.journal.jsonl").window(
            base_graph=make_data()
        )
        result = await replay(window)
        replayed = result.final.as_of[0]
        assert sorted(replayed) == sorted(live) == ["ab"]
        for pid, expected in live.items():
            normalized = {
                str(u): sorted(str(v) for v in vs) for u, vs in expected.items()
            }
            assert {u: list(vs) for u, vs in replayed[pid].items()} == normalized

    run(scenario())
