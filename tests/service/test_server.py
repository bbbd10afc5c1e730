"""JSON-lines TCP server round trips against a live service."""

import asyncio
import json

from repro.graph import DataGraph, PatternGraph
from repro.service import ServiceConfig, ServiceServer, StreamingUpdateService

from tests.conftest import register_default


def make_data() -> DataGraph:
    data = DataGraph()
    for i in range(6):
        data.add_node(f"n{i}", "A" if i % 2 == 0 else "B")
    for i in range(6):
        data.add_edge(f"n{i}", f"n{(i + 1) % 6}")
    data.add_node("island", "A")  # unreachable from the ring
    return data


def make_pattern() -> PatternGraph:
    pattern = PatternGraph()
    pattern.add_node("p0", "A")
    pattern.add_node("p1", "B")
    pattern.add_edge("p0", "p1", 2)
    return pattern


class Client:
    """One JSON-lines connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def call(self, request: dict) -> dict:
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), timeout=10)
        return json.loads(line)

    async def send_raw(self, raw: bytes) -> dict:
        self.writer.write(raw)
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), timeout=10)
        return json.loads(line)

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


def test_server_round_trip():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=0.0, max_buffer=10_000, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        server = ServiceServer(service, port=0)
        host, port = await server.start()
        assert port != 0  # ephemeral port was bound and reflected

        reader, writer = await asyncio.open_connection(host, port)
        client = Client(reader, writer)

        assert await client.call({"op": "ping"}) == {"ok": True, "pong": True}
        assert (await client.call({"op": "graphs"}))["graphs"] == ["g"]

        update = await client.call(
            {
                "op": "update",
                "graph": "g",
                "inserts": [{"type": "edge", "source": "n0", "target": "n2"}],
            }
        )
        assert update["ok"] and update["accepted"] == 1
        assert update["cut"] == "deadline"  # zero deadline cuts every payload
        await service.drain()

        stats = await client.call({"op": "stats", "graph": "g"})
        assert stats["ok"] and stats["settled"] == 1

        slen = await client.call(
            {"op": "slen", "graph": "g", "source": "n0", "target": "n2"}
        )
        assert slen == {"ok": True, "distance": 1}
        unreachable = await client.call(
            {"op": "slen", "graph": "g", "source": "n0", "target": "island"}
        )
        assert unreachable == {"ok": True, "distance": None}
        unknown_node = await client.call(
            {"op": "slen", "graph": "g", "source": "n0", "target": "missing"}
        )
        assert unknown_node["ok"] is False

        matches = await client.call({"op": "matches", "graph": "g"})
        assert matches["ok"] and set(matches["matches"]) == {"p0", "p1"}

        one = await client.call(
            {"op": "matches", "graph": "g", "pattern_node": "p0"}
        )
        assert one["ok"] and isinstance(one["matches"], list)

        ranked = await client.call({"op": "top-k", "graph": "g", "k": 2})
        assert ranked["ok"] and set(ranked["top_k"]) == {"p0", "p1"}
        for entries in ranked["top_k"].values():
            assert len(entries) <= 2
            for entry in entries:
                assert set(entry) == {"node", "score"}

        await client.close()
        await server.close()
        await service.close()

    asyncio.run(scenario())


def test_server_error_paths_keep_the_connection_alive():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        server = ServiceServer(service, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        client = Client(reader, writer)

        bad_json = await client.send_raw(b"{nope\n")
        assert bad_json["ok"] is False and "invalid JSON" in bad_json["error"]

        not_object = await client.send_raw(b"[1, 2]\n")
        assert not_object["ok"] is False

        unknown_op = await client.call({"op": "mystery"})
        assert unknown_op["ok"] is False and "unknown op" in unknown_op["error"]

        missing_graph = await client.call({"op": "stats"})
        assert missing_graph["ok"] is False

        unknown_graph = await client.call({"op": "stats", "graph": "nope"})
        assert unknown_graph["ok"] is False and "unknown graph" in unknown_graph["error"]

        bad_delta = await client.call(
            {"op": "update", "graph": "g", "inserts": [{"type": "mystery"}]}
        )
        assert bad_delta["ok"] is False

        # The connection survived all of it.
        assert await client.call({"op": "ping"}) == {"ok": True, "pong": True}

        await client.close()
        await server.close()
        await service.close()

    asyncio.run(scenario())


def test_server_refuses_updates_when_overloaded():
    async def scenario():
        # Quiet config: accepted deltas pile up in the buffer, so the
        # backlog grows by one per update and the cap is easy to hit.
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        server = ServiceServer(service, port=0, max_pending=2)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        client = Client(reader, writer)

        def update(source, target):
            return {
                "op": "update",
                "graph": "g",
                "inserts": [{"type": "edge", "source": source, "target": target}],
            }

        assert (await client.call(update("n0", "n2")))["ok"]
        assert (await client.call(update("n0", "n3")))["ok"]
        refused = await client.call(update("n1", "n4"))
        assert refused["ok"] is False
        assert refused["error"] == "overloaded"
        assert refused["overloaded"] is True
        assert refused["retry_after"] > 0
        assert server.overload_rejections == 1
        # Reads are never refused — the graph still answers.
        assert (await client.call({"op": "stats", "graph": "g"}))["ok"]

        # Once the backlog settles, updates are accepted again — the
        # retry_after contract.
        await service.drain()
        accepted = await client.call(update("n1", "n4"))
        assert accepted["ok"] and accepted["accepted"] == 1

        await client.close()
        await server.close()
        await service.close()

    asyncio.run(scenario())


def test_server_counts_deltas_in_merged_cut_batches_as_backlog():
    async def scenario():
        # Zero deadline: every 2-delta payload is its own cut batch.
        # The first settle blocks until released, so the three cut
        # batches it merged stay unsettled while the client pipelines.
        import threading

        from repro.service.service import default_algorithm_factory

        settle_started = asyncio.Event()
        release_settle = threading.Event()
        loop = asyncio.get_running_loop()

        def gated_factory(data, config):
            algorithm = default_algorithm_factory(data, config)
            inner = algorithm.subsequent_query

            def gated(batch):
                loop.call_soon_threadsafe(settle_started.set)
                release_settle.wait(timeout=10)
                return inner(batch)

            algorithm.subsequent_query = gated
            return algorithm

        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=0.0, max_buffer=10_000, coalesce_min_batch=10_000),
            algorithm_factory=gated_factory,
        )
        await service.register("g", make_data())
        await service.subscribe("g", "default", make_pattern())
        # Below the six unsettled deltas, above the one settle action
        # that carries them.
        server = ServiceServer(service, port=0, max_pending=4)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        client = Client(reader, writer)

        pairs = [("n0", "n2"), ("n0", "n3"), ("n1", "n3"), ("n1", "n4"), ("n2", "n4"), ("n2", "n5")]
        try:
            cuts = [
                service.submit_nowait(
                    "g",
                    {"inserts": [{"type": "edge", "source": s, "target": t} for s, t in pair]},
                )
                for pair in (pairs[0:2], pairs[2:4], pairs[4:6])
            ]
            await asyncio.wait_for(settle_started.wait(), timeout=10)
            assert all(receipt.result().cut == "deadline" for receipt in cuts)
            assert service.backlog("g") >= 6

            # Pipeline cut-sized updates without waiting for replies.
            probes = [("n3", "n5"), ("n3", "n0"), ("n4", "n0")]
            for source, target in probes:
                writer.write(
                    json.dumps(
                        {
                            "op": "update",
                            "graph": "g",
                            "inserts": [{"type": "edge", "source": source, "target": target}],
                        }
                    ).encode()
                    + b"\n"
                )
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), timeout=2)) for _ in probes
            ]
            assert [reply.get("overloaded") for reply in replies] == [True] * len(probes)
            assert server.overload_rejections == len(probes)

            release_settle.set()
            await service.drain()
            stats = await client.call({"op": "stats", "graph": "g"})
            assert stats["merged_cuts"] == 2
            assert stats["settles"] == 1
            assert service.backlog("g") == 0
            accepted = await client.call(
                {
                    "op": "update",
                    "graph": "g",
                    "inserts": [{"type": "edge", "source": "n3", "target": "n5"}],
                }
            )
            assert accepted["ok"] and accepted["accepted"] == 1
        finally:
            # Unblock and stop everything even when an assertion failed,
            # so a failure reports instead of hanging the event loop.
            release_settle.set()
            await client.close()
            await server.close()
            await service.close()

    asyncio.run(scenario())


def test_server_closes_idle_connections():
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)
        )
        await register_default(service, "g", make_pattern(), make_data())
        server = ServiceServer(service, port=0, idle_timeout=0.1)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        client = Client(reader, writer)

        # An active connection is not cut off...
        assert await client.call({"op": "ping"}) == {"ok": True, "pong": True}
        # ...but one that goes quiet is told why and closed.
        line = await asyncio.wait_for(reader.readline(), timeout=5)
        notice = json.loads(line)
        assert notice["ok"] is False and notice["idle_timeout"] is True
        assert await asyncio.wait_for(reader.readline(), timeout=5) == b""  # EOF
        assert server.idle_closes == 1

        await client.close()
        await server.close()
        await service.close()

    asyncio.run(scenario())


def test_server_time_travel_reads_respect_subscription_lifetimes():
    async def scenario():
        from repro.graph.io import pattern_graph_to_dict

        service = StreamingUpdateService(
            ServiceConfig(
                deadline_seconds=30.0,
                max_buffer=10_000,
                coalesce_min_batch=10_000,
                snapshot_history=8,
            )
        )
        await service.register("g", make_data())
        server = ServiceServer(service, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        client = Client(reader, writer)

        subscribed = await client.call(
            {
                "op": "subscribe",
                "graph": "g",
                "pattern_id": "p",
                "pattern": pattern_graph_to_dict(make_pattern()),
            }
        )
        assert subscribed["ok"]

        async def settle(source, target):
            response = await client.call(
                {
                    "op": "update",
                    "graph": "g",
                    "inserts": [{"type": "edge", "source": source, "target": target}],
                }
            )
            assert response["ok"]
            await service.drain()

        await settle("n0", "n2")  # version 1 carries "p"
        at_v1 = await client.call(
            {"op": "matches", "graph": "g", "pattern_id": "p"}
        )
        assert at_v1["ok"]
        await settle("n0", "n3")  # version 2

        dropped = await client.call(
            {"op": "unsubscribe", "graph": "g", "pattern_id": "p", "drop": True}
        )
        assert dropped["ok"] and dropped["dropped"]

        # Present-time read of the dropped pattern: clean error, the
        # connection survives.
        now = await client.call({"op": "matches", "graph": "g", "pattern_id": "p"})
        assert now["ok"] is False and "no subscription 'p'" in now["error"]
        # Time travel to the retained version still serves the frozen
        # state over the wire.
        then = await client.call(
            {"op": "matches", "graph": "g", "pattern_id": "p", "as_of": 1}
        )
        assert then["ok"] and then["matches"] == at_v1["matches"]

        # A pattern subscribed late is absent from versions that
        # predate it: clean error naming the version, not a stale read.
        late = await client.call(
            {
                "op": "subscribe",
                "graph": "g",
                "pattern_id": "late",
                "pattern": pattern_graph_to_dict(make_pattern()),
            }
        )
        assert late["ok"]
        early = await client.call(
            {"op": "matches", "graph": "g", "pattern_id": "late", "as_of": 1}
        )
        assert early["ok"] is False
        assert "no subscription 'late' in snapshot version 1" in early["error"]
        # The connection took every error in stride.
        assert await client.call({"op": "ping"}) == {"ok": True, "pong": True}

        await client.close()
        await server.close()
        await service.close()

    asyncio.run(scenario())
