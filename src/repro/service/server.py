"""A stdlib JSON-lines TCP front end for the streaming service.

One request per line, one JSON object per response line.  The protocol
is deliberately minimal — it exists so ``ua-gpnm serve`` can expose a
registered graph to external producers/consumers without any dependency
beyond the standard library:

.. code-block:: text

    -> {"op": "update", "graph": "g", "inserts": [...], "deletes": [...]}
    <- {"ok": true, "accepted": 2, "rejected": 0, "pending": 2, "cut": null}

    -> {"op": "matches", "graph": "g", "pattern_node": "p0"}
    <- {"ok": true, "matches": ["u3", "u7"]}

    -> {"op": "top-k", "graph": "g", "k": 3}
    <- {"ok": true, "top_k": {"p0": [{"node": "u3", "score": 0.91}, ...]}}

    -> {"op": "slen", "graph": "g", "source": "u1", "target": "u9"}
    <- {"ok": true, "distance": 3}            # null when unreachable

    -> {"op": "stats", "graph": "g"}          / {"op": "graphs"} / {"op": "ping"}
    <- {"ok": true, ...}

Reads are *pattern-addressed*: ``matches`` and ``top-k`` accept an
optional ``"pattern_id"`` naming one of the graph's standing patterns
(omitted, they resolve the standing pattern subscribed under
``"default"``).

``subscribe`` attaches a standing pattern — and this connection — to
the push channel; after every settle that changes the pattern's
matches (or its standing top-``k``), the server pushes one
``{"kind": "notify", ...}`` line, interleaved with regular responses:

    -> {"op": "subscribe", "graph": "g", "pattern_id": "fraud",
        "pattern": {"nodes": [...], "edges": [...]}, "k": 3}
    <- {"ok": true, "graph": "g", "pattern_id": "fraud", "version": 4}
    ...
    <- {"kind": "notify", "graph": "g", "pattern_id": "fraud",
        "version": 5, "added": {"p0": ["u9"]}, "removed": {}, "top_k": ...}

Omit ``"pattern"`` to attach to an already-subscribed pattern id
without (re)defining it.  ``unsubscribe`` detaches this connection;
with ``"drop": true`` it also removes the standing pattern from the
service (affecting every client):

    -> {"op": "unsubscribe", "graph": "g", "pattern_id": "fraud"}
    <- {"ok": true, "graph": "g", "pattern_id": "fraud",
        "detached": true, "dropped": false}

Failures come back as ``{"ok": false, "error": "..."}`` on the same
line; a malformed line never kills the connection.  ``update`` requests
ride the service's per-graph serialized queues, so two clients writing
to one graph are ordered exactly as their requests are read; read
requests answer from the last settled snapshot immediately.  Pushed
``notify`` lines and request responses are serialized per connection,
so lines never interleave mid-JSON.

Two protection mechanisms keep a slow consumer (of settles) or an idle
producer from degrading the whole server:

* **Overload** — an ``update`` for a graph whose backlog (unsettled
  deltas, whether buffered or in cut batches waiting for their settle,
  plus queued actions) is at ``max_pending`` is *refused* with
  ``{"ok": false, "error": "overloaded", "overloaded": true,
  "retry_after": s}`` instead of queueing without bound.  The client
  owns the retry; the server's memory stays bounded.
* **Idle timeout** — a connection that sends nothing for
  ``idle_timeout`` seconds gets a best-effort
  ``{"ok": false, "error": "idle timeout"}`` line and is closed, so
  abandoned sockets do not accumulate.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Optional

from repro.graph.io import pattern_graph_from_dict
from repro.service.delta import DeltaError
from repro.service.service import ServiceError, StreamingUpdateService
from repro.service.subscriptions import SubscriptionDelta
from repro.versioning import VersionExpiredError

#: Upper bound on one request line (protects the reader from unbounded
#: buffering on a misbehaving client).
MAX_LINE_BYTES: int = 1 << 20

#: Default cap on a graph's backlog before updates are refused.
DEFAULT_MAX_PENDING: int = 4096


class _Connection:
    """Per-connection state: the writer, its lock, and attached pushes.

    The lock serializes pushed ``notify`` lines with request responses
    on one socket; ``listeners`` maps ``(graph, pattern_id)`` to the
    service-side detach token so the connection's push attachments are
    cleaned up on disconnect.
    """

    __slots__ = ("writer", "lock", "listeners")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.listeners: dict[tuple[str, str], int] = {}


class ServiceServer:
    """Serve a :class:`StreamingUpdateService` over JSON lines on TCP."""

    def __init__(
        self,
        service: StreamingUpdateService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        idle_timeout: Optional[float] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive when set")
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.idle_timeout = idle_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.StreamWriter] = set()
        #: Observability for tests and operators.
        self.overload_rejections = 0
        self.idle_closes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        Port ``0`` binds an ephemeral port (the tests' idiom); the bound
        port is reflected into :attr:`port`.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def close(self) -> None:
        """Stop accepting, close the listener and every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        for writer in list(self._connections):
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        self._connections.clear()

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI entry point's mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        connection = _Connection(writer)
        try:
            while True:
                try:
                    if self.idle_timeout is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), self.idle_timeout
                        )
                    else:
                        line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._reply(connection, {"ok": False, "error": "request line too long"})
                    break
                except asyncio.TimeoutError:
                    self.idle_closes += 1
                    try:
                        await self._reply(
                            connection,
                            {"ok": False, "error": "idle timeout", "idle_timeout": True},
                        )
                    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                        pass
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                response = await self._dispatch(text, connection)
                await self._reply(connection, response)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._detach_connection(connection)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def _detach_connection(self, connection: _Connection) -> None:
        """Drop every push attachment the connection holds."""
        for (key, pattern_id), token in connection.listeners.items():
            self.service.detach_listener(key, pattern_id, token)
        connection.listeners.clear()

    @staticmethod
    async def _reply(connection: _Connection, response: dict) -> None:
        async with connection.lock:
            connection.writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await connection.writer.drain()

    def _push_listener(self, connection: _Connection) -> "callable":
        """A service push listener that writes ``notify`` lines here.

        The service calls listeners synchronously on the event loop and
        requires them not to block, so the actual socket write happens
        in a spawned task (serialized with responses by the
        connection's lock).
        """

        def listener(delta: SubscriptionDelta) -> None:
            asyncio.get_running_loop().create_task(
                self._push(connection, delta.to_doc())
            )

        return listener

    async def _push(self, connection: _Connection, doc: dict) -> None:
        try:
            await self._reply(connection, doc)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def _dispatch(self, text: str, connection: _Connection) -> dict:
        try:
            request = json.loads(text)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"invalid JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            known = ", ".join(sorted(self._HANDLERS))
            return {"ok": False, "error": f"unknown op {op!r}; expected one of: {known}"}
        try:
            return await handler(self, request, connection)
        except VersionExpiredError as exc:
            # Time-travel reads outside the retained window fail loudly
            # and distinguishably: clients asked for history the server
            # no longer (or does not yet) holds, never a wrong answer.
            return {"ok": False, "error": str(exc), "expired": True}
        except (DeltaError, ServiceError, ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "error": str(exc)}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _graph_key(self, request: dict) -> str:
        key = request.get("graph")
        if not isinstance(key, str):
            raise ServiceError("request needs a 'graph' key naming the graph")
        return key

    @staticmethod
    def _as_of(request: dict) -> "Optional[int]":
        """The optional ``as_of`` snapshot version of a read request."""
        as_of = request.get("as_of")
        if as_of is None:
            return None
        if isinstance(as_of, bool) or not isinstance(as_of, int):
            raise ServiceError("'as_of' must be an integer snapshot version")
        return as_of

    @staticmethod
    def _pattern_id(request: dict, *, required: bool = False) -> "Optional[str]":
        """The optional (or required) ``pattern_id`` of a request."""
        pattern_id = request.get("pattern_id")
        if pattern_id is None:
            if required:
                raise ServiceError("request needs a 'pattern_id' key")
            return None
        if not isinstance(pattern_id, str) or not pattern_id:
            raise ServiceError("'pattern_id' must be a non-empty string")
        return pattern_id

    async def _op_update(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        if self.service.backlog(key) >= self.max_pending:
            # Refuse rather than queue without bound: the client owns
            # the retry, the server's memory stays bounded.  The hint is
            # one deadline period — by then the buffered batch has cut.
            self.overload_rejections += 1
            return {
                "ok": False,
                "error": "overloaded",
                "overloaded": True,
                "retry_after": max(self.service.config.deadline_seconds, 0.05),
            }
        receipt = await self.service.submit(key, request)
        return {
            "ok": True,
            "accepted": receipt.accepted,
            "rejected": receipt.rejected,
            "pending": receipt.pending,
            "cut": receipt.cut,
            "errors": list(receipt.errors),
        }

    async def _op_matches(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        as_of = self._as_of(request)
        pattern_id = self._pattern_id(request)
        pattern_node = request.get("pattern_node")
        if pattern_node is not None:
            matched = self.service.matches(
                key, pattern_node, as_of=as_of, pattern_id=pattern_id
            )
            return {"ok": True, "matches": sorted(str(node) for node in matched)}
        all_matches = self.service.matches(key, as_of=as_of, pattern_id=pattern_id)
        return {
            "ok": True,
            "matches": {
                str(p): sorted(str(node) for node in nodes)
                for p, nodes in all_matches.items()
            },
        }

    async def _op_top_k(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        k = int(request.get("k", 10))
        ranked = self.service.top_k(
            key,
            k,
            pattern_node=request.get("pattern_node"),
            as_of=self._as_of(request),
            pattern_id=self._pattern_id(request),
        )
        return {
            "ok": True,
            "top_k": {
                str(p): [
                    {"node": str(match.data_node), "score": match.score}
                    for match in matches
                ]
                for p, matches in ranked.items()
            },
        }

    async def _op_subscribe(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        pattern_id = self._pattern_id(request, required=True)
        pattern_doc = request.get("pattern")
        if pattern_doc is not None:
            k = request.get("k")
            if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
                raise ServiceError("'k' must be a positive integer when given")
            await self.service.subscribe(
                key,
                pattern_id,
                pattern_graph_from_dict(pattern_doc),
                k=k,
                replace=bool(request.get("replace", False)),
            )
        if (key, pattern_id) not in connection.listeners:
            token = self.service.attach_listener(
                key, pattern_id, self._push_listener(connection)
            )
            connection.listeners[(key, pattern_id)] = token
        return {
            "ok": True,
            "graph": key,
            "pattern_id": pattern_id,
            "version": self.service.snapshot(key).version,
        }

    async def _op_unsubscribe(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        pattern_id = self._pattern_id(request, required=True)
        token = connection.listeners.pop((key, pattern_id), None)
        detached = False
        if token is not None:
            detached = self.service.detach_listener(key, pattern_id, token)
        dropped = False
        if request.get("drop"):
            dropped = await self.service.unsubscribe(key, pattern_id)
        return {
            "ok": True,
            "graph": key,
            "pattern_id": pattern_id,
            "detached": detached,
            "dropped": dropped,
        }

    async def _op_slen(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        distance = self.service.slen_distance(
            key, request["source"], request["target"], as_of=self._as_of(request)
        )
        finite = not (isinstance(distance, float) and math.isinf(distance))
        return {"ok": True, "distance": int(distance) if finite else None}

    async def _op_stats(self, request: dict, connection: _Connection) -> dict:
        key = self._graph_key(request)
        return {"ok": True, **self.service.stats(key)}

    async def _op_graphs(self, request: dict, connection: _Connection) -> dict:
        return {"ok": True, "graphs": list(self.service.graphs)}

    async def _op_ping(self, request: dict, connection: _Connection) -> dict:
        return {"ok": True, "pong": True}

    _HANDLERS = {
        "update": _op_update,
        "matches": _op_matches,
        "top-k": _op_top_k,
        "subscribe": _op_subscribe,
        "unsubscribe": _op_unsubscribe,
        "slen": _op_slen,
        "stats": _op_stats,
        "graphs": _op_graphs,
        "ping": _op_ping,
    }
