"""serve_subs: what a TCP client of ``ua-gpnm serve`` sees, as an open loop.

The server runs in its own process (``server.py``): default
``ServiceConfig()``, no journal, one graph carrying ``PATTERNS`` standing
patterns over overlapping label sets, each with a standing top-k.  This
process is only the load generator, so a slow server never slows the
schedule it is measured against.  It opens two connections:

* the *producer* sends one small edge-toggle payload per scheduled slot
  at ``UPDATE_RATE`` payloads/s and times each receipt from the slot's
  scheduled time.  On a shared 2-vCPU host batches stay deadline-cut up
  to about 500 updates/s and the backlog grows only past about 1000/s
  (where crossover cuts coalesce).  150/s keeps the server well inside
  the deadline-cut regime even when the host runs at half speed: nearer
  capacity, queueing turns every host slowdown into a much larger
  latency swing;
* the *reader* subscribes the patterns (so it also receives the push
  notifications), then sends ``matches``/``top-k``/``slen`` reads on its
  own schedule and polls ``stats`` at ``POLL_RATE``; a payload is fresh
  at the first poll whose ``settled`` count covers its cumulative
  position.

At this rate the buffer never reaches the planner's crossover, so every
batch is cut by the deadline timer and settles on the per-update route:
per-settle fixed costs dominate (per-pattern amend or label skip,
fork/publish, standing top-k recomputation, push, JSON on the wire) and
coalesced SLen maintenance is bypassed.

A run is invalid — it fails instead of reporting — when the generator
fell behind its schedule or the backlog grew over the window.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    WORK_DIR,
    RunResult,
    freshness,
    graph_sizes,
    percentile,
    process_cpu_seconds,
    process_peak_rss_mb,
    samples_beyond,
    stationarity_problems,
)
import inputs

GRAPH_KEY = "bench"
NODES = 60
EDGES = 360
PATTERNS = 8
PATTERN_NODES = 4
PATTERN_EDGES = 4
TOP_K = 3
#: Toggled pairs (half present at the start) and toggles per payload.
PAIRS = 480
TOGGLES_PER_PAYLOAD = 1
#: Offered load: update payloads, reads and stats polls per second.
UPDATE_RATE = 150.0
READ_RATE = 120.0
POLL_RATE = 50.0
#: Read mix (cumulative shares): matches, then top-k, then slen.
READ_MIX = (("matches", 0.4), ("top-k", 0.7), ("slen", 1.0))
#: Load offered before the measured window starts (not measured).
WARMUP_S = 2.0
#: Extra server spawns timed before and after the measured server's;
#: ``setup_s`` is the median of all of them, so the figure samples the
#: host at both ends of the run instead of at one moment.
SPARE_SPAWNS = 2
#: Validity limits: generator lag p99, and backlog growth over the
#: window (median of the last quarter minus median of the first quarter)
#: in updates.  One second of offered updates is well above the
#: deadline-cut batch a keeping-up server holds.
LAG_LIMIT_MS = 50.0
BACKLOG_GROWTH_LIMIT = UPDATE_RATE * TOGGLES_PER_PAYLOAD
#: Seconds to wait for the server to start or stop, for the backlog to
#: settle, and for any one awaited response.
SPAWN_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class Channel:
    """One JSON-lines connection with pipelined, FIFO-matched requests.

    ``send`` never waits for the reply; a background task reads lines,
    counts push notifications and hands every response, with its
    scheduled and received times, to ``on_response``.
    """

    def __init__(self, reader, writer, on_response) -> None:
        self.reader = reader
        self.writer = writer
        self.on_response = on_response
        self.pending = collections.deque()
        self.pushes = 0
        self.sent = 0
        self.task = asyncio.create_task(self._receive())

    def send(self, doc: dict, kind: str, scheduled: float) -> None:
        self.pending.append((kind, scheduled))
        self.writer.write(json.dumps(doc).encode("utf-8") + b"\n")
        self.sent += 1

    async def request(self, doc: dict) -> dict:
        """Send and wait (bounded) for this request's own response."""
        future = asyncio.get_running_loop().create_future()
        self.send(doc, "call", future)
        return await asyncio.wait_for(future, REQUEST_TIMEOUT_S)

    async def _receive(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = time.perf_counter()
            doc = json.loads(line)
            if doc.get("kind") == "notify":
                self.pushes += 1
                continue
            kind, scheduled = self.pending.popleft()
            if kind == "call":
                scheduled.set_result(doc)
            else:
                self.on_response(kind, scheduled, received, doc)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


async def sleep_until(moment: float) -> None:
    delay = moment - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


class Server:
    """One spawned ``server.py`` process."""

    def __init__(self, process, port: int) -> None:
        self.process = process
        self.port = port

    @classmethod
    async def spawn(cls, graph_file: Path, trace_out: Path | None = None) -> "Server":
        command = [sys.executable, str(Path(__file__).with_name("server.py")),
                   "--graph", str(graph_file), "--key", GRAPH_KEY]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        process = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stdin=asyncio.subprocess.DEVNULL
        )
        try:
            line = await asyncio.wait_for(process.stdout.readline(), SPAWN_TIMEOUT_S)
        except asyncio.TimeoutError:
            line = b""
        if not line.startswith(b"READY "):
            await cls(process, 0).stop()
            raise RuntimeError(f"server did not start (said {line!r})")
        return cls(process, int(line.split()[1]))

    async def connect(self, on_response) -> Channel:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port, limit=1 << 24)
        return Channel(reader, writer, on_response)

    async def stop(self) -> int:
        """SIGTERM, wait; SIGKILL if it does not exit in time."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.process.wait(), SPAWN_TIMEOUT_S)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
        return self.process.returncode


def subscribe_doc(pattern_id: str, pattern) -> dict:
    from repro.graph.io import pattern_graph_to_dict

    return {"op": "subscribe", "graph": GRAPH_KEY, "pattern_id": pattern_id,
            "pattern": pattern_graph_to_dict(pattern), "k": TOP_K}


def read_requests(seed: int, data, pattern_ids: list[str], count: int) -> list[dict]:
    import random

    rng = random.Random(inputs.derive_seed(seed, "reads"))
    nodes = sorted(data.nodes())
    requests = []
    for _ in range(count):
        roll = rng.random()
        op = next(name for name, share in READ_MIX if roll < share)
        if op == "slen":
            source, target = rng.sample(nodes, 2)
            requests.append({"op": "slen", "graph": GRAPH_KEY, "source": source, "target": target})
        else:
            doc = {"op": op, "graph": GRAPH_KEY, "pattern_id": rng.choice(pattern_ids)}
            if op == "top-k":
                doc["k"] = TOP_K
            requests.append(doc)
    return requests


@dataclass
class Inputs:
    """Everything a run sends, generated from the seed before timing."""

    data: object
    patterns: list
    pattern_ids: list
    payloads: list
    reads: list
    update_offsets: tuple
    read_offsets: tuple
    poll_offsets: tuple
    final_graph: object
    positions: list

    @classmethod
    def generate(cls, seed: int, seconds: float) -> "Inputs":
        data = inputs.social_graph(seed, NODES, EDGES)
        patterns = inputs.overlapping_patterns(seed, data, PATTERNS, PATTERN_NODES, PATTERN_EDGES)
        pattern_ids = [f"p{index}" for index in range(PATTERNS)]
        span = WARMUP_S + seconds
        update_offsets = inputs.open_loop_schedule(seed, "updates", UPDATE_RATE, span)
        read_offsets = inputs.open_loop_schedule(seed, "reads", READ_RATE, span)
        pairs = inputs.toggle_pairs(data, seed, PAIRS)
        payloads = inputs.toggle_payloads(
            data, pairs, seed, len(update_offsets), TOGGLES_PER_PAYLOAD, "serve"
        )
        positions = []
        total = 0
        for payload in payloads:
            total += len(payload["inserts"]) + len(payload["deletes"])
            positions.append(total)
        return cls(
            data=data,
            patterns=patterns,
            pattern_ids=pattern_ids,
            payloads=payloads,
            reads=read_requests(seed, data, pattern_ids, len(read_offsets)),
            update_offsets=update_offsets,
            read_offsets=read_offsets,
            poll_offsets=inputs.open_loop_schedule(seed, "polls", POLL_RATE, span),
            final_graph=inputs.apply_payloads(data, payloads),
            positions=positions,
        )


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.graph.io import data_graph_to_dict

    result = RunResult()
    inp = Inputs.generate(seed, seconds)
    work = WORK_DIR / f"serve_subs-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    graph_file = work / "graph.json"
    graph_file.write_text(json.dumps(data_graph_to_dict(inp.data)), encoding="utf-8")
    trace_file = WORK_DIR / f"spans-serve_subs-{seed}.json" if trace else None
    if trace_file is not None:
        trace_file.unlink(missing_ok=True)

    setups = []

    async def set_up(trace_out=None):
        """Spawn a server and subscribe every pattern; timed."""
        started = time.perf_counter()
        server = await Server.spawn(graph_file, trace_out)
        try:
            channel = await server.connect(lambda *args: None)
            acks = await asyncio.gather(
                *(
                    channel.request(subscribe_doc(pid, pattern))
                    for pid, pattern in zip(inp.pattern_ids, inp.patterns)
                )
            )
        except BaseException:
            await server.stop()
            raise
        setups.append(time.perf_counter() - started)
        result.attempted += len(acks)
        refused = [ack for ack in acks if not ack.get("ok")]
        result.failed += len(refused)
        result.check(not refused, f"subscribe refused: {refused[:1]}")
        return server, channel

    async def spare_set_up():
        server, channel = await set_up()
        await channel.close()
        result.check(await server.stop() == 0, "spare server did not exit cleanly")

    for _ in range(SPARE_SPAWNS):
        await spare_set_up()
    server, channel = await set_up(trace_file)
    try:
        load = await _load(server, channel, inp, result, seconds, trace)
    finally:
        code = await server.stop()
        result.check(code == 0, f"server exited with {code}")
    for _ in range(SPARE_SPAWNS):
        await spare_set_up()
    result.diagnostics["setups_s"] = setups
    result.diagnostics["graph"] = {"start": graph_sizes(inp.data), "end": graph_sizes(inp.final_graph)}
    result.diagnostics["offered"] = {
        "update_payloads_per_s": UPDATE_RATE,
        "toggles_per_payload": TOGGLES_PER_PAYLOAD,
        "reads_per_s": READ_RATE,
        "polls_per_s": POLL_RATE,
        "patterns": PATTERNS,
        "updates": inp.positions[-1],
    }
    result.problems.extend(stationarity_problems(graph_sizes(inp.data), graph_sizes(inp.final_graph)))
    if trace:
        _trace_metrics(result, load, trace_file)
    else:
        result.metric("setup_s", statistics.median(setups), "s")
        for name, (value, unit) in load["metrics"].items():
            result.metric(name, value, unit)
    shutil.rmtree(work, ignore_errors=True)
    return result


async def _load(server, reader: Channel, inp: Inputs, result: RunResult, seconds, trace) -> dict:
    """Offer the scheduled load, drain, check, and compute the metrics."""
    from repro.matching import gpnm_query

    acks, reads, polls, refusals = [], [], [], []

    def on_update(kind, scheduled, received, doc):
        if doc.get("ok") and not doc.get("rejected"):
            acks.append((scheduled, received))
        else:
            refusals.append(doc)

    def on_read(kind, scheduled, received, doc):
        if not doc.get("ok"):
            refusals.append(doc)
        elif kind == "poll":
            polls.append(
                (received, doc["settled"], doc["accepted"], doc["settle_seconds"], doc["settles"],
                 process_cpu_seconds(server.process.pid))
            )
        else:
            reads.append((scheduled, received))

    reader.on_response = on_read
    subscribes = reader.sent  # already counted by the set-up
    producer = await server.connect(on_update)
    stats_request = {"op": "stats", "graph": GRAPH_KEY}
    start = time.perf_counter() + 0.1
    window = (start + WARMUP_S, start + WARMUP_S + seconds)
    lags = []
    sent_at = []

    async def produce():
        for offset, payload in zip(inp.update_offsets, inp.payloads):
            moment = start + offset
            await sleep_until(moment)
            producer.send({"op": "update", "graph": GRAPH_KEY, **payload}, "update", moment)
            sent_at.append(time.perf_counter())
            lags.append((moment, sent_at[-1] - moment))

    async def consume():
        merged = sorted(
            [(offset, "read", doc) for offset, doc in zip(inp.read_offsets, inp.reads)]
            + [(offset, "poll", stats_request) for offset in inp.poll_offsets],
            key=lambda item: item[0],
        )
        for offset, kind, doc in merged:
            moment = start + offset
            await sleep_until(moment)
            reader.send(doc, kind, moment)
            lags.append((moment, time.perf_counter() - moment))

    if trace:
        # Spans are recorded over the second half of the window only; the
        # first half, untraced, is the overhead baseline.
        midpoint = (window[0] + window[1]) / 2
        asyncio.get_running_loop().call_later(
            midpoint - time.perf_counter(), server.process.send_signal, signal.SIGUSR1
        )
    await asyncio.gather(produce(), consume())

    # Drain: keep polling until every offered update has settled.
    total = inp.positions[-1]
    drain_deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while time.perf_counter() < drain_deadline:
        await asyncio.sleep(1.0 / POLL_RATE)
        reader.send(stats_request, "poll", time.perf_counter())
        if polls and polls[-1][1] >= total and not producer.pending:
            break
    final = await reader.request(stats_request)
    matches = {pid: await reader.request({"op": "matches", "graph": GRAPH_KEY, "pattern_id": pid})
               for pid in inp.pattern_ids}
    peak = process_peak_rss_mb(server.process.pid)
    pushes = reader.pushes
    await producer.close()
    await reader.close()

    result.attempted += producer.sent + reader.sent - subscribes
    result.failed += len(refusals) + len(producer.pending) + len(reader.pending)
    result.check(not refusals, f"{len(refusals)} refused or failed requests, e.g. {refusals[:1]}")
    result.check(final["accepted"] == total, f"accepted {final['accepted']} of {total} updates")
    result.check(final["rejected"] == 0, f"{final['rejected']} updates rejected")
    result.check(final["settled"] == final["accepted"], "settled != accepted after drain")
    for counter in ("settle_failures", "settle_retries", "quarantined", "queue_errors"):
        result.failed += final[counter]
        result.check(final[counter] == 0, f"{counter} = {final[counter]}")
    for pid, pattern in zip(inp.pattern_ids, inp.patterns):
        expected = gpnm_query(pattern, inp.final_graph).as_dict()
        expected = {str(u): sorted(str(v) for v in nodes) for u, nodes in expected.items()}
        result.check(matches[pid].get("matches") == expected, f"pattern {pid}: matches differ from the oracle")

    def in_window(moment, begin=window[0], end=window[1]):
        return begin <= moment < end

    payload_times = [start + offset for offset in inp.update_offsets]
    fresh = [
        sample
        for scheduled, sample in zip(
            payload_times, freshness(payload_times, inp.positions, [(p[0], p[1]) for p in polls])
        )
        if in_window(scheduled)
    ]
    lag_ms = [lag * 1e3 for moment, lag in lags if in_window(moment)]
    # Backlog: updates this process had sent by the time a poll answered,
    # minus the updates settled by then.  It counts updates still queued
    # in the socket or the server's ingest queue, not just the buffer.
    backlog = [
        (received, (inp.positions[sent - 1] if sent else 0) - settled)
        for received, settled, *_ in polls
        if in_window(received)
        for sent in (bisect.bisect_right(sent_at, received),)
    ]
    quarter = max(1, len(backlog) // 4)
    growth = (
        statistics.median(b for _, b in backlog[-quarter:])
        - statistics.median(b for _, b in backlog[:quarter])
        if backlog else 0
    )
    lag_p99 = percentile(lag_ms, 0.99) if lag_ms else 0.0
    result.check(lag_p99 <= LAG_LIMIT_MS, f"invalid run: generator lag p99 {lag_p99:.1f} ms > {LAG_LIMIT_MS} ms")
    result.check(
        growth <= BACKLOG_GROWTH_LIMIT,
        f"invalid run: backlog grew by {growth} updates over the window (limit {BACKLOG_GROWTH_LIMIT})",
    )
    window_polls = [poll for poll in polls if in_window(poll[0])]
    busy = window_polls[-1][5] - window_polls[0][5] if len(window_polls) > 1 else 0.0
    result.check(bool(fresh) and busy > 0, "no samples in the measured window")

    def client(begin, end) -> dict:
        """Receipt and read latency percentiles for requests due in [begin, end)."""
        ack_ms = [(r - s) * 1e3 for s, r in acks if in_window(s, begin, end)]
        read_ms = [(r - s) * 1e3 for s, r in reads if in_window(s, begin, end)]
        if not (ack_ms and read_ms):
            return {}
        return {
            "client.ack_p50_ms": percentile(ack_ms, 0.5),
            "client.ack_p99_ms": percentile(ack_ms, 0.99),
            "client.read_p50_ms": percentile(read_ms, 0.5),
            "client.read_p99_ms": percentile(read_ms, 0.99),
            "samples": {"acks": len(ack_ms), "reads": len(read_ms)},
        }

    # A traced run records spans over the second half of the window only,
    # so its client latencies come from the untraced first half.
    client_window = (window[0], (window[0] + window[1]) / 2) if trace else window
    client_latency = client(*client_window)
    result.diagnostics.update(
        {
            "samples": {"freshness": len(fresh), "polls": len(polls), "pushes": pushes},
            "freshness_p95_tail_samples": samples_beyond(len(fresh), 0.95),
            "client": client_latency,
            "gen_lag_p99_ms": lag_p99,
            "backlog_growth": growth,
            "backlog_max": max((b for _, b in backlog), default=0),
            "cut_reasons": final["cut_reasons"],
            "settles": final["settles"],
        }
    )
    metrics = {}
    if fresh and busy > 0:
        metrics = {
            "freshness_p50_ms": (percentile(fresh, 0.5) * 1e3, "ms"),
            "freshness_p95_ms": (percentile(fresh, 0.95) * 1e3, "ms"),
            # Settled updates per second of server CPU time (all threads,
            # from /proc): what the server's work costs per update at the
            # batch sizes this load produces, not the offered rate (which
            # the open loop fixes).  Its settle wall time would also
            # count waits for the interpreter lock held by read handling.
            "updates_per_s": ((window_polls[-1][1] - window_polls[0][1]) / busy, "1/s"),
            "peak_rss_mb": (peak if peak is not None else 0.0, "MB"),
        }
    return {
        "metrics": metrics,
        "client": client_latency,
        "final": final,
        "polls": polls,
        "window": window,
        "lag_p99_ms": lag_p99,
        "backlog_max": max((b for _, b in backlog), default=0),
    }


def _settle_ms(polls: list, begin: float, end: float) -> float:
    """Mean settle time over the polls received in ``[begin, end)``."""
    inside = [poll for poll in polls if begin <= poll[0] < end]
    if len(inside) < 2 or inside[-1][4] == inside[0][4]:
        return 0.0
    return (inside[-1][3] - inside[0][3]) / (inside[-1][4] - inside[0][4]) * 1e3


def _trace_metrics(result: RunResult, load: dict, trace_file: Path) -> None:
    import layers
    import tracing

    if not trace_file.exists():
        result.problems.append("traced server wrote no spans")
        return
    spans, observations = tracing.load(trace_file)
    summary = tracing.summarize(spans)
    begin, end = load["window"]
    midpoint = (begin + end) / 2
    untraced = _settle_ms(load["polls"], begin, midpoint)
    traced = _settle_ms(load["polls"], midpoint, end)
    overhead = (traced / untraced - 1) * 100 if untraced and traced else 0.0
    metrics = layers.layer_metrics(
        summary,
        observations.get("algorithms.query", []),
        service=load["final"],
        backlog_max=load["backlog_max"],
        lag_p99_ms=load["lag_p99_ms"],
        overhead_pct=overhead,
        client=load["client"],
    )
    for name, (value, unit) in metrics.items():
        result.metric(name, value, unit)
    result.diagnostics["spans"] = summary
    result.diagnostics["settle_ms"] = {"untraced": untraced, "traced": traced}
