"""durable_burst: write-only durable ingest at capacity, through the library.

Set-up registers one graph with one standing pattern on a
``StreamingUpdateService`` whose only non-default setting is
``journal_dir`` (a deployment path).  The load is a series of bursts:
each submits a pre-generated backlog of toggle payloads all at once,
then ``drain()``s.  Every payload is journaled before its receipt
(append + fsync), settles write checkpoints, and the journal compacts
once it passes the default size threshold.

Because every ingest is queued before the first settle it triggers,
every cut is a crossover or capacity cut (or the final drain cut): the
deadline timer never moves a batch boundary.  Settles therefore take the
coalesced route, so the SLen and batching layers that ``engine_mixed``
exercises run here through the service, and the journal runs where
``serve_subs`` has none.  The journal lives inside the checkout, so
fsync latency of the host's disk is part of ``updates_per_s``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import time

from common import (
    WORK_DIR,
    RunResult,
    freshness,
    graph_sizes,
    peak_rss_mb,
    percentile,
    samples_beyond,
    stationarity_problems,
)
import inputs

GRAPH_KEY = "bench"
PATTERN_ID = "p0"
NODES = 60
EDGES = 360
PATTERN_NODES = 5
PATTERN_EDGES = 5
PAIRS = 480
TOGGLES_PER_PAYLOAD = 4
#: Payloads per burst: 480 updates, several crossover cuts' worth.
BURST_PAYLOADS = 120
#: Spare set-ups (each on a fresh journal directory, closed straight
#: after) timed before the measured service's own; one more is timed
#: after every burst.  ``setup_s`` is the median of all of them, so it
#: samples the host across the run.
SETUP_REPEATS = 3
#: Bursts generated per measured second.  A burst takes 0.3-0.5 s on a
#: shared 2-vCPU host, so a program 2.5x faster still has inputs for the
#: whole window (a run that exhausts them stops early and says so).
BURSTS_PER_SECOND = 8
#: The cut reasons a count-cut run may show.
ALLOWED_CUTS = frozenset({"crossover", "capacity", "drain"})
#: How often the backlog poller samples ``stats()``.
POLL_INTERVAL_S = 0.02


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.matching import gpnm_query
    from repro.service import ServiceConfig, StreamingUpdateService

    result = RunResult()
    data = inputs.social_graph(seed, NODES, EDGES)
    pattern = inputs.pattern(seed, data.labels(), PATTERN_NODES, PATTERN_EDGES)
    pairs = inputs.toggle_pairs(data, seed, PAIRS)
    count = max(1, int(seconds * BURSTS_PER_SECOND))
    payloads = inputs.toggle_payloads(
        data, pairs, seed, count * BURST_PAYLOADS, TOGGLES_PER_PAYLOAD, "burst"
    )
    bursts = [payloads[index * BURST_PAYLOADS:(index + 1) * BURST_PAYLOADS] for index in range(count)]

    work = WORK_DIR / f"durable_burst-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    setups = []

    async def set_up(directory):
        started = time.perf_counter()
        service = StreamingUpdateService(ServiceConfig(journal_dir=str(directory)))
        await service.register(GRAPH_KEY, data)
        await service.subscribe(GRAPH_KEY, PATTERN_ID, pattern)
        setups.append(time.perf_counter() - started)
        return service

    async def spare_set_up():
        await (await set_up(work / f"setup-{len(setups)}")).close()

    for _ in range(SETUP_REPEATS):
        await spare_set_up()
    journal_dir = work / "journal"
    service = await set_up(journal_dir)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    rates = {True: [], False: []}
    fresh = []
    backlog_max = 0
    executed = 0
    deadline = time.perf_counter() + seconds
    try:
        for index, burst in enumerate(bursts):
            if time.perf_counter() >= deadline:
                break
            traced = tracer is not None and index % 2 == 0
            if traced:
                tracer.install(tracing.ENGINE_TARGETS + tracing.SERVICE_TARGETS)
            try:
                accepted, elapsed, peak, burst_fresh = await _burst(service, burst, result)
            finally:
                if traced:
                    tracer.uninstall()
            backlog_max = max(backlog_max, peak)
            rates[traced].append(accepted / elapsed)
            if not traced:
                fresh.extend(burst_fresh)
            executed += 1
            await spare_set_up()
        stats = service.stats(GRAPH_KEY)
        live = service.snapshot(GRAPH_KEY)
        live_matches = live.state_for(PATTERN_ID).result
        live_graph = live.data.copy()
    finally:
        await service.close()

    # Correctness: nothing rejected or lost, count cuts only, the live
    # state equals the generated inputs and the oracle, and a fresh
    # service recovering the journal reproduces both.
    expected = inputs.apply_payloads(data, [p for burst in bursts[:executed] for p in burst])
    result.check(stats["rejected"] == 0, f"{stats['rejected']} updates rejected")
    result.check(stats["settled"] == stats["accepted"], "settled != accepted after drain")
    cuts = set(stats["cut_reasons"])
    result.check(cuts <= ALLOWED_CUTS, f"timer-moved cut boundaries: {stats['cut_reasons']}")
    for counter in ("settle_failures", "settle_retries", "quarantined", "queue_errors"):
        result.failed += stats[counter]
        result.check(stats[counter] == 0, f"{counter} = {stats[counter]}")
    result.check(live_graph == expected, "live graph differs from the applied inputs")
    result.check(live_matches == gpnm_query(pattern, expected), "live matches differ from the oracle")
    recovered = StreamingUpdateService(ServiceConfig(journal_dir=str(journal_dir)))
    try:
        await recovered.register(GRAPH_KEY, data)
        await recovered.drain()
        snapshot = recovered.snapshot(GRAPH_KEY)
        result.check(snapshot.data == expected, "recovered graph differs from the live graph")
        result.check(
            snapshot.state_for(PATTERN_ID).result == live_matches,
            "recovered matches differ from the live matches",
        )
    finally:
        await recovered.close()
    result.problems.extend(stationarity_problems(graph_sizes(data), graph_sizes(expected)))

    journal = stats["journal"] or {}
    journal_bytes = os.path.getsize(journal["path"]) if journal.get("path") else 0
    shutil.rmtree(work, ignore_errors=True)
    result.diagnostics.update(
        {
            "graph": {"start": graph_sizes(data), "end": graph_sizes(expected)},
            "burst": {"payloads": BURST_PAYLOADS, "toggles_per_payload": TOGGLES_PER_PAYLOAD},
            "bursts": executed,
            "inputs_exhausted": executed == len(bursts),
            "cut_reasons": stats["cut_reasons"],
            "settles": stats["settles"],
            "journal": journal,
            "setups_s": setups,
            "burst_updates_per_s": rates,
            "freshness_samples": len(fresh),
            "freshness_p95_tail_samples": samples_beyond(len(fresh), 0.95),
        }
    )
    untraced = rates[False]
    if not (untraced or rates[True]):
        result.problems.append("no burst completed")
        return result
    if tracer is None:
        result.metric("setup_s", statistics.median(setups), "s")
        result.metric("freshness_p50_ms", percentile(fresh, 0.5) * 1e3, "ms")
        result.metric("freshness_p95_ms", percentile(fresh, 0.95) * 1e3, "ms")
        result.metric("updates_per_s", statistics.median(untraced), "1/s")
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return result

    import layers

    tracer.dump(WORK_DIR / f"spans-durable_burst-{seed}.json")
    summary = tracing.summarize(tracer.finished())
    overhead = 0.0
    if rates[True] and rates[False]:
        # Throughput: a traced burst that is slower has the lower rate.
        overhead = (statistics.median(rates[False]) / statistics.median(rates[True]) - 1) * 100
    metrics = layers.layer_metrics(
        summary,
        tracer.observations["algorithms.query"],
        service=stats,
        backlog_max=backlog_max,
        overhead_pct=overhead,
        journal_bytes=journal_bytes,
    )
    for name, (value, unit) in metrics.items():
        result.metric(name, value, unit)
    result.diagnostics["spans"] = summary
    return result


async def _burst(service, burst: list[dict], result: RunResult):
    """Submit ``burst`` at once and drain it.

    Returns ``(accepted, seconds, max backlog, freshness samples)``.  A
    poller on the event loop samples ``stats()``; a payload's freshness
    is the time from the burst's submission to the first poll whose
    ``settled`` count covers it, so its resolution is the poll interval.
    """
    polls = []
    done = asyncio.Event()

    async def poll():
        while not done.is_set():
            stats = service.stats(GRAPH_KEY)
            polls.append((time.perf_counter(), stats["settled"], stats["accepted"]))
            await asyncio.sleep(POLL_INTERVAL_S)

    base = service.stats(GRAPH_KEY)["settled"]
    poller = asyncio.create_task(poll())
    started = time.perf_counter()
    receipts = [service.submit_nowait(GRAPH_KEY, payload) for payload in burst]
    # Start draining now, not after the receipts: the drain cut then sits
    # in the graph's queue right behind the last ingest, ahead of any
    # deadline cut a timer could queue while the ingests are fsyncing.
    drained = asyncio.ensure_future(service.drain())
    outcomes = await asyncio.gather(*receipts, return_exceptions=True)
    await drained
    elapsed = time.perf_counter() - started
    done.set()
    await poller
    stats = service.stats(GRAPH_KEY)
    polls.append((time.perf_counter(), stats["settled"], stats["accepted"]))
    accepted = 0
    positions = []
    for payload, outcome in zip(burst, outcomes):
        result.attempted += 1
        size = len(payload["inserts"]) + len(payload["deletes"])
        if isinstance(outcome, BaseException) or outcome.accepted != size:
            result.failed += 1
            result.problems.append(f"payload not accepted: {outcome!r}")
        else:
            accepted += outcome.accepted
        positions.append(base + accepted)
    fresh = freshness([started] * len(burst), positions, [(moment, settled) for moment, settled, _ in polls])
    peak = max(accepted_count - settled for _, settled, accepted_count in polls)
    return accepted, elapsed, peak, fresh
