"""engine_mixed: the paper's experiment as a closed loop in one thread.

Set-up builds ``UAGPNM(pattern, data)`` — shipped defaults, required
arguments only — on a generated social graph with one pattern.  The load
is a stationary sequence of batches, each with more data updates than
the planner's coalescing crossover (64) plus four pattern updates, the
ΔGD/ΔGP protocol of the paper's Section VII.  Every
``subsequent_query`` call is timed; the next batch is sent only when the
previous query returned, so a call's duration is the batch's freshness.

Almost all time goes to SLen maintenance, batch planning/compilation,
elimination detection and matching.  The service, journal, versioning,
subscription and server layers are bypassed.  It is the only workload
with pattern updates, hence the only one that exercises candidate sets,
the EH-Tree and cross-graph elimination.
"""

from __future__ import annotations

import statistics
import time

from common import (
    WORK_DIR,
    RunResult,
    graph_sizes,
    peak_rss_mb,
    percentile,
    samples_beyond,
    stationarity_problems,
)
import inputs

NODES = 60
EDGES = 360
PATTERN_NODES = 6
PATTERN_EDGES = 7
#: Each batch: 4 node replacements (8 updates) + 16 edge swaps (64
#: updates) = 72 data updates, above the crossover of 64, plus 4
#: pattern updates.
NODE_REPLACEMENTS = 4
EDGE_SWAPS = 16
#: A set-up is timed before the first query and then once per this many
#: seconds of the run, between queries; ``setup_s`` is their median.
#: Spreading the samples over the run keeps one slow moment of a shared
#: host from deciding the figure.
SETUP_EVERY_S = 0.5
#: Batches generated per measured second.  A query takes 25-50 ms on a
#: shared 2-vCPU host, so a program about 1.5-3x faster still has inputs
#: for the whole window; one faster than that stops early, says so in
#: the diagnostics and reports over the queries it ran.
BATCHES_PER_SECOND = 60


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro import UAGPNM
    from repro.matching import gpnm_query

    result = RunResult()
    data = inputs.social_graph(seed, NODES, EDGES)
    query_pattern = inputs.pattern(seed, data.labels(), PATTERN_NODES, PATTERN_EDGES)
    batches = inputs.engine_batches(
        data,
        query_pattern,
        seed,
        int(seconds * BATCHES_PER_SECOND),
        node_replacements=NODE_REPLACEMENTS,
        edge_swaps=EDGE_SWAPS,
    )

    def set_up():
        started = time.perf_counter()
        engine = UAGPNM(query_pattern, data)
        setups.append(time.perf_counter() - started)
        return engine

    setups = []
    engine = set_up()

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    timings = {True: [], False: []}
    executed = 0
    updates = 0
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + SETUP_EVERY_S
    for index, batch in enumerate(batches):
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_setup:
            set_up()
            next_setup = now + SETUP_EVERY_S
        # Traced runs alternate traced and untraced queries over the same
        # stationary stream; the two medians give the tracing overhead.
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install(tracing.ENGINE_TARGETS)
        result.attempted += 1
        try:
            started = time.perf_counter()
            answer = engine.subsequent_query(batch)
            timings[traced].append(time.perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run fails
            result.failed += 1
            result.problems.append(f"batch {index}: {exc!r}")
            break
        finally:
            if traced:
                tracer.uninstall()
        executed += 1
        updates += answer.stats.updates_processed

    # Correctness: the engine's graphs are exactly the generated inputs
    # applied in order, and its relation equals a from-scratch query.
    expected_data, expected_pattern = data.copy(), query_pattern.copy()
    for batch in batches[:executed]:
        for update in batch.data_updates():
            update.apply(expected_data)
        for update in batch.pattern_updates():
            update.apply(expected_pattern)
    result.check(engine.data == expected_data, "engine data graph differs from the applied inputs")
    result.check(engine.pattern == expected_pattern, "engine pattern differs from the applied inputs")
    oracle = gpnm_query(expected_pattern, expected_data)
    if executed:
        result.check(answer.result == oracle, "final relation differs from the gpnm_query oracle")
    result.problems.extend(stationarity_problems(graph_sizes(data), graph_sizes(expected_data)))
    result.check(executed > 0, "no query completed")

    untraced = timings[False]
    queries = untraced if untraced else timings[True]
    result.diagnostics.update(
        {
            "graph": {"start": graph_sizes(data), "end": graph_sizes(expected_data)},
            "pattern": {"nodes": PATTERN_NODES, "edges": PATTERN_EDGES},
            "batch": {"data_updates": 2 * NODE_REPLACEMENTS + 4 * EDGE_SWAPS, "pattern_updates": 4},
            "batches_generated": len(batches),
            "queries": executed,
            "inputs_exhausted": executed == len(batches),
            "p95_tail_samples": samples_beyond(len(queries), 0.95),
            "setups_s": setups,
        }
    )
    if not queries:
        return result
    if tracer is None:
        result.metric("setup_s", statistics.median(setups), "s")
        # Closed loop: a batch is submitted when its query call starts and
        # its result is readable when the call returns, so the call time
        # is the batch's freshness.
        result.metric("freshness_p50_ms", percentile(queries, 0.5) * 1e3, "ms")
        result.metric("freshness_p95_ms", percentile(queries, 0.95) * 1e3, "ms")
        result.metric("updates_per_s", updates / sum(queries), "1/s")
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return result

    import layers

    tracer.dump(WORK_DIR / f"spans-engine_mixed-{seed}.json")
    summary = tracing.summarize(tracer.finished())
    overhead = 0.0
    if timings[True] and timings[False]:
        overhead = (statistics.median(timings[True]) / statistics.median(timings[False]) - 1) * 100
    metrics = layers.layer_metrics(
        summary, tracer.observations["algorithms.query"], overhead_pct=overhead
    )
    for name, (value, unit) in metrics.items():
        result.metric(name, value, unit)
    result.diagnostics["spans"] = summary
    return result
