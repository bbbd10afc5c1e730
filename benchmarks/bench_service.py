"""Streaming service under mixed read-write load: throughput + read tail.

The benchmark drives a :class:`repro.service.StreamingUpdateService`
the way a deployment would: several concurrent writers stream edge
toggles (insert when absent, delete when present) into one graph while
concurrent readers continuously query the settled state.  It measures

* sustained update throughput (accepted and settled deltas per second),
* how the admission policy cut batches (crossover / capacity / deadline),
* read latency p50/p99 — overall *and* restricted to reads issued while
  a settle was in flight, which is the claim under test: reads answer
  from the last published snapshot and never block behind maintenance,
* settle durations (the work the reads are *not* waiting for).

Each writer owns a disjoint set of node pairs and tracks its own ledger
of which owned edges currently exist, so every submitted delta is valid
regardless of how the writers interleave — any rejection is a harness
or service bug and fails the run.  After the drain, every accepted
delta must be settled (the no-loss guarantee).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
        [--duration SECONDS] [--writers N] [--readers N]

``--quick`` shortens the run for CI, writes ``BENCH_service_quick.json``
(never the tracked artifact) and demotes the timing gates to warnings;
the correctness gates (no rejected deltas, no lost deltas) stay fatal.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import DEFAULT_PATTERN_ID, ServiceConfig, StreamingUpdateService  # noqa: E402
from repro.service.service import default_algorithm_factory  # noqa: E402
from repro.workloads import (  # noqa: E402
    PatternSpec,
    SocialGraphSpec,
    generate_pattern,
    generate_social_graph,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Benchmark graph scale (past the planner's interesting regime but
#: small enough that settles take milliseconds, so the run finishes
#: quickly while still overlapping reads with many settles).
NUM_NODES = 320
NUM_EDGES = 1500
PATTERN_NODES = 6
PATTERN_EDGES = 6
SEED = 2020

#: Pairs each writer owns (its toggle working set).
PAIRS_PER_WRITER = 120
#: Edge toggles per submitted payload.
DELTAS_PER_PAYLOAD = 4

#: Read-latency bound for the (full-mode) gate: generous, because the
#: claim is "reads do not stall behind multi-millisecond settles", not
#: "reads are instant on a loaded event loop".
READ_P99_BOUND_SECONDS = 0.25

#: Graph sizes for the snapshot-publish scaling probe (dense backend).
PUBLISH_SCALING_SIZES = (320, 1280)
#: Publish cost may grow with the graph copy (linear in |V|) but not
#: with the SLen matrix (quadratic in |V|): allowed growth is the
#: node-count ratio times this slack factor, which keeps the bound well
#: under the matrix's quadratic growth while tolerating timing noise.
PUBLISH_FLATNESS_FACTOR = 3.0
#: At the largest probed size a whole SLen copy must cost at least this
#: multiple of a CoW fork (the memcpy the publish path no longer pays).
FORK_SPEEDUP_BOUND = 4.0
#: A full publish (graph copy + fork + bookkeeping) may cost at most
#: this multiple of one bare SLen memcpy at the largest probed size —
#: the old whole-copy path paid the graph copy AND the memcpy.
PUBLISH_VS_COPY_BOUND = 2.0
#: Settles measured per probed size.
PUBLISH_SETTLES = 8


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def build_graph_and_pattern():
    """The benchmark's data graph and pattern (deterministic)."""
    data = generate_social_graph(
        SocialGraphSpec(name="bench-service", num_nodes=NUM_NODES, num_edges=NUM_EDGES, seed=SEED)
    )
    pattern = generate_pattern(
        PatternSpec(
            num_nodes=PATTERN_NODES,
            num_edges=PATTERN_EDGES,
            labels=sorted(data.labels()),
            seed=SEED,
        )
    )
    return data, pattern


def partition_pairs(data, writers: int, rng: random.Random) -> list[list[tuple]]:
    """Disjoint owned node-pair sets, one per writer."""
    nodes = sorted(data.nodes())
    seen: set[tuple] = set()
    pairs: list[tuple] = []
    while len(pairs) < writers * PAIRS_PER_WRITER:
        u, v = rng.sample(nodes, 2)
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    return [pairs[i::writers] for i in range(writers)]


async def run_benchmark(duration: float, writers: int, readers: int) -> dict:
    """Drive the mixed workload; returns the metrics document."""
    data, pattern = build_graph_and_pattern()
    rng = random.Random(SEED)
    config = ServiceConfig(
        deadline_seconds=0.02,
        max_buffer=512,
        coalesce_min_batch=32,
    )

    # Instrument the settle path: readers tag each sample with whether a
    # settle was executing at read time, and settles report durations.
    inflight = {"count": 0}
    settle_seconds: list[float] = []

    def factory(pattern_graph, data_graph, service_config):
        algorithm = default_algorithm_factory(pattern_graph, data_graph, service_config)
        inner = algorithm.subsequent_query

        def instrumented(batch):
            inflight["count"] += 1
            started = time.perf_counter()
            try:
                return inner(batch)
            finally:
                settle_seconds.append(time.perf_counter() - started)
                inflight["count"] -= 1

        algorithm.subsequent_query = instrumented
        return algorithm

    service = StreamingUpdateService(config, algorithm_factory=factory)
    await service.register("bench", data)
    await service.subscribe("bench", DEFAULT_PATTERN_ID, pattern)

    stop = asyncio.Event()
    accepted = {"count": 0}
    rejected = {"count": 0}
    read_samples: list[tuple[float, bool]] = []

    owned = partition_pairs(data, writers, rng)

    async def writer(pair_set: list[tuple]) -> None:
        # The ledger mirrors the staged state of the owned pairs; no
        # other writer touches them, so every toggle is always valid.
        ledger = {pair: data.has_edge(*pair) for pair in pair_set}
        cursor = 0
        while not stop.is_set():
            inserts, deletes = [], []
            for _ in range(DELTAS_PER_PAYLOAD):
                pair = pair_set[cursor % len(pair_set)]
                cursor += 1
                spec = {"type": "edge", "source": pair[0], "target": pair[1]}
                (deletes if ledger[pair] else inserts).append(spec)
                ledger[pair] = not ledger[pair]
            receipt = await service.submit(
                "bench", {"inserts": inserts, "deletes": deletes}
            )
            accepted["count"] += receipt.accepted
            rejected["count"] += receipt.rejected

    async def reader(style: int) -> None:
        nodes = sorted(data.nodes())
        reader_rng = random.Random(SEED + style)
        while not stop.is_set():
            started = time.perf_counter()
            # Yield once before the read so the sample includes any
            # event-loop stall a blocking settle would cause.
            await asyncio.sleep(0)
            settling = inflight["count"] > 0
            if style % 3 == 0:
                service.matches("bench")
            elif style % 3 == 1:
                service.top_k("bench", 3)
            else:
                service.slen_distance(
                    "bench", reader_rng.choice(nodes), reader_rng.choice(nodes)
                )
            read_samples.append((time.perf_counter() - started, settling))
            await asyncio.sleep(0.001)

    tasks = [asyncio.ensure_future(writer(pair_set)) for pair_set in owned]
    tasks += [asyncio.ensure_future(reader(i)) for i in range(readers)]
    bench_started = time.perf_counter()
    await asyncio.sleep(duration)
    stop.set()
    await asyncio.gather(*tasks)
    await service.close()
    elapsed = time.perf_counter() - bench_started

    stats = service.stats("bench")
    all_reads = [sample[0] for sample in read_samples]
    settling_reads = [sample[0] for sample in read_samples if sample[1]]
    return {
        "config": {
            "num_nodes": NUM_NODES,
            "num_edges": NUM_EDGES,
            "pattern": [PATTERN_NODES, PATTERN_EDGES],
            "writers": writers,
            "readers": readers,
            "duration_seconds": duration,
            "deadline_seconds": config.deadline_seconds,
            "max_buffer": config.max_buffer,
            "coalesce_min_batch": config.coalesce_min_batch,
            "seed": SEED,
        },
        "elapsed_seconds": elapsed,
        "updates": {
            "accepted": accepted["count"],
            "rejected": rejected["count"],
            "settled": stats["settled"],
            "accepted_per_second": accepted["count"] / elapsed,
            "settled_per_second": stats["settled"] / elapsed,
            "settles": stats["settles"],
            "cut_reasons": stats["cut_reasons"],
        },
        "reads": {
            "total": len(all_reads),
            "during_settle": len(settling_reads),
            "p50_seconds": percentile(all_reads, 0.50),
            "p99_seconds": percentile(all_reads, 0.99),
            "during_settle_p50_seconds": percentile(settling_reads, 0.50),
            "during_settle_p99_seconds": percentile(settling_reads, 0.99),
        },
        "settles": {
            "count": len(settle_seconds),
            "p50_seconds": percentile(settle_seconds, 0.50),
            "max_seconds": max(settle_seconds, default=0.0),
            "mean_seconds": statistics.fmean(settle_seconds) if settle_seconds else 0.0,
        },
        "service_errors": [repr(error) for _, error in service.errors],
    }


async def measure_publish_scaling() -> list[dict]:
    """Per-settle snapshot publish cost at growing graph sizes.

    Each probe registers a dense-backend graph, settles a handful of
    single-toggle payloads (deadline 0 cuts after every submit) and
    reads the service's own ``publish_seconds`` accounting, plus a
    direct fork-vs-copy timing of the settled SLen.  The gate: publish
    cost tracks the linear graph copy, not the quadratic matrix copy.
    """
    results = []
    for num_nodes in PUBLISH_SCALING_SIZES:
        data = generate_social_graph(
            SocialGraphSpec(
                name=f"bench-publish-{num_nodes}",
                num_nodes=num_nodes,
                num_edges=4 * num_nodes,
                seed=SEED,
            )
        )
        pattern = generate_pattern(
            PatternSpec(
                num_nodes=PATTERN_NODES,
                num_edges=PATTERN_EDGES,
                labels=sorted(data.labels()),
                seed=SEED,
            )
        )
        config = ServiceConfig(
            deadline_seconds=0.0,
            max_buffer=512,
            coalesce_min_batch=10_000,
            slen_backend="dense",
            snapshot_history=4,
        )
        service = StreamingUpdateService(config)
        await service.register("g", data)
        await service.subscribe("g", DEFAULT_PATTERN_ID, pattern)
        shadow = data.copy()
        rng = random.Random(SEED + num_nodes)
        nodes = sorted(shadow.nodes())
        for _ in range(PUBLISH_SETTLES):
            source, target = rng.sample(nodes, 2)
            spec = {"type": "edge", "source": source, "target": target}
            if shadow.has_edge(source, target):
                shadow.remove_edge(source, target)
                payload = {"deletes": [spec]}
            else:
                shadow.add_edge(source, target)
                payload = {"inserts": [spec]}
            await service.submit("g", payload)
            await service.drain()
        stats = service.stats("g")
        slen = service.snapshot("g").slen

        def best_of(thunk, repeats: int = 5) -> float:
            # One-shot ms-scale timings swing wildly under CPU
            # contention; the minimum is the honest cost.
            samples = []
            for _ in range(repeats):
                started = time.perf_counter()
                thunk()
                samples.append(time.perf_counter() - started)
            return min(samples)

        fork_seconds = best_of(slen.fork)
        copy_seconds = best_of(slen.copy)
        results.append(
            {
                "num_nodes": num_nodes,
                "settles": stats["settles"],
                "publish_seconds": stats["snapshot"]["publish_seconds"],
                "publish_per_settle_seconds": (
                    stats["snapshot"]["publish_seconds"] / max(1, stats["settles"])
                ),
                "slen_fork_seconds": fork_seconds,
                "slen_copy_seconds": copy_seconds,
                "slen_shared_blocks": stats["snapshot"].get("slen_shared_blocks"),
                "slen_owned_blocks": stats["snapshot"].get("slen_owned_blocks"),
            }
        )
        await service.close()
    return results


def evaluate_gates(report: dict, quick: bool) -> list[str]:
    """Check the run's gates; returns failure messages (fatal ones first)."""
    failures = []
    updates = report["updates"]
    reads = report["reads"]
    # Correctness gates — fatal in every mode.
    if updates["rejected"]:
        failures.append(
            f"FATAL: {updates['rejected']} deltas rejected (writers own disjoint "
            "pairs, so every toggle must be valid)"
        )
    if updates["accepted"] != updates["settled"]:
        failures.append(
            f"FATAL: accepted {updates['accepted']} != settled {updates['settled']} "
            "after close() — the no-loss drain guarantee is broken"
        )
    if report["service_errors"]:
        failures.append(f"FATAL: service recorded errors: {report['service_errors']}")
    # Timing gates — demoted to warnings under --quick.
    prefix = "WARN" if quick else "FAIL"
    if reads["during_settle"] == 0:
        failures.append(
            f"{prefix}: no read overlapped a settle — the run cannot support "
            "the reads-do-not-block claim (lengthen --duration)"
        )
    if reads["during_settle_p99_seconds"] > READ_P99_BOUND_SECONDS:
        failures.append(
            f"{prefix}: read p99 during settles "
            f"{reads['during_settle_p99_seconds'] * 1000:.1f} ms exceeds "
            f"{READ_P99_BOUND_SECONDS * 1000:.0f} ms — reads are stalling "
            "behind maintenance"
        )
    scaling = report.get("publish_scaling") or []
    if len(scaling) >= 2:
        first, last = scaling[0], scaling[-1]
        node_growth = last["num_nodes"] / first["num_nodes"]
        publish_growth = last["publish_per_settle_seconds"] / max(
            first["publish_per_settle_seconds"], 1e-9
        )
        if publish_growth > node_growth * PUBLISH_FLATNESS_FACTOR:
            failures.append(
                f"{prefix}: per-settle publish cost grew {publish_growth:.1f}x "
                f"from |V|={first['num_nodes']} to |V|={last['num_nodes']} "
                f"(bound {node_growth * PUBLISH_FLATNESS_FACTOR:.1f}x = linear "
                "in |V| with slack) — snapshot publishing is copying the matrix"
            )
        fork_speedup = last["slen_copy_seconds"] / max(last["slen_fork_seconds"], 1e-9)
        if fork_speedup < FORK_SPEEDUP_BOUND:
            failures.append(
                f"{prefix}: SLen fork is only {fork_speedup:.1f}x faster than a "
                f"whole copy at |V|={last['num_nodes']} "
                f"(bound ≥ {FORK_SPEEDUP_BOUND:.0f}x) — copy-on-write sharing "
                "is not engaged"
            )
        publish_vs_copy = last["publish_per_settle_seconds"] / max(
            last["slen_copy_seconds"], 1e-9
        )
        if publish_vs_copy > PUBLISH_VS_COPY_BOUND:
            failures.append(
                f"{prefix}: at |V|={last['num_nodes']} a full publish "
                f"({last['publish_per_settle_seconds'] * 1000:.1f} ms) costs "
                f"{publish_vs_copy:.1f}x the bare SLen memcpy it avoids "
                f"({last['slen_copy_seconds'] * 1000:.1f} ms; bound "
                f"{PUBLISH_VS_COPY_BOUND:.0f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="measured window (default 8, or 2 with --quick)",
    )
    parser.add_argument("--writers", type=int, default=4, metavar="N")
    parser.add_argument("--readers", type=int, default=8, metavar="N")
    parser.add_argument(
        "--quick", action="store_true",
        help="short CI run: writes BENCH_service_quick.json, timing gates warn",
    )
    args = parser.parse_args(argv)
    duration = args.duration if args.duration is not None else (2.0 if args.quick else 8.0)

    # Settles are CPU-bound pure Python on an executor thread; with the
    # default 5 ms GIL switch interval the event loop can lose the GIL
    # race for tens of milliseconds at a time (convoy effect), which
    # would show up here as read-tail latency that is not the service's
    # doing.  A shorter interval keeps the loop responsive.
    sys.setswitchinterval(0.001)
    report = asyncio.run(run_benchmark(duration, args.writers, args.readers))
    report["publish_scaling"] = asyncio.run(measure_publish_scaling())

    # --quick produces reduced-fidelity data; never overwrite the
    # tracked artifact with it.
    output = OUTPUT.with_name("BENCH_service_quick.json") if args.quick else OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    updates, reads = report["updates"], report["reads"]
    print(
        f"updates: {updates['accepted']} accepted, {updates['settled']} settled "
        f"({updates['settled_per_second']:.0f}/s) across {updates['settles']} settles; "
        f"cuts {updates['cut_reasons']}"
    )
    print(
        f"reads: {reads['total']} total ({reads['during_settle']} during settles); "
        f"p50 {reads['p50_seconds'] * 1000:.2f} ms, p99 {reads['p99_seconds'] * 1000:.2f} ms; "
        f"during settles p99 {reads['during_settle_p99_seconds'] * 1000:.2f} ms"
    )
    for probe in report["publish_scaling"]:
        print(
            f"publish at |V|={probe['num_nodes']}: "
            f"{probe['publish_per_settle_seconds'] * 1000:.2f} ms/settle; "
            f"slen fork {probe['slen_fork_seconds'] * 1000:.2f} ms vs copy "
            f"{probe['slen_copy_seconds'] * 1000:.2f} ms"
        )

    failures = evaluate_gates(report, quick=args.quick)
    fatal = [message for message in failures if not message.startswith("WARN")]
    for message in failures:
        print(message, file=sys.stderr)
    if failures and args.quick and not fatal:
        print("timing gates demoted to warnings (--quick)", file=sys.stderr)
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main())
