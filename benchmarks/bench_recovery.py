"""Durability cost and crash-recovery speed of the delta journal.

Two phases, both deterministic:

* **Ingest overhead** — one writer streams an identical edge-toggle
  workload into two services, one without a journal and one with the
  write-ahead journal (fsync per accepted payload).  The gate is the
  durability budget from the issue: journaled accepted-delta throughput
  must stay at or above 0.7x the no-journal baseline.
* **Recovery** — a quiet-configured service journals a 1k-delta tail
  with no settles (so nothing is checkpointed), then "crashes" via
  ``abort()``.  The benchmark times a cold boot over that journal:
  ``register`` (tail replay scheduling; the journal restores the
  standing pattern) plus ``drain`` (replay and settle).  Correctness is
  checked edge-by-edge: the recovered settled graph must agree with the
  writer's toggle ledger on every owned pair.

The writer owns disjoint node pairs and tracks a ledger of which owned
edges currently exist, so every submitted delta is valid regardless of
batching — any rejection is a harness or service bug and fails the run.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--quick]
        [--payloads N] [--tail N]

``--quick`` shortens the run for CI, writes ``BENCH_recovery_quick.json``
(never the tracked artifact) and demotes the throughput gate to a
warning; the correctness gates (no rejections, no recovery drift, no
service errors) stay fatal.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import DEFAULT_PATTERN_ID, ServiceConfig, StreamingUpdateService  # noqa: E402
from repro.workloads import (  # noqa: E402
    PatternSpec,
    SocialGraphSpec,
    generate_pattern,
    generate_social_graph,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"

#: Same scale as bench_service.py: settles take milliseconds, so the
#: journal's fsync cost is measured against realistic competing work.
NUM_NODES = 320
NUM_EDGES = 1500
PATTERN_NODES = 6
PATTERN_EDGES = 6
SEED = 2020

#: Node pairs the writer owns (its toggle working set).
NUM_PAIRS = 240
#: Edge toggles per submitted payload — one journal fsync covers the
#: whole payload, which is the batching the service encourages.
DELTAS_PER_PAYLOAD = 8

#: The durability budget: journaled ingest must retain at least this
#: fraction of the no-journal baseline throughput.
THROUGHPUT_RATIO_FLOOR = 0.7


def build_graph_and_pattern():
    """The benchmark's data graph and pattern (deterministic)."""
    data = generate_social_graph(
        SocialGraphSpec(name="bench-recovery", num_nodes=NUM_NODES, num_edges=NUM_EDGES, seed=SEED)
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


def owned_pairs(data, rng: random.Random) -> list[tuple]:
    """Distinct ordered node pairs for the writer's toggle ledger."""
    nodes = sorted(data.nodes())
    seen: set[tuple] = set()
    pairs: list[tuple] = []
    while len(pairs) < NUM_PAIRS:
        u, v = rng.sample(nodes, 2)
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    return pairs


def toggle_payloads(data, payloads: int):
    """The deterministic workload: ``payloads`` toggle payloads plus the
    final ledger (pair -> does the edge exist after the whole run)."""
    pairs = owned_pairs(data, random.Random(SEED))
    ledger = {pair: data.has_edge(*pair) for pair in pairs}
    batches = []
    cursor = 0
    for _ in range(payloads):
        inserts, deletes = [], []
        for _ in range(DELTAS_PER_PAYLOAD):
            pair = pairs[cursor % len(pairs)]
            cursor += 1
            spec = {"type": "edge", "source": pair[0], "target": pair[1]}
            (deletes if ledger[pair] else inserts).append(spec)
            ledger[pair] = not ledger[pair]
        batches.append({"inserts": inserts, "deletes": deletes})
    return batches, ledger


async def run_ingest(journal_dir, payloads: int) -> dict:
    """Submit the toggle workload; measure the submit loop's throughput.

    ``journal_dir=None`` is the no-journal baseline.  The measured window
    is first submit to last receipt — with a journal, every receipt in
    that window sits behind an fsync, which is exactly the overhead under
    test.  The settle/checkpoint work that serializes with ingest on the
    per-graph queue lands in the same window, as it does in production.
    """
    data, pattern = build_graph_and_pattern()
    batches, _ = toggle_payloads(data, payloads)
    config = ServiceConfig(
        deadline_seconds=0.02,
        max_buffer=512,
        coalesce_min_batch=32,
        journal_dir=journal_dir,
    )
    service = StreamingUpdateService(config)
    await service.register("bench", data)
    await service.subscribe("bench", DEFAULT_PATTERN_ID, pattern)

    accepted = rejected = 0
    started = time.perf_counter()
    for batch in batches:
        receipt = await service.submit("bench", batch)
        accepted += receipt.accepted
        rejected += receipt.rejected
    submit_seconds = time.perf_counter() - started
    drain_started = time.perf_counter()
    await service.drain()
    drain_seconds = time.perf_counter() - drain_started

    stats = service.stats("bench")
    errors = [repr(error) for _, error in service.errors]
    await service.close()
    report = {
        "journaled": journal_dir is not None,
        "payloads": payloads,
        "accepted": accepted,
        "rejected": rejected,
        "settled": stats["settled"],
        "submit_seconds": submit_seconds,
        "drain_seconds": drain_seconds,
        "accepted_per_second": accepted / submit_seconds if submit_seconds else 0.0,
        "errors": errors,
    }
    if journal_dir is not None:
        journal = stats["journal"]
        report["journal"] = {
            "appends": journal["appends"],
            "checkpoints": journal["checkpoints"],
            "compactions": journal["compactions"],
        }
    return report


async def run_recovery(journal_dir, tail_deltas: int) -> dict:
    """Journal an uncheckpointed ``tail_deltas`` tail, crash, time the boot."""
    payloads = tail_deltas // DELTAS_PER_PAYLOAD
    data, pattern = build_graph_and_pattern()
    batches, ledger = toggle_payloads(data, payloads)

    # Quiet config: nothing cuts, so nothing settles or checkpoints and
    # the whole journal is a recovery tail.
    quiet = ServiceConfig(
        deadline_seconds=30.0,
        max_buffer=tail_deltas * 2,
        coalesce_min_batch=tail_deltas * 2,
        journal_dir=journal_dir,
    )
    victim = StreamingUpdateService(quiet)
    await victim.register("bench", data)
    await victim.subscribe("bench", DEFAULT_PATTERN_ID, pattern)
    populate_started = time.perf_counter()
    accepted = rejected = 0
    for batch in batches:
        receipt = await victim.submit("bench", batch)
        accepted += receipt.accepted
        rejected += receipt.rejected
    populate_seconds = time.perf_counter() - populate_started
    await victim.abort()  # simulated crash: buffered deltas survive only in the journal

    config = ServiceConfig(
        deadline_seconds=0.02,
        max_buffer=512,
        coalesce_min_batch=32,
        journal_dir=journal_dir,
    )
    service = StreamingUpdateService(config)
    recovery_started = time.perf_counter()
    # The journal holds the victim's subscription, so registering
    # restores it; there is nothing to subscribe again.
    await service.register("bench", build_graph_and_pattern()[0])
    await service.drain()
    recovery_seconds = time.perf_counter() - recovery_started

    stats = service.stats("bench")
    snapshot = service.snapshot("bench")
    mismatches = sum(
        1
        for pair, present in ledger.items()
        if snapshot.data.has_edge(*pair) != present
    )
    errors = [repr(error) for _, error in service.errors]
    await service.close()
    return {
        "tail_deltas": payloads * DELTAS_PER_PAYLOAD,
        "payloads": payloads,
        "populate_accepted": accepted,
        "populate_rejected": rejected,
        "populate_seconds": populate_seconds,
        "recovery_seconds": recovery_seconds,
        "recovered": stats["recovered"],
        "recovery_skipped": stats["recovery_skipped"],
        "recovered_per_second": (
            stats["recovered"] / recovery_seconds if recovery_seconds else 0.0
        ),
        "settled": stats["settled"],
        "ledger_mismatches": mismatches,
        "errors": errors,
    }


async def run_benchmark(payloads: int, tail_deltas: int) -> dict:
    with TemporaryDirectory(prefix="bench-recovery-") as scratch:
        scratch_path = Path(scratch)
        baseline = await run_ingest(None, payloads)
        journaled = await run_ingest(str(scratch_path / "ingest"), payloads)
        recovery = await run_recovery(str(scratch_path / "recovery"), tail_deltas)
    ratio = (
        journaled["accepted_per_second"] / baseline["accepted_per_second"]
        if baseline["accepted_per_second"]
        else 0.0
    )
    return {
        "config": {
            "num_nodes": NUM_NODES,
            "num_edges": NUM_EDGES,
            "pattern": [PATTERN_NODES, PATTERN_EDGES],
            "payloads": payloads,
            "deltas_per_payload": DELTAS_PER_PAYLOAD,
            "tail_deltas": tail_deltas,
            "throughput_ratio_floor": THROUGHPUT_RATIO_FLOOR,
            "seed": SEED,
        },
        "ingest": {
            "baseline": baseline,
            "journaled": journaled,
            "throughput_ratio": ratio,
        },
        "recovery": recovery,
    }


def evaluate_gates(report: dict, quick: bool) -> list[str]:
    """Check the run's gates; returns failure messages (fatal ones first)."""
    failures = []
    baseline = report["ingest"]["baseline"]
    journaled = report["ingest"]["journaled"]
    recovery = report["recovery"]
    # Correctness gates — fatal in every mode.
    for name, phase in (("baseline", baseline), ("journaled", journaled)):
        if phase["rejected"]:
            failures.append(
                f"FATAL: {phase['rejected']} deltas rejected in the {name} ingest run "
                "(the writer owns disjoint pairs, so every toggle must be valid)"
            )
        if phase["errors"]:
            failures.append(f"FATAL: {name} ingest recorded errors: {phase['errors']}")
    if journaled["accepted"] != baseline["accepted"]:
        failures.append(
            f"FATAL: journaled run accepted {journaled['accepted']} deltas but the "
            f"baseline accepted {baseline['accepted']} — the workloads diverged"
        )
    if recovery["populate_rejected"]:
        failures.append(
            f"FATAL: {recovery['populate_rejected']} deltas rejected while journaling "
            "the recovery tail"
        )
    if recovery["recovered"] != recovery["tail_deltas"]:
        failures.append(
            f"FATAL: recovery replayed {recovery['recovered']} deltas, expected the "
            f"full {recovery['tail_deltas']}-delta tail"
        )
    if recovery["recovery_skipped"]:
        failures.append(
            f"FATAL: recovery skipped {recovery['recovery_skipped']} deltas of an "
            "uncheckpointed tail — nothing settled, so nothing may be skipped"
        )
    if recovery["ledger_mismatches"]:
        failures.append(
            f"FATAL: recovered graph disagrees with the writer's ledger on "
            f"{recovery['ledger_mismatches']} pair(s) — recovery lost or "
            "double-applied deltas"
        )
    if recovery["errors"]:
        failures.append(f"FATAL: recovery recorded errors: {recovery['errors']}")
    # The throughput gate — demoted to a warning under --quick, where the
    # short window makes the ratio noisy.
    prefix = "WARN" if quick else "FAIL"
    ratio = report["ingest"]["throughput_ratio"]
    if ratio < THROUGHPUT_RATIO_FLOOR:
        failures.append(
            f"{prefix}: journaled ingest throughput is {ratio:.2f}x the no-journal "
            f"baseline, below the {THROUGHPUT_RATIO_FLOOR:.1f}x durability budget"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--payloads", type=int, default=None, metavar="N",
        help="toggle payloads per ingest run (default 400, or 60 with --quick)",
    )
    parser.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="journaled deltas in the recovery tail (default 1000, or 200 with --quick)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short CI run: writes BENCH_recovery_quick.json, throughput gate warns",
    )
    args = parser.parse_args(argv)
    payloads = args.payloads if args.payloads is not None else (60 if args.quick else 400)
    tail = args.tail if args.tail is not None else (200 if args.quick else 1000)

    # Same rationale as bench_service.py: settles are CPU-bound pure
    # Python on executor threads, and the default GIL switch interval
    # lets them starve the event loop for long stretches.
    sys.setswitchinterval(0.001)
    report = asyncio.run(run_benchmark(payloads, tail))

    # --quick produces reduced-fidelity data; never overwrite the
    # tracked artifact with it.
    output = OUTPUT.with_name("BENCH_recovery_quick.json") if args.quick else OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    ingest, recovery = report["ingest"], report["recovery"]
    print(
        f"ingest: baseline {ingest['baseline']['accepted_per_second']:.0f} deltas/s, "
        f"journaled {ingest['journaled']['accepted_per_second']:.0f} deltas/s "
        f"(ratio {ingest['throughput_ratio']:.2f}x, "
        f"{ingest['journaled']['journal']['appends']} appends, "
        f"{ingest['journaled']['journal']['checkpoints']} checkpoints)"
    )
    print(
        f"recovery: {recovery['recovered']}-delta tail replayed and settled in "
        f"{recovery['recovery_seconds']:.3f} s "
        f"({recovery['recovered_per_second']:.0f} deltas/s)"
    )

    failures = evaluate_gates(report, quick=args.quick)
    fatal = [message for message in failures if not message.startswith("WARN")]
    for message in failures:
        print(message, file=sys.stderr)
    if failures and args.quick and not fatal:
        print("throughput gate demoted to a warning (--quick)", file=sys.stderr)
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main())
