"""Benchmark: per-update vs. coalesced vs. partitioned ``SLen`` maintenance,
plus the execution planner's routing accuracy.

For each update mix in ``MIXES`` (balanced / insert-heavy / delete-heavy
— the ROADMAP's update-mix axis; deletions are where coalescing wins
big) and each batch size in ``BATCH_SIZES`` the script generates one
update workload on a synthetic social graph and times every requested
strategy (``--plan`` axis):

* **per-update** — one :func:`repro.spl.incremental.update_slen` call per
  data update (the INC-GPNM shape);
* **coalesced** — :func:`repro.batching.compiler.compile_batch` followed
  by one :func:`repro.batching.coalesce.coalesce_slen` pass;
* **partitioned** — the same pass with the partition-aware deletion
  settle (:func:`repro.partition.partitioned_spl.coalesce_slen_partitioned`);
* **auto** — run the execution planner
  (:func:`repro.batching.planner.plan_batch`) and execute whatever it
  picks, planning time included.

Every run is verified against the from-scratch matrix.  Results (median
over ``ROUNDS`` runs) are written to ``BENCH_batching.json`` next to
this file, including per-cell planner choices and the overall
``planner_choice_accuracy`` (fraction of cells where auto matched the
empirically fastest forced strategy).  The script exits non-zero when a
decisive coalescing cell regresses below 1x or when auto loses more
than 10% (plus a small absolute tolerance) to the best forced strategy.

``--quick`` trims the grid for CI (fewer rounds, no tiny cells, and the
timing gates become warnings instead of failures — shared runners are
too noisy to gate on; the per-run check against the from-scratch
matrix still fails the script).

Run with::

    PYTHONPATH=src python benchmarks/bench_batching.py [--plan auto ...] [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.batching.coalesce import coalesce_slen
from repro.batching.compiler import compile_batch
from repro.batching.planner import BatchStatistics, plan_batch
from repro.partition.label_partition import LabelPartition
from repro.partition.partitioned_spl import coalesce_slen_partitioned
from repro.spl.incremental import update_slen
from repro.spl.matrix import SLenMatrix
from repro.workloads.generators import SocialGraphSpec, generate_social_graph
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch

BATCH_SIZES = (1, 8, 64, 256)
#: The --quick grid: drops the tiny cells (they carry no routing
#: signal) and keeps the decisive sizes around the crossover.
QUICK_BATCH_SIZES = (8, 64, 256)
MIXES = ("balanced", "insert-heavy", "delete-heavy")
FORCED = ("per-update", "coalesced", "partitioned")
PLANS = FORCED + ("auto",)
ROUNDS = 5
#: Matches the experiment harness's bounded distance index.
HORIZON = 4
#: Auto may lose this fraction (plus ABS_TOLERANCE) to the best forced
#: strategy before the script flags it.
AUTO_LOSS_LIMIT = 1.10
ABS_TOLERANCE_SECONDS = 0.002
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batching.json"


def build_instance():
    data = generate_social_graph(
        SocialGraphSpec(name="bench-batching", num_nodes=320, num_edges=1500, seed=11)
    )
    pattern = generate_pattern(
        PatternSpec(num_nodes=6, num_edges=6, labels=("PM", "SE", "TE"), seed=11)
    )
    return data, pattern


def workload(data, pattern, batch_size: int, mix: str):
    return generate_update_batch(
        data,
        pattern,
        UpdateWorkloadSpec(
            num_pattern_updates=0,
            num_data_updates=batch_size,
            seed=23 + batch_size,
            mix=mix,
        ),
    ).data_updates()


def _run_strategy(strategy: str, graph, matrix, updates, partition=None) -> None:
    """Execute one maintenance strategy in place.

    ``partition`` is the pre-batch :class:`LabelPartition` (built
    outside the timed window), mirroring the warm cross-batch cache the
    algorithms keep: the partitioned route pays only the O(|batch|)
    deletion bookkeeping in-band, exactly like
    ``GPNMAlgorithm._settle_partition`` — so this benchmark and the
    algorithms' ``maintenance_seconds`` time the same work.
    """
    if strategy == "per-update":
        for update in updates:
            update.apply(graph)
            update_slen(matrix, graph, update)
        return
    compiled = compile_batch(updates)
    surviving = compiled.data_updates()
    if strategy == "partitioned" and partition is not None:
        for update in surviving:
            if update.is_deletion:
                partition.apply_update(update)
    for update in surviving:
        update.apply(graph)
    if strategy == "coalesced":
        coalesce_slen(matrix, graph, surviving)
    else:
        coalesce_slen_partitioned(matrix, graph, surviving, partition=partition)


def time_strategy(data, updates, strategy: str) -> tuple[float, str]:
    """One timed run; returns (seconds, executed_strategy)."""
    graph = data.copy()
    matrix = SLenMatrix.from_graph(graph, horizon=HORIZON)
    stats = BatchStatistics.from_updates(
        updates,
        node_count=graph.number_of_nodes,
        backend=matrix.backend_name,
        partition_available=True,
    )
    # The warm-cache analog: the pre-batch partition exists before the
    # batch arrives, so its construction is not part of the strategy
    # cost.  Only routes that can execute partitioned need it.
    partition = (
        LabelPartition.from_graph(graph)
        if strategy in ("partitioned", "auto")
        else None
    )
    started = time.perf_counter()
    executed = strategy
    if strategy == "auto":
        executed = plan_batch(stats).strategy
    _run_strategy(executed, graph, matrix, updates, partition=partition)
    elapsed = time.perf_counter() - started
    assert matrix == SLenMatrix.from_graph(graph, horizon=HORIZON)
    return elapsed, executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--plan",
        action="append",
        choices=PLANS,
        default=None,
        metavar="STRATEGY",
        help=(
            "strategy axis to benchmark (repeatable; default: all of "
            f"{', '.join(PLANS)})"
        ),
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help=f"runs per cell (default {ROUNDS})"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI grid: 3 rounds, no tiny cells, timing gates demoted to "
            "warnings (the per-run matrix check still fails the script)"
        ),
    )
    args = parser.parse_args(argv)
    plans = tuple(dict.fromkeys(args.plan)) if args.plan else PLANS
    batch_sizes = QUICK_BATCH_SIZES if args.quick else BATCH_SIZES
    rounds = args.rounds if args.rounds is not None else (3 if args.quick else ROUNDS)
    # --quick produces reduced-fidelity data; never overwrite the
    # tracked full-grid artifact with it.
    output = OUTPUT.with_name("BENCH_batching_quick.json") if args.quick else OUTPUT

    data, pattern = build_instance()
    results = []
    matched_cells = 0
    accuracy_cells = 0
    auto_loss_violations = []
    for mix in MIXES:
        for batch_size in batch_sizes:
            updates = workload(data, pattern, batch_size, mix)
            eliminated = compile_batch(updates).report.eliminated
            timings: dict[str, float] = {}
            auto_choice = None
            for strategy in plans:
                samples = []
                for _ in range(rounds):
                    elapsed, executed = time_strategy(data, updates, strategy)
                    samples.append(elapsed)
                    if strategy == "auto":
                        auto_choice = executed
                timings[strategy] = statistics.median(samples)
            row = {
                "mix": mix,
                "batch_size": batch_size,
                "applied_updates": len(updates),
                "compiled_away": eliminated,
                "strategies": {
                    name: round(seconds, 6) for name, seconds in timings.items()
                },
            }
            # Back-compat fields for the original two-strategy report.
            if "per-update" in timings:
                row["per_update_seconds"] = round(timings["per-update"], 6)
            if "coalesced" in timings:
                row["coalesced_seconds"] = round(timings["coalesced"], 6)
            if "per-update" in timings and "coalesced" in timings:
                row["speedup"] = (
                    round(timings["per-update"] / timings["coalesced"], 3)
                    if timings["coalesced"]
                    else None
                )
            forced_present = [name for name in FORCED if name in timings]
            if forced_present:
                best_forced = min(forced_present, key=timings.get)
                row["best_forced"] = best_forced
                if "auto" in timings:
                    accuracy_cells += 1
                    row["auto_choice"] = auto_choice
                    row["auto_matches_best"] = auto_choice == best_forced
                    matched_cells += row["auto_matches_best"]
                    loss = (
                        timings["auto"] / timings[best_forced]
                        if timings[best_forced]
                        else 1.0
                    )
                    row["auto_loss"] = round(loss, 3)
                    if (
                        loss > AUTO_LOSS_LIMIT
                        and timings["auto"] - timings[best_forced] > ABS_TOLERANCE_SECONDS
                    ):
                        auto_loss_violations.append((mix, batch_size, loss))
            results.append(row)
            summary = "  ".join(
                f"{name}={seconds * 1e3:8.2f}ms" for name, seconds in timings.items()
            )
            print(f"mix={mix:13s} batch={batch_size:4d}  {summary}", file=sys.stderr)
    payload = {
        "benchmark": "SLen maintenance strategies (per-update / coalesced / partitioned / auto)",
        "graph": {"nodes": data.number_of_nodes, "edges": data.number_of_edges},
        "horizon": HORIZON,
        "rounds": rounds,
        "plans": list(plans),
        "planner_choice_accuracy": (
            round(matched_cells / accuracy_cells, 3) if accuracy_cells else None
        ),
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    if accuracy_cells:
        print(
            f"planner choice accuracy: {matched_cells}/{accuracy_cells}",
            file=sys.stderr,
        )

    failed = False
    # Coalescing earns its keep on deletion-bearing batches well above
    # the fallback threshold; batch 64 sits at par (within noise of 1x),
    # so gating there would flake, and insert-heavy streams are a
    # documented non-win (the coalesced sweep does the same relaxations
    # plus attribution bookkeeping).  Only the decisive cells are gated.
    gated = [
        row
        for row in results
        if row["mix"] != "insert-heavy"
        and row["batch_size"] >= 256
        and row.get("speedup") is not None
    ]
    if any(row["speedup"] < 1.0 for row in gated):
        print(
            "WARNING: coalesced slower than per-update on a large deletion-bearing batch",
            file=sys.stderr,
        )
        failed = True
    # The acceptance gate: auto must never lose >10% wall-clock to the
    # best forced strategy (small absolute tolerance for tiny cells).
    for mix, batch_size, loss in auto_loss_violations:
        print(
            f"WARNING: auto lost {loss:.2f}x to the best forced strategy "
            f"(mix={mix}, batch={batch_size})",
            file=sys.stderr,
        )
        failed = True
    if failed and args.quick:
        # Shared CI runners are too noisy to gate on wall-clock; the
        # per-run matrix check above is the non-timing assertion.
        print("timing gates demoted to warnings (--quick)", file=sys.stderr)
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
