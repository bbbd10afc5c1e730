"""Benchmark: sparse vs. dense ``SLen`` backend kernels across graph sizes.

For each graph size in ``GRAPH_SIZES`` the script builds a synthetic
social graph and times, on both backends,

* **build** — full all-pairs construction (``SLenMatrix.from_graph``):
  per-source Python BFS (sparse) vs one frontier-array multi-source BFS
  (dense);
* **insert-edges** — per-update maintenance of a stream of edge
  insertions (:func:`repro.spl.incremental.update_slen`): the O(n²)
  Python relaxation loop vs the rank-1 broadcast kernel;
* **delete-edges** — per-update maintenance of a stream of edge
  deletions: per-source Dijkstra settles vs the batched affected-region
  recompute;
* **coalesced-mixed** — one compile + coalesced pass over a mixed batch.

A further **scaling** section covers the blocked dense layout: a
≥10⁴-node axis on community-structured graphs with the experiment
harness's horizon, giving build time per backend plus the blocked
layout's memory accounting (occupied blocks and allocated bytes vs the
dense-full O(n²) baseline).

Every run cross-checks the maintained matrix against a from-scratch
rebuild, so the speedups are for *identical* results.  Best-of-
``ROUNDS`` timings (robust against shared-machine noise) go to
``BENCH_slen_backend.json`` next to this file.

The exit status enforces the acceptance bars: edge-insertion
maintenance at least 4x faster on the dense backend for graphs with
>= 256 nodes (the blocked relax kernel measures at parity with PR 2's
monolithic one — ~4.5-6x depending on machine state — so the bar sits
below the noise floor of the sparse baseline, guarding against real
regressions rather than load spikes), and blocked memory strictly
below the dense-full baseline on the >= 10⁴-node scaling rows.

Run with::

    PYTHONPATH=src python benchmarks/bench_slen_backend.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.batching.coalesce import coalesce_slen
from repro.batching.compiler import compile_batch
from repro.spl.dense import DEFAULT_DENSE_BLOCK_SIZE
from repro.spl.incremental import update_slen
from repro.spl.matrix import SLenMatrix
from repro.workloads.generators import (
    SocialGraphSpec,
    generate_community_graph,
    generate_social_graph,
)
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch

GRAPH_SIZES = (128, 256, 512)
#: Updates per maintenance stream.
STREAM = 32
ROUNDS = 5
BACKENDS = ("sparse", "dense")
#: The ≥10⁴ scaling axis (community graphs, one round — the signal is
#: the memory accounting and the order of magnitude, not microseconds).
SCALING_SIZES = (2048, 10240)
SCALING_HORIZON = 4
SCALING_COMMUNITY = 256
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_slen_backend.json"


def build_instance(num_nodes: int):
    data = generate_social_graph(
        SocialGraphSpec(
            name=f"bench-backend-{num_nodes}",
            num_nodes=num_nodes,
            num_edges=num_nodes * 5,
            seed=17,
        )
    )
    pattern = generate_pattern(
        PatternSpec(num_nodes=6, num_edges=6, labels=("PM", "SE", "TE"), seed=17)
    )
    return data, pattern


def stream_of(data, pattern, mix: str, seed: int):
    return generate_update_batch(
        data,
        pattern,
        UpdateWorkloadSpec(
            num_pattern_updates=0, num_data_updates=STREAM, seed=seed, mix=mix
        ),
    ).data_updates()


def _edge_updates_only(updates, wanted):
    return [update for update in updates if type(update).__name__ == wanted]


def time_build(data, backend: str) -> float:
    started = time.perf_counter()
    matrix = SLenMatrix.from_graph(data, backend=backend)
    elapsed = time.perf_counter() - started
    assert matrix.number_of_nodes == data.number_of_nodes
    return elapsed


def time_stream(data, updates, backend: str) -> float:
    graph = data.copy()
    matrix = SLenMatrix.from_graph(graph, backend=backend)
    started = time.perf_counter()
    for update in updates:
        update.apply(graph)
        update_slen(matrix, graph, update)
    elapsed = time.perf_counter() - started
    assert matrix == SLenMatrix.from_graph(graph)
    return elapsed


def time_coalesced(data, updates, backend: str) -> float:
    graph = data.copy()
    matrix = SLenMatrix.from_graph(graph, backend=backend)
    started = time.perf_counter()
    compiled = compile_batch(updates)
    surviving = compiled.data_updates()
    for update in surviving:
        update.apply(graph)
    coalesce_slen(matrix, graph, surviving)
    elapsed = time.perf_counter() - started
    assert matrix == SLenMatrix.from_graph(graph)
    return elapsed


def best_of(timer, *args) -> float:
    """Best-of-``ROUNDS`` timing (robust against shared-machine noise)."""
    return min(timer(*args) for _ in range(ROUNDS))


def scaling_row(num_nodes: int) -> dict:
    """One ≥10⁴-axis measurement: builds + blocked memory accounting."""
    data = generate_community_graph(num_nodes, SCALING_COMMUNITY, seed=23)
    started = time.perf_counter()
    sparse = SLenMatrix.from_graph(data, horizon=SCALING_HORIZON, backend="sparse")
    sparse_seconds = time.perf_counter() - started
    started = time.perf_counter()
    dense = SLenMatrix.from_graph(data, horizon=SCALING_HORIZON, backend="dense")
    dense_seconds = time.perf_counter() - started
    assert dense == sparse, f"scaling parity failed at {num_nodes} nodes"
    backend = dense.backend
    return {
        "nodes": num_nodes,
        "edges": data.number_of_edges,
        "horizon": SCALING_HORIZON,
        "community": SCALING_COMMUNITY,
        "sparse_build_seconds": round(sparse_seconds, 6),
        "dense_build_seconds": round(dense_seconds, 6),
        "occupied_blocks": backend.occupied_blocks(),
        "total_blocks": backend.total_blocks(),
        "allocated_bytes": backend.allocated_bytes(),
        "dense_full_bytes": backend.dense_full_bytes(),
        "memory_ratio": round(
            backend.allocated_bytes() / max(1, backend.dense_full_bytes()), 4
        ),
    }


def main() -> int:
    results = []
    for num_nodes in GRAPH_SIZES:
        data, pattern = build_instance(num_nodes)
        inserts = _edge_updates_only(
            stream_of(data, pattern, "insert-heavy", seed=29), "EdgeInsertion"
        )
        deletes = _edge_updates_only(
            stream_of(data, pattern, "delete-heavy", seed=31), "EdgeDeletion"
        )
        mixed = stream_of(data, pattern, "balanced", seed=37)
        kernels = (
            ("build", time_build, ()),
            ("insert-edges", time_stream, (inserts,)),
            ("delete-edges", time_stream, (deletes,)),
            ("coalesced-mixed", time_coalesced, (mixed,)),
        )
        for kernel, timer, extra in kernels:
            timings = {}
            for backend in BACKENDS:
                args = (data, *extra, backend) if extra else (data, backend)
                timings[backend] = best_of(timer, *args)
            speedup = (
                round(timings["sparse"] / timings["dense"], 3)
                if timings["dense"]
                else None
            )
            row = {
                "nodes": num_nodes,
                "edges": data.number_of_edges,
                "kernel": kernel,
                "stream_updates": len(extra[0]) if extra else None,
                "sparse_seconds": round(timings["sparse"], 6),
                "dense_seconds": round(timings["dense"], 6),
                "speedup": speedup,
            }
            results.append(row)
            print(
                f"nodes={num_nodes:4d} kernel={kernel:15s} "
                f"sparse={timings['sparse'] * 1e3:9.2f} ms  "
                f"dense={timings['dense'] * 1e3:9.2f} ms  speedup={speedup}x",
                file=sys.stderr,
            )
    # ------------------------------------------------------------------
    # Scaling section: the ≥10⁴-node axis (one round; memory is exact).
    # ------------------------------------------------------------------
    scaling = []
    for num_nodes in SCALING_SIZES:
        row = scaling_row(num_nodes)
        scaling.append(row)
        print(
            f"nodes={num_nodes:5d} kernel=scaling-build   "
            f"sparse={row['sparse_build_seconds'] * 1e3:9.2f} ms  "
            f"dense={row['dense_build_seconds'] * 1e3:9.2f} ms  "
            f"blocks={row['occupied_blocks']}/{row['total_blocks']}  "
            f"memory={row['memory_ratio'] * 100:.1f}% of dense-full",
            file=sys.stderr,
        )

    payload = {
        "benchmark": "sparse vs dense SLen backend kernels",
        "stream_updates": STREAM,
        "rounds": ROUNDS,
        "horizon": "inf",
        "dense_block_size": DEFAULT_DENSE_BLOCK_SIZE,
        "results": results,
        "scaling": scaling,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}", file=sys.stderr)
    # Acceptance bar 1: >= 4x on edge-insertion maintenance for
    # graphs >= 256 (see the module docstring for the bar's margin).
    failing = [
        row
        for row in results
        if row["kernel"] == "insert-edges"
        and row["nodes"] >= 256
        and (row["speedup"] is None or row["speedup"] < 4.0)
    ]
    if failing:
        print(
            f"FAIL: dense insert-edges speedup below 4x on {failing}",
            file=sys.stderr,
        )
        return 1
    # Acceptance bar 2: blocked memory below the dense-full O(n²)
    # baseline on the >= 10⁴-node scaling rows.
    oversized = [
        row
        for row in scaling
        if row["nodes"] >= 10_000 and row["allocated_bytes"] >= row["dense_full_bytes"]
    ]
    if oversized:
        print(
            f"FAIL: blocked layout not below the dense-full baseline on {oversized}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
