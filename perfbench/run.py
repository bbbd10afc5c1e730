"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine_mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing installed; ``--trace 1`` runs the same workload with span
wrappers and reports the per-layer metrics instead.  Every run checks
the program's outputs; a failed check prints ``"correct": false`` and
exits 1.  The line before the result is a diagnostics document: host
speed probes, interpreter, seeds, sizes and rates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
sys.path.insert(0, str(SOURCE))

WORKLOADS = ("engine_mixed", "serve_subs", "durable_burst")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if SOURCE not in Path(repro.__file__).resolve().parents:
        # Measuring an installed copy instead of the checkout would
        # attribute another version's numbers to this one.
        print(f"perfbench: repro imported from {repro.__file__}, not from {SOURCE}", file=sys.stderr)
        return 2

    import importlib

    import common

    started = time.perf_counter()
    cpu_before = common.cpu_reference_ms()
    workload = importlib.import_module(args.workload)
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    cpu_after = common.cpu_reference_ms()
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "cpu_reference_ms": {"start": cpu_before, "end": cpu_after},
        "host": common.host_diagnostics(),
        "problems": result.problems,
        **result.diagnostics,
    }
    print("diagnostics " + json.dumps(diagnostics, default=str))
    correct = not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                # A run that failed a check reports nothing: its numbers
                # would describe a wrong or invalid run.
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                }
                if correct
                else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
