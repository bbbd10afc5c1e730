"""Measurement helpers shared by the workloads: percentiles, freshness,
stationarity, host and process probes, and the result document.

The percentile, freshness and stationarity rules are unit-tested in
``tests/``; nothing in this module imports the program under test.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Where runs keep their scratch files (journals, span dumps, server
#: inputs).  Inside the checkout, ignored by git.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"

#: Largest relative change of |V| or |E| between the start and the end of
#: a run before the run is failed as non-stationary.  The generators keep
#: |V| exact and |E| exact or, for toggles over 480 pairs on 360 edges,
#: within a standard deviation of about 3%; 15% only trips on a generator
#: that shrinks or grows the graph.
STATIONARITY_LIMIT = 0.15


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``fraction`` percentile (the tail that supports it)."""
    return count - max(1, math.ceil(fraction * count - 1e-9))


def freshness(payload_times: list[float], positions: list[int], polls: list[tuple]) -> list[float]:
    """Per payload: seconds from its scheduled time to the first poll
    (by receive time) whose ``settled`` count reaches its position.

    ``polls`` is ``(received, settled)`` in receive order; ``settled``
    never decreases.  A payload no poll covers gets no sample.
    """
    samples = []
    cursor = 0
    for scheduled, position in zip(payload_times, positions):
        while cursor < len(polls) and polls[cursor][1] < position:
            cursor += 1
        if cursor == len(polls):
            break
        samples.append(polls[cursor][0] - scheduled)
    return samples


def drift(start: int, end: int) -> float:
    """Relative change from ``start`` to ``end`` (0 when both are 0)."""
    if start == 0:
        return 0.0 if end == 0 else math.inf
    return abs(end - start) / start


def stationarity_problems(start: dict, end: dict, limit: float = STATIONARITY_LIMIT) -> list[str]:
    """Sizes (``{"nodes": n, "edges": m}``) that drifted past ``limit``."""
    problems = []
    for key in sorted(start):
        change = drift(start[key], end[key])
        if change > limit:
            problems.append(f"|{key}| drifted {change:.1%} ({start[key]} -> {end[key]}), limit {limit:.0%}")
    return problems


def graph_sizes(graph) -> dict:
    return {"nodes": graph.number_of_nodes, "edges": graph.number_of_edges}


def cpu_reference_ms() -> float:
    """Time one fixed pure-Python loop (a host-speed probe).

    Timed at the start and the end of every run: if both read slow, the
    host was slow, not the program.
    """
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(200_000):
        total += index * index % 7
        table[index & 1023] = total
    return (time.perf_counter() - started) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of another live process in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def process_cpu_seconds(pid: int) -> Optional[float]:
    """User + system CPU time of a live process, all threads, in seconds."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # Fields 14 and 15 of proc(5); the split above starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_diagnostics() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg": os.getloadavg() if hasattr(os, "getloadavg") else None,
        "executable": Path(sys.executable).name,
    }


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a name to ``(value, unit)``; ``problems`` lists every
    failed correctness, validity or stationarity check (any entry makes
    the run fail); ``diagnostics`` is free-form context printed before
    the result line.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)
