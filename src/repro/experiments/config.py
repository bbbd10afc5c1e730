"""Experiment grid configuration (Section VII-A) with scaled presets.

The paper's grid is: 5 datasets × pattern sizes (6,6)–(10,10) × ΔG scales
(6,200)–(10,1000) × 4 methods × 5 runs.  A pure-Python reproduction
cannot afford the raw sizes, so the presets scale the data-update counts
down together with the datasets (DESIGN.md documents the factors):

* ``tiny_config``   — single small cell, used by the integration tests;
* ``quick_config``  — the default for the benchmark harness; minutes.
* ``full_config``   — the complete grid at the larger synthetic scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Optional

from repro.batching.coalesce import DEFAULT_COALESCE_MIN_BATCH
from repro.batching.planner import PLAN_CHOICES
from repro.spl.backend import BACKEND_NAMES
from repro.workloads.datasets import dataset_names

#: Canonical method order used in every table (matches the paper's columns).
METHOD_ORDER: tuple[str, ...] = (
    "UA-GPNM",
    "UA-GPNM-NoPar",
    "EH-GPNM",
    "INC-GPNM",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid.

    Attributes
    ----------
    datasets:
        Dataset names (keys of :data:`repro.workloads.datasets.DATASETS`).
    dataset_scale:
        ``"quick"`` or ``"full"`` synthetic dataset scale.
    pattern_sizes:
        ``(nodes, edges)`` pairs for the generated pattern graphs.
    delta_scales:
        ``(pattern updates, data updates)`` pairs — the ΔG axis.
    methods:
        Method names to run (subset of :data:`METHOD_ORDER`).
    repetitions:
        Independent runs per cell (different workload seeds), averaged.
    seed:
        Base seed; every cell derives its own deterministic seed from it.
    batch_plan:
        Maintenance-strategy plan handed to every method (``"auto"`` —
        the default: cost-model routing per batch — or a forced
        ``"per-update"`` / ``"coalesced"`` / ``"partitioned"``; see
        :mod:`repro.batching.planner`).  ``None`` also selects
        ``"auto"``.
    coalesce_min_batch:
        The planner's crossover rule: ``auto``-planned batches below
        this size stay on per-update maintenance (default from the
        ``BENCH_batching.json`` crossover).
    slen_backend:
        ``SLen`` storage backend for every method: ``"sparse"``,
        ``"dense"`` or ``"auto"`` (see :mod:`repro.spl.backend`).
    dense_block_size:
        Block edge of the blocked dense ``SLen`` layout (``None`` uses
        :data:`repro.spl.dense.DEFAULT_DENSE_BLOCK_SIZE`); ignored when
        the sparse backend is selected (CLI: ``--dense-block-size``).
    service_deadline_seconds:
        Streaming-service latency deadline: how long an accepted delta
        may sit buffered before the service cuts the batch even though
        the planner's coalescing crossover has not been reached (CLI:
        ``ua-gpnm serve --deadline``).
    service_max_buffer:
        Streaming-service capacity backstop: the buffered batch is cut
        unconditionally at this size (CLI: ``ua-gpnm serve
        --max-buffer``).
    journal_dir:
        Directory for the streaming service's per-graph write-ahead
        journals; ``None`` disables durability (CLI: ``ua-gpnm serve
        --journal-dir``).
    service_settle_retries:
        How many times the streaming service retries a failed settle
        (with capped exponential backoff) before bisecting the batch
        and quarantining its poison deltas.
    service_snapshot_history:
        How many settled snapshot versions the streaming service
        retains per graph for time-travel (``as_of``) reads; older
        versions are evicted and raise ``VersionExpiredError``.
    service_max_subscriptions:
        Cap on standing patterns per streaming-service graph session
        (CLI: ``ua-gpnm serve --max-subscriptions``).
    service_push_notifications:
        Whether streaming-service settles push per-pattern match/top-k
        deltas to attached listeners (CLI: ``ua-gpnm serve
        --no-push`` disables).
    """

    datasets: tuple[str, ...] = field(default_factory=lambda: tuple(dataset_names()))
    dataset_scale: str = "quick"
    pattern_sizes: tuple[tuple[int, int], ...] = ((6, 6), (7, 7), (8, 8), (9, 9), (10, 10))
    delta_scales: tuple[tuple[int, int], ...] = ((6, 20), (7, 40), (8, 60), (9, 80), (10, 100))
    methods: tuple[str, ...] = METHOD_ORDER
    repetitions: int = 1
    seed: int = 2020
    coalesce_min_batch: int = DEFAULT_COALESCE_MIN_BATCH
    slen_backend: str = "sparse"
    dense_block_size: Optional[int] = None
    batch_plan: Optional[str] = "auto"
    service_deadline_seconds: float = 0.05
    service_max_buffer: int = 1024
    journal_dir: Optional[str] = None
    service_settle_retries: int = 2
    service_snapshot_history: int = 8
    service_max_subscriptions: int = 64
    service_push_notifications: bool = True

    def __post_init__(self) -> None:
        unknown = [m for m in self.methods if m not in METHOD_ORDER]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected a subset of {METHOD_ORDER}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.slen_backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown slen_backend {self.slen_backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.coalesce_min_batch < 0:
            raise ValueError("coalesce_min_batch must be non-negative")
        if self.dense_block_size is not None and self.dense_block_size < 1:
            raise ValueError("dense_block_size must be positive")
        if self.batch_plan is not None and self.batch_plan not in PLAN_CHOICES:
            raise ValueError(
                f"unknown batch_plan {self.batch_plan!r}; expected one of {PLAN_CHOICES}"
            )
        if self.service_deadline_seconds < 0:
            raise ValueError("service_deadline_seconds must be non-negative")
        if self.service_max_buffer < 1:
            raise ValueError("service_max_buffer must be at least 1")
        if self.service_settle_retries < 0:
            raise ValueError("service_settle_retries must be non-negative")
        if self.service_snapshot_history < 1:
            raise ValueError("service_snapshot_history must be at least 1")
        if self.service_max_subscriptions < 1:
            raise ValueError("service_max_subscriptions must be at least 1")

    @property
    def number_of_cells(self) -> int:
        """Grid size excluding the method axis."""
        return (
            len(self.datasets)
            * len(self.pattern_sizes)
            * len(self.delta_scales)
            * self.repetitions
        )


def tiny_config() -> ExperimentConfig:
    """A single-cell grid for integration tests."""
    return ExperimentConfig(
        datasets=("email-EU-core",),
        pattern_sizes=((6, 6),),
        delta_scales=((4, 12),),
        repetitions=1,
    )


def quick_config() -> ExperimentConfig:
    """The default benchmark grid: every dataset, trimmed pattern / ΔG axes."""
    return ExperimentConfig(
        datasets=tuple(dataset_names()),
        pattern_sizes=((6, 6), (8, 8), (10, 10)),
        delta_scales=((6, 20), (8, 40), (10, 60)),
        repetitions=1,
    )


def full_config() -> ExperimentConfig:
    """The complete scaled grid (several minutes of runtime)."""
    return ExperimentConfig(
        datasets=tuple(dataset_names()),
        dataset_scale="quick",
        pattern_sizes=((6, 6), (7, 7), (8, 8), (9, 9), (10, 10)),
        delta_scales=((6, 20), (7, 40), (8, 60), (9, 80), (10, 100)),
        repetitions=2,
    )
