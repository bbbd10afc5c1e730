"""Experiment runner: execute the grid and collect per-cell measurements.

For every cell (dataset, pattern size, ΔG scale, repetition) the runner

1. generates the synthetic dataset stand-in and a pattern graph,
2. computes the shared initial-query state (``SLen`` + IQuery) once,
3. generates the update batch for the cell's ΔG scale,
4. runs every requested method from the *same* initial state and the
   *same* batch, recording wall-clock time and work counters, and
5. (optionally) cross-checks every method's ``SQuery`` against the
   from-scratch oracle.

Only the subsequent query is timed, matching the paper's measurement of
query processing time given an already-answered initial query.  That
time includes building the elimination analysis and EH-Tree, which the
engines defer until first read: the runner builds them right after the
query and adds their build time, as the paper charges UA-GPNM and
EH-GPNM for their elimination work.
"""

from __future__ import annotations

import time

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import GPNMAlgorithm
from repro.batching.coalesce import DEFAULT_COALESCE_MIN_BATCH
from repro.algorithms.eh_gpnm import EHGPNM
from repro.algorithms.inc_gpnm import IncGPNM
from repro.algorithms.scratch import BatchGPNM
from repro.algorithms.ua_gpnm import UAGPNM
from repro.experiments.config import ExperimentConfig
from repro.graph.digraph import DataGraph
from repro.graph.pattern import PatternGraph
from repro.matching.gpnm import MatchResult, gpnm_query
from repro.spl.matrix import SLenMatrix
from repro.workloads.datasets import load_dataset
from repro.workloads.generators import DEFAULT_LABEL_ORDER
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch


#: Distance horizon used by the experiment harness.  Every generated
#: pattern bound is at most 3 and no generated pattern uses the ``"*"``
#: wildcard, so a bounded distance index with horizon 4 answers exactly
#: the same queries as the full all-pairs matrix while being far cheaper
#: to maintain (see the substitution table in DESIGN.md).
SLEN_HORIZON: int = 4


@dataclass(frozen=True)
class MeasurementRecord:
    """One method's measurement in one grid cell."""

    dataset: str
    pattern_size: tuple[int, int]
    delta_scale: tuple[int, int]
    repetition: int
    method: str
    elapsed_seconds: float
    refinement_passes: int
    slen_updates: int
    recomputed_rows: int
    eliminated_updates: int
    elimination_relations: int
    matches_oracle: Optional[bool] = None
    coalesced_batches: int = 0
    compiled_away_updates: int = 0
    slen_backend: str = "sparse"
    #: The requested batch plan and the strategy the planner chose (for
    #: INC-GPNM a coalescing choice means "compile first" — its
    #: maintenance is per-update by definition).
    batch_plan: str = "auto"
    plan_strategy: str = ""
    #: Wall-clock of the batch's ``SLen`` maintenance alone — the
    #: quantity the planner's cost model predicts.
    maintenance_seconds: float = 0.0


def _method_factory(name: str) -> Callable[..., GPNMAlgorithm]:
    """Map a method name to its constructor."""
    factories: dict[str, Callable[..., GPNMAlgorithm]] = {
        "UA-GPNM": lambda pattern, data, **kw: UAGPNM(pattern, data, use_partition=True, **kw),
        "UA-GPNM-NoPar": lambda pattern, data, **kw: UAGPNM(pattern, data, use_partition=False, **kw),
        "EH-GPNM": lambda pattern, data, **kw: EHGPNM(pattern, data, **kw),
        "INC-GPNM": lambda pattern, data, **kw: IncGPNM(pattern, data, **kw),
        "Scratch-GPNM": lambda pattern, data, **kw: BatchGPNM(pattern, data, **kw),
    }
    try:
        return factories[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r}") from None


def run_cell(
    data: DataGraph,
    pattern: PatternGraph,
    delta_scale: tuple[int, int],
    methods: tuple[str, ...],
    seed: int,
    dataset_name: str = "custom",
    pattern_size: Optional[tuple[int, int]] = None,
    repetition: int = 0,
    verify_against_oracle: bool = False,
    shared_slen: Optional[SLenMatrix] = None,
    shared_iquery: Optional[MatchResult] = None,
    coalesce_min_batch: int = DEFAULT_COALESCE_MIN_BATCH,
    slen_backend: str = "sparse",
    batch_plan: Optional[str] = None,
) -> list[MeasurementRecord]:
    """Run every method of one grid cell and return its measurement records."""
    if batch_plan is None:
        batch_plan = "auto"
    if pattern_size is None:
        pattern_size = (pattern.number_of_nodes, pattern.number_of_edges)
    if shared_slen is None:
        shared_slen = SLenMatrix.from_graph(data, horizon=SLEN_HORIZON, backend=slen_backend)
    if shared_iquery is None:
        shared_iquery = gpnm_query(pattern, data, shared_slen, enforce_totality=False)
    num_pattern_updates, num_data_updates = delta_scale
    batch = generate_update_batch(
        data,
        pattern,
        UpdateWorkloadSpec(
            num_pattern_updates=num_pattern_updates,
            num_data_updates=num_data_updates,
            seed=seed,
        ),
    )

    oracle_result: Optional[MatchResult] = None
    if verify_against_oracle:
        oracle = BatchGPNM(
            pattern, data, precomputed_slen=shared_slen, precomputed_relation=shared_iquery
        )
        oracle_result = oracle.subsequent_query(batch).result

    records: list[MeasurementRecord] = []
    for method in methods:
        factory = _method_factory(method)
        algorithm = factory(
            pattern,
            data,
            precomputed_slen=shared_slen,
            precomputed_relation=shared_iquery,
            batch_plan=batch_plan,
            coalesce_min_batch=coalesce_min_batch,
            slen_backend=slen_backend,
        )
        outcome = algorithm.subsequent_query(batch)
        started = time.perf_counter()
        outcome.eh_tree  # builds the deferred elimination analysis and EH-Tree
        elapsed_seconds = outcome.stats.elapsed_seconds + time.perf_counter() - started
        matches_oracle = None
        if oracle_result is not None:
            matches_oracle = outcome.result == oracle_result
        stats = outcome.stats
        records.append(
            MeasurementRecord(
                dataset=dataset_name,
                pattern_size=pattern_size,
                delta_scale=delta_scale,
                repetition=repetition,
                method=method,
                elapsed_seconds=elapsed_seconds,
                refinement_passes=stats.refinement_passes,
                slen_updates=stats.slen_updates,
                recomputed_rows=stats.recomputed_rows,
                eliminated_updates=stats.eliminated_updates,
                elimination_relations=stats.elimination_relations,
                matches_oracle=matches_oracle,
                coalesced_batches=stats.coalesced_batches,
                compiled_away_updates=stats.compiled_away_updates,
                slen_backend=algorithm.slen_backend,
                batch_plan=batch_plan,
                plan_strategy=stats.planned_strategy,
                maintenance_seconds=stats.maintenance_seconds,
            )
        )
    return records


def iter_cells(config: ExperimentConfig) -> Iterator[tuple[str, tuple[int, int], tuple[int, int], int]]:
    """Enumerate the grid cells of ``config`` in a deterministic order."""
    for dataset in config.datasets:
        for pattern_size in config.pattern_sizes:
            for delta_scale in config.delta_scales:
                for repetition in range(config.repetitions):
                    yield dataset, pattern_size, delta_scale, repetition


def run_experiment(
    config: ExperimentConfig,
    verify_against_oracle: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> list[MeasurementRecord]:
    """Run the whole grid described by ``config``."""
    records: list[MeasurementRecord] = []
    cache: dict[tuple[str, tuple[int, int]], tuple[DataGraph, PatternGraph, SLenMatrix, MatchResult]] = {}
    for dataset_name, pattern_size, delta_scale, repetition in iter_cells(config):
        key = (dataset_name, pattern_size)
        if key not in cache:
            data = load_dataset(dataset_name, scale=config.dataset_scale)
            # Labels are passed in tier order and the pattern respects it so
            # that pattern edges follow the dominant direction of the
            # synthetic social graphs (otherwise most initial queries would
            # be empty and the matching work would be trivial).
            ordered_labels = tuple(
                label for label in DEFAULT_LABEL_ORDER if label in data.labels()
            ) or tuple(sorted(data.labels()))
            pattern = generate_pattern(
                PatternSpec(
                    num_nodes=pattern_size[0],
                    num_edges=pattern_size[1],
                    labels=ordered_labels,
                    min_bound=2,
                    max_bound=3,
                    star_probability=0.0,
                    respect_label_order=True,
                    seed=config.seed + pattern_size[0],
                )
            )
            slen = SLenMatrix.from_graph(data, horizon=SLEN_HORIZON, backend=config.slen_backend)
            iquery = gpnm_query(pattern, data, slen, enforce_totality=False)
            cache[key] = (data, pattern, slen, iquery)
        data, pattern, slen, iquery = cache[key]
        cell_seed = (
            config.seed
            + 7919 * repetition
            + 31 * delta_scale[1]
            + 17 * pattern_size[0]
            + sum(ord(ch) for ch in dataset_name)
        )
        if progress is not None:
            progress(
                f"{dataset_name} pattern={pattern_size} dG={delta_scale} rep={repetition}"
            )
        records.extend(
            run_cell(
                data,
                pattern,
                delta_scale,
                config.methods,
                seed=cell_seed,
                dataset_name=dataset_name,
                pattern_size=pattern_size,
                repetition=repetition,
                verify_against_oracle=verify_against_oracle,
                shared_slen=slen,
                shared_iquery=iquery,
                coalesce_min_batch=config.coalesce_min_batch,
                slen_backend=config.slen_backend,
                batch_plan=config.batch_plan,
            )
        )
    return records
