"""Re-running a reconstructed journal window (the replay side).

:func:`replay` feeds a :class:`~repro.replay.log.ReplayWindow` through a
**fresh** :class:`~repro.service.service.StreamingUpdateService` and
records what the re-run produced, per settle and at the end, as a
:class:`ReplayRun` — the comparable artifact the
:class:`~repro.replay.verify.ReplayVerifier` consumes.

Two modes:

* ``"faithful"`` (default) — the window's recorded settle boundaries are
  reproduced exactly: the service runs with admission auto-cuts off
  (:attr:`~repro.service.service.ServiceConfig.autocut`), each
  :class:`~repro.replay.log.SettleGroup` is submitted payload by payload
  and then force-settled with a drain.  Per-settle observations align
  one-to-one with the recorded checkpoints, so two faithful runs under
  different configurations are comparable settle by settle.
* ``"readmit"`` — the deltas are pushed through the replayed
  configuration's *own* admission path (planner crossover, capacity,
  deadline), so settle boundaries are whatever the replayed config
  chooses.  Only the final state is comparable; this is the mode for
  "would this config have kept up / converged the same?" questions.

Any configuration axis can be overridden per run: ``SLen`` backend and
dense block size, batch plan, snapshot history depth, the label
partition, and the subscription registry itself (defaults to the
registry recorded at the window start).  What is expected to be stable
across such overrides is *semantic* state — match sets, top-k rankings,
SLen distances, graph content, lifetime stamps — not internal layout;
see ``docs/ARCHITECTURE.md`` ("Record & replay") for the exact
determinism contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.batching.planner import STRATEGY_AUTO
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    Update,
)
from repro.replay.log import ReplayError, ReplayWindow
from repro.service.service import (
    AlgorithmFactory,
    ServiceConfig,
    StreamingUpdateService,
    default_algorithm_factory,
)
from repro.service.subscriptions import Subscription

#: The two replay modes (see the module docstring).
MODE_FAITHFUL = "faithful"
MODE_READMIT = "readmit"
REPLAY_MODES: tuple[str, ...] = (MODE_FAITHFUL, MODE_READMIT)

#: Defaults of the observation probes: top-k depth per pattern and the
#: number of deterministic SLen probe pairs per settle.
DEFAULT_OBSERVE_K = 5
DEFAULT_SLEN_PROBES = 32

#: Ceiling on the automatic snapshot-history depth (every checkpointed
#: version retained for the final ``as_of`` sweep, up to this many).
MAX_AUTO_HISTORY = 512


def payload_doc(updates: Sequence[Update]) -> dict:
    """Serialize journal updates back to one wire delta payload.

    The inverse of what ingestion did to produce the journal record:
    deltas were accepted in deletes-before-inserts payload order, so
    splitting them back into ``deletes`` / ``inserts`` lists (each in
    recorded order) makes :class:`~repro.service.delta.UpdateData`
    lower them to exactly the recorded update sequence.
    """
    inserts: list[dict] = []
    deletes: list[dict] = []
    for update in updates:
        if isinstance(update, EdgeInsertion):
            inserts.append(
                {"type": "edge", "source": update.source, "target": update.target}
            )
        elif isinstance(update, EdgeDeletion):
            deletes.append(
                {"type": "edge", "source": update.source, "target": update.target}
            )
        elif isinstance(update, NodeInsertion):
            inserts.append(
                {
                    "type": "node",
                    "node": update.node,
                    "labels": list(update.labels),
                    "edges": [list(edge) for edge in update.edges],
                }
            )
        elif isinstance(update, NodeDeletion):
            deletes.append(
                {
                    "type": "node",
                    "node": update.node,
                    "labels": list(update.labels),
                    "edges": [list(edge) for edge in update.edges],
                }
            )
        else:
            raise ReplayError(f"cannot replay update of type {type(update).__name__}")
    return {"inserts": inserts, "deletes": deletes}


# ----------------------------------------------------------------------
# Observations — the comparable record of one re-run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SettleObservation:
    """What one settled boundary looked like in the replayed run.

    ``recorded_seq`` / ``recorded_version`` carry the checkpoint the
    boundary reproduces (``None`` for the boundary-less window tail);
    ``version`` is the *replayed* snapshot version.  Matches, top-k and
    SLen probes are normalized to plain JSON-able structures so two
    runs compare by value regardless of backend.
    """

    index: int
    recorded_seq: Optional[int]
    recorded_version: Optional[int]
    version: int
    node_count: int
    edge_count: int
    matches: Mapping[str, Mapping[str, tuple[str, ...]]]
    top_k: Mapping[str, Mapping[str, tuple[tuple[str, float], ...]]]
    slen: tuple[tuple[str, str, Optional[float]], ...]

    def as_dict(self) -> dict:
        """JSON-able copy (benchmark artifacts, CLI reports)."""
        return {
            "index": self.index,
            "recorded_seq": self.recorded_seq,
            "recorded_version": self.recorded_version,
            "version": self.version,
            "nodes": self.node_count,
            "edges": self.edge_count,
            "matches": {
                pid: {u: list(vs) for u, vs in per.items()}
                for pid, per in self.matches.items()
            },
            "top_k": {
                pid: {u: [list(entry) for entry in entries] for u, entries in per.items()}
                for pid, per in self.top_k.items()
            },
            "slen": [list(probe) for probe in self.slen],
        }


@dataclass(frozen=True)
class FinalObservation:
    """The replayed run's end state, including the ``as_of`` sweep.

    ``as_of`` maps each retained version's *offset from latest* (0 =
    latest, 1 = one settle back, ...) to the per-pattern matches read
    through the time-travel path at that version — offsets rather than
    raw versions so runs compare even if their absolute numbering ever
    diverged.  ``history`` is the canonical lifetime-stamp document.
    """

    version: int
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    history: dict
    retained_versions: tuple[int, ...]
    as_of: Mapping[int, Mapping[str, Mapping[str, tuple[str, ...]]]]

    def as_dict(self) -> dict:
        """JSON-able copy (benchmark artifacts, CLI reports)."""
        return {
            "version": self.version,
            "nodes": list(self.nodes),
            "edges": [list(edge) for edge in self.edges],
            "history": self.history,
            "retained_versions": list(self.retained_versions),
            "as_of": {
                str(offset): {
                    pid: {u: list(vs) for u, vs in per.items()}
                    for pid, per in patterns.items()
                }
                for offset, patterns in self.as_of.items()
            },
        }


@dataclass
class ReplayRun:
    """Everything one :func:`replay` invocation produced.

    ``settles`` is empty in ``"readmit"`` mode (boundaries are the
    replayed config's own and do not align with the recorded run);
    ``final`` is always present.
    """

    key: str
    mode: str
    overrides: dict
    settles: tuple[SettleObservation, ...]
    final: FinalObservation
    deltas_submitted: int = 0
    updates_accepted: int = 0
    updates_rejected: int = 0
    settle_count: int = 0
    wall_seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Replayed updates settled per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.updates_accepted / self.wall_seconds

    def as_dict(self) -> dict:
        """JSON-able copy (benchmark artifacts, CLI reports)."""
        return {
            "key": self.key,
            "mode": self.mode,
            "overrides": self.overrides,
            "settles": [obs.as_dict() for obs in self.settles],
            "final": self.final.as_dict(),
            "deltas_submitted": self.deltas_submitted,
            "updates_accepted": self.updates_accepted,
            "updates_rejected": self.updates_rejected,
            "settle_count": self.settle_count,
            "wall_seconds": self.wall_seconds,
        }


# ----------------------------------------------------------------------
# Normalized reads
# ----------------------------------------------------------------------
def _normalize_matches(raw: Mapping) -> dict[str, tuple[str, ...]]:
    """Sort a ``{pattern_node: {data_nodes}}`` relation into stable form."""
    return {
        str(u): tuple(sorted(str(v) for v in vs)) for u, vs in sorted(
            raw.items(), key=lambda item: str(item[0])
        )
    }


def _observe_matches(
    service: StreamingUpdateService, key: str, as_of: Optional[int] = None
) -> dict[str, dict[str, tuple[str, ...]]]:
    """Per-pattern normalized match sets at ``as_of`` (default latest)."""
    snapshot = service.snapshot(key, as_of=as_of)
    return {
        pattern_id: _normalize_matches(snapshot.state_for(pattern_id).result.as_dict())
        for pattern_id in snapshot.pattern_ids
    }


def _observe_top_k(
    service: StreamingUpdateService, key: str, k: int
) -> dict[str, dict[str, tuple[tuple[str, float], ...]]]:
    """Per-pattern normalized top-``k`` rankings at the latest version."""
    snapshot = service.snapshot(key)
    observed: dict[str, dict[str, tuple[tuple[str, float], ...]]] = {}
    for pattern_id in snapshot.pattern_ids:
        ranking = service.top_k(key, k, pattern_id=pattern_id)
        observed[pattern_id] = {
            str(u): tuple(
                (str(entry.data_node), round(float(entry.score), 6))
                for entry in entries
            )
            for u, entries in sorted(ranking.items(), key=lambda item: str(item[0]))
        }
    return observed


def _observe_slen(
    service: StreamingUpdateService, key: str, probes: int
) -> tuple[tuple[str, str, Optional[float]], ...]:
    """Deterministic SLen probe pairs over the snapshot's node set.

    The pair set is a fixed stride walk over the sorted node list — no
    RNG, so two runs over value-equal graphs probe identical pairs.
    ``None`` encodes an unreachable pair (``INF`` is not JSON-able).
    """
    snapshot = service.snapshot(key)
    nodes = sorted(snapshot.data.nodes(), key=str)
    count = len(nodes)
    if count < 2 or probes < 1:
        return ()
    observed: list[tuple[str, str, Optional[float]]] = []
    for index in range(min(probes, count)):
        source = nodes[(index * 13) % count]
        target = nodes[(index * 7 + count // 2) % count]
        if source == target:
            continue
        distance = float(snapshot.slen.distance(source, target))
        observed.append(
            (str(source), str(target), None if distance == float("inf") else distance)
        )
    return tuple(observed)


def _observe_settle(
    service: StreamingUpdateService,
    key: str,
    index: int,
    boundary,
    observe_k: int,
    slen_probes: int,
) -> SettleObservation:
    """Freeze one settled boundary into a :class:`SettleObservation`."""
    snapshot = service.snapshot(key)
    return SettleObservation(
        index=index,
        recorded_seq=None if boundary is None else boundary.seq,
        recorded_version=None if boundary is None else boundary.version,
        version=snapshot.version,
        node_count=snapshot.data.number_of_nodes,
        edge_count=snapshot.data.number_of_edges,
        matches=_observe_matches(service, key),
        top_k=_observe_top_k(service, key, observe_k),
        slen=_observe_slen(service, key, slen_probes),
    )


def _observe_final(service: StreamingUpdateService, key: str) -> FinalObservation:
    """Freeze the run's end state, sweeping ``as_of`` over every
    retained version."""
    snapshot = service.snapshot(key)
    retained = service.stats(key)["snapshot"]["retained_versions"]
    latest = snapshot.version
    as_of: dict[int, dict[str, dict[str, tuple[str, ...]]]] = {}
    for version in retained:
        as_of[latest - version] = _observe_matches(service, key, as_of=version)
    return FinalObservation(
        version=latest,
        nodes=tuple(sorted(str(node) for node in snapshot.data.nodes())),
        edges=tuple(
            sorted((str(source), str(target)) for source, target in snapshot.data.edges())
        ),
        history=service.graph_history(key).canonical_doc(),
        retained_versions=tuple(retained),
        as_of=as_of,
    )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
async def replay(
    window: ReplayWindow,
    *,
    key: str = "replay",
    mode: str = MODE_FAITHFUL,
    slen_backend: Optional[str] = None,
    batch_plan: Optional[str] = None,
    use_partition: Optional[bool] = None,
    snapshot_history: Optional[int] = None,
    subscriptions: Optional[Sequence[Any]] = None,
    deadline_seconds: float = 0.0,
    max_buffer: int = 1_000_000,
    coalesce_min_batch: Optional[int] = None,
    algorithm_factory: AlgorithmFactory = default_algorithm_factory,
    observe_k: int = DEFAULT_OBSERVE_K,
    slen_probes: int = DEFAULT_SLEN_PROBES,
) -> ReplayRun:
    """Re-run ``window`` through a fresh service; returns the
    :class:`ReplayRun` record of what happened.

    ``subscriptions`` overrides the registry recorded at the window
    start — a sequence of :class:`~repro.service.subscriptions.Subscription`
    objects or serialized docs; recorded subscribe/unsubscribe control
    records inside the window still apply on top (subscribe with
    ``replace``).  ``deadline_seconds`` / ``max_buffer`` /
    ``coalesce_min_batch`` only matter in ``"readmit"`` mode, where the
    replayed config's own admission picks the settle boundaries.  See
    the module docstring for the faithful/readmit contract.
    """
    if mode not in REPLAY_MODES:
        raise ReplayError(f"unknown replay mode {mode!r}; expected one of {REPLAY_MODES}")
    groups = window.settle_groups()
    if snapshot_history is None:
        # Retain every version the window can mint so the final as_of
        # sweep covers each checkpointed version (plus base + tail).
        snapshot_history = min(len(groups) + 2, MAX_AUTO_HISTORY)
    faithful = mode == MODE_FAITHFUL
    config = ServiceConfig(
        # Faithful mode must never cut on its own: boundaries come from
        # the recorded checkpoints, forced below with drains.
        autocut=not faithful,
        deadline_seconds=3600.0 if faithful else deadline_seconds,
        max_buffer=max_buffer,
        coalesce_min_batch=(
            ServiceConfig.coalesce_min_batch
            if coalesce_min_batch is None
            else coalesce_min_batch
        ),
        batch_plan=batch_plan or STRATEGY_AUTO,
        use_partition=ServiceConfig.use_partition if use_partition is None else use_partition,
        slen_backend=slen_backend or ServiceConfig.slen_backend,
        snapshot_history=snapshot_history,
        push_notifications=False,
    )
    overrides = {
        "mode": mode,
        "slen_backend": config.slen_backend,
        "batch_plan": config.batch_plan,
        "use_partition": config.use_partition,
        "snapshot_history": config.snapshot_history,
        "subscriptions": "override" if subscriptions is not None else "recorded",
    }
    registry = _resolve_registry(window, subscriptions)
    service = StreamingUpdateService(config=config, algorithm_factory=algorithm_factory)
    run = ReplayRun(
        key=key,
        mode=mode,
        overrides=overrides,
        settles=(),
        final=None,  # type: ignore[arg-type] - set before return
    )
    started = time.perf_counter()
    try:
        await service.register(key, window.base_graph)
        for subscription in registry:
            await service.subscribe(
                key,
                subscription.pattern_id,
                subscription.pattern,
                k=subscription.k,
                replace=True,
            )
        observations: list[SettleObservation] = []
        if faithful:
            for index, group in enumerate(groups):
                await _submit_operations(service, key, group.operations, run)
                await service.drain()
                observations.append(
                    _observe_settle(
                        service, key, index, group.boundary, observe_k, slen_probes
                    )
                )
        else:
            for group in groups:
                await _submit_operations(service, key, group.operations, run)
            await service.drain()
        run.wall_seconds = time.perf_counter() - started
        run.settles = tuple(observations)
        run.final = _observe_final(service, key)
        stats = service.stats(key)
        run.settle_count = stats["settles"]
        run.stats = {
            "settles": stats["settles"],
            "accepted": stats["accepted"],
            "rejected": stats["rejected"],
            "cut_reasons": stats["cut_reasons"],
        }
    finally:
        await service.close()
    return run


def _resolve_registry(
    window: ReplayWindow, override: Optional[Sequence[Any]]
) -> list[Subscription]:
    """The subscriptions to bind before the first replayed delta."""
    if override is None:
        return [Subscription.from_doc(doc) for doc in window.subscriptions]
    resolved: list[Subscription] = []
    for entry in override:
        if isinstance(entry, Subscription):
            resolved.append(entry)
        else:
            resolved.append(Subscription.from_doc(entry))
    return resolved


async def _submit_operations(
    service: StreamingUpdateService,
    key: str,
    operations,
    run: ReplayRun,
) -> None:
    """Feed one group's delta/subscribe/unsubscribe records in order."""
    for record in operations:
        if record.kind == "delta":
            receipt = await service.submit(key, payload_doc(record.updates))
            run.deltas_submitted += 1
            run.updates_accepted += receipt.accepted
            run.updates_rejected += receipt.rejected
        elif record.kind == "subscribe":
            subscription = Subscription.from_doc(record.subscription)
            await service.subscribe(
                key,
                subscription.pattern_id,
                subscription.pattern,
                k=subscription.k,
                replace=True,
            )
        elif record.kind == "unsubscribe":
            await service.unsubscribe(key, record.pattern_id)
