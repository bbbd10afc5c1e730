"""Asyncio streaming ingestion + query layer over the GPNM algorithms.

:class:`StreamingUpdateService` turns the batch-oriented
:class:`~repro.algorithms.base.GPNMAlgorithm` state machine into a
continuously-available — and, with a journal directory configured,
*durable* and *fault-tolerant* — service:

* **Ingestion** — :meth:`~StreamingUpdateService.submit` accepts one
  delta payload (:class:`~repro.service.delta.UpdateData`), validates
  every delta against the graph's *staged* state (settled state plus the
  not-yet-settled buffer), and appends the valid ones to the graph's
  buffer.  All mutation runs as actions on the graph's serialized
  :class:`~repro.service.queue.ActionQueue`, so concurrent submitters
  to one graph are applied in a single well-defined order while distinct
  graphs proceed independently.  Payloads submitted back to back, with
  nothing else scheduled between them, join one ingest action.
* **Durability** — with :attr:`ServiceConfig.journal_dir` set, every
  accepted payload is fsync-appended to the graph's write-ahead
  :class:`~repro.service.journal.GraphJournal` *before* its receipt is
  returned; the payloads of one ingest action share one write and one
  fsync (group commit).  Settles append a checkpoint record and trigger
  size-bounded compaction.  :meth:`register` recovers any journal
  found for the key: the compaction snapshot becomes the base graph and the
  uncheckpointed tail is replayed through the normal admission path, so
  a crash loses nothing a receipt was issued for.
* **Admission** — after every ingest the service checks whether the
  buffered batch should be *cut*: swapped out and queued for the
  algorithm's ``subsequent_query``.  It cuts when the buffer hits
  ``max_buffer`` (capacity backstop), when the batch planner
  (:func:`~repro.batching.planner.plan_batch`) routes the buffered
  batch off per-update maintenance (the coalescing crossover), or when
  the configured latency ``deadline`` expires.  A buffer smaller than
  the planner's crossover size is per-update by the planner's rule 1,
  so admission skips the planner until the buffer reaches it.
* **Settling, and what happens when it fails** — cut batches queue on
  the session in cut order, and one settle action takes every batch
  already queued (up to ``max_buffer`` deltas) and settles their
  concatenation *once*: a backlog that cut several times before its
  first settle ran pays one ``SLen`` pass, one publish and one
  checkpoint, not one per cut.  A caller that awaits each receipt never
  has two cuts queued, so its settle boundaries are unchanged.  A
  settle attempt makes one executor call (engine pass, fan-out,
  snapshot build), serialized on the graph's queue, and then commits
  its snapshot on the event loop: the loop is the only writer of
  session state, so loop-side reads never see it change under them.
  A settle that raises is retried with capped exponential backoff on an
  engine rebuilt from the last published graph; if the batch
  still fails, it is bisected to isolate the *poison* deltas, which are
  durably recorded in the graph's
  :class:`~repro.service.journal.DeadLetterJournal` while every
  innocent delta settles normally.  Reads keep answering from the last
  good snapshot throughout.
* **Subscriptions** — a graph session binds *any number* of standing
  patterns, not one: :meth:`~StreamingUpdateService.subscribe` /
  :meth:`~StreamingUpdateService.unsubscribe` manage the registry, each
  subscription owning its own match relation and optional top-k.  A
  settle runs the pattern-independent work (graph application, ``SLen``
  maintenance, affected-region computation) **once** through the
  session's single engine, then fans the resulting
  :class:`~repro.matching.shared.SharedDelta` out to every
  subscription: a sound label-intersection filter skips untouched
  patterns, touched ones get one amendment pass.  Subscriptions are
  journaled (they ride compaction and recover on restart) and each
  settle pushes per-pattern match/top-k deltas to attached listeners.
* **Reads** — :meth:`~StreamingUpdateService.matches`,
  :meth:`~StreamingUpdateService.top_k` and
  :meth:`~StreamingUpdateService.slen_distance` answer from the last
  published snapshot, addressed by ``(key, pattern_id)`` (``None``
  resolves to the default pattern for backward compatibility).  They
  are plain synchronous methods that never enter the action queue, so
  a read never blocks behind an in-flight settle.
* **Shutdown** — :meth:`~StreamingUpdateService.drain` cuts every
  non-empty buffer and waits for all queues to go quiescent;
  :meth:`~StreamingUpdateService.close` then stops the workers.  Every
  accepted delta is settled (or durably dead-lettered) before ``close``
  returns.  :meth:`~StreamingUpdateService.abort` is the opposite: a
  simulated ``kill -9`` that stops everything *without* settling, used
  by the fault-injection tests to prove journal recovery.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import itertools
import logging
import time
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.algorithms import GPNMAlgorithm, UAGPNM
from repro.batching.coalesce import DEFAULT_COALESCE_MIN_BATCH
from repro.batching.planner import (
    PLAN_CHOICES,
    STRATEGY_AUTO,
    STRATEGY_PER_UPDATE,
    BatchStatistics,
    plan_batch,
)
from repro.graph import DataGraph, PatternGraph
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    Update,
    UpdateBatch,
    UpdateError,
)
from repro.matching import MatchResult, RankedMatch, amend_match, top_k_matches
from repro.service.delta import DeltaError, UpdateData
from repro.service.faults import (
    MID_SETTLE,
    PRE_CHECKPOINT,
    PRE_SETTLE,
    NULL_INJECTOR,
    FaultInjector,
)
from repro.service.journal import (
    DEFAULT_COMPACT_BYTES,
    DeadLetterJournal,
    GraphJournal,
    JournalError,
    journal_slug,
)
from repro.service.queue import ActionScheduler, QueueClosedError
from repro.service.subscriptions import (
    DEFAULT_PATTERN_ID,
    PushListener,
    Subscription,
    SubscriptionEvent,
    SubscriptionState,
)
from repro.spl.matrix import SLenMatrix
from repro.versioning import (
    DEFAULT_SNAPSHOT_HISTORY,
    GraphHistory,
    SnapshotHandle,
    VersionStore,
)

logger = logging.getLogger("repro.service")

#: Cut reasons reported in receipts and per-graph statistics.
CUT_CROSSOVER = "crossover"
CUT_CAPACITY = "capacity"
CUT_DEADLINE = "deadline"
CUT_DRAIN = "drain"


class ServiceError(RuntimeError):
    """Service-level failure (unknown graph, duplicate registration...)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`StreamingUpdateService`.

    Attributes
    ----------
    deadline_seconds:
        Maximum time an accepted delta may sit buffered before the
        service cuts the batch anyway.  ``0`` cuts after every payload
        (lowest staleness, least coalescing benefit).
    max_buffer:
        Capacity backstop: the buffer is cut as soon as it holds this
        many deltas regardless of planner or deadline.  It also caps one
        settle: a settle that merges queued cut batches takes them only
        while their total stays within this many deltas (at least one
        batch), and leaves the rest to a follow-up settle.
    autocut:
        Whether admission cuts batches on its own (planner crossover
        and latency deadline).  Off, only the ``max_buffer`` capacity
        backstop and explicit :meth:`StreamingUpdateService.drain`
        calls cut — the mode the replay driver uses to reproduce a
        recorded run's settle boundaries exactly instead of letting
        the replayed configuration pick its own.
    coalesce_min_batch:
        The planner's crossover batch size (rule 1 of
        :func:`~repro.batching.planner.plan_batch`).
    batch_plan:
        Plan handed to the underlying algorithm (``"auto"`` routes per
        batch through the cost model).
    use_partition:
        Whether the default algorithm factory builds UA-GPNM with the
        label partition (Section V).
    slen_backend:
        ``SLen`` storage backend, passed through to the algorithm.
    journal_dir:
        Directory for per-graph write-ahead journals.  ``None`` (the
        default) disables durability: accepted-but-unsettled deltas die
        with the process, exactly the pre-journal behaviour.
    journal_compact_bytes:
        Compaction threshold: once a graph's journal exceeds this many
        bytes (and a checkpoint has advanced), it is rewritten as a
        snapshot plus the uncheckpointed tail.
    settle_retries:
        How many times a failed settle is retried (on an engine rebuilt
        from the last published graph) before the batch is bisected and
        its poison deltas quarantined.  ``0`` goes straight to
        bisection.
    settle_backoff_seconds / settle_backoff_cap_seconds:
        Capped exponential backoff between settle retries: retry ``n``
        waits ``min(backoff * 2**(n-1), cap)`` seconds.
    snapshot_history:
        How many settled snapshot versions each graph retains for
        time-travel reads (``as_of``).  Older versions are evicted from
        the :class:`~repro.versioning.store.VersionStore` (reads of them
        raise :class:`~repro.versioning.store.VersionExpiredError`), but
        stay alive for readers that already pinned them.
    max_subscriptions:
        Cap on standing patterns per graph session.  The marginal cost
        of a subscription is one filter + amendment per settle, but the
        cap keeps a misbehaving client from degrading every settle on
        the graph.
    push_notifications:
        Whether settles produce per-pattern push deltas for attached
        listeners (library callbacks and TCP ``subscribe`` clients).
        Off, subscriptions still settle and serve reads — clients poll.
    """

    deadline_seconds: float = 0.05
    max_buffer: int = 1024
    autocut: bool = True
    coalesce_min_batch: int = DEFAULT_COALESCE_MIN_BATCH
    batch_plan: str = STRATEGY_AUTO
    use_partition: bool = True
    slen_backend: str = "sparse"
    journal_dir: Optional[str] = None
    journal_compact_bytes: int = DEFAULT_COMPACT_BYTES
    settle_retries: int = 2
    settle_backoff_seconds: float = 0.05
    settle_backoff_cap_seconds: float = 1.0
    snapshot_history: int = DEFAULT_SNAPSHOT_HISTORY
    max_subscriptions: int = 64
    push_notifications: bool = True

    def __post_init__(self) -> None:
        if self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if self.max_buffer < 1:
            raise ValueError("max_buffer must be at least 1")
        if self.coalesce_min_batch < 0:
            raise ValueError("coalesce_min_batch must be non-negative")
        if self.batch_plan not in PLAN_CHOICES:
            raise ValueError(
                f"unknown batch_plan {self.batch_plan!r}; expected one of {PLAN_CHOICES}"
            )
        if self.journal_compact_bytes < 1:
            raise ValueError("journal_compact_bytes must be positive")
        if self.settle_retries < 0:
            raise ValueError("settle_retries must be non-negative")
        if self.settle_backoff_seconds < 0 or self.settle_backoff_cap_seconds < 0:
            raise ValueError("settle backoff values must be non-negative")
        if self.snapshot_history < 1:
            raise ValueError("snapshot_history must retain at least one version")
        if self.max_subscriptions < 1:
            raise ValueError("max_subscriptions must allow at least one pattern")


@dataclass(frozen=True)
class GraphSnapshot:
    """One settled, immutable state of a registered graph.

    Reads answer from a snapshot without coordination: the service only
    ever *replaces* the published snapshot (never mutates it in place) —
    the red-green switch.  ``slen`` is a copy-on-write fork of the
    algorithm's matrix (see :meth:`repro.spl.matrix.SLenMatrix.fork`),
    so publishing a snapshot shares every unmodified block with the
    live state instead of deep-copying the whole grid.

    Snapshots are *pattern-aware*: ``subscriptions`` maps each standing
    pattern id to its frozen
    :class:`~repro.service.subscriptions.SubscriptionState` (pattern +
    match result + optional top-k), all sharing this one ``(data,
    slen)`` pair.  The pattern-unaddressed accessors ``result`` /
    ``pattern`` resolve the ``"default"`` subscription.
    """

    version: int
    data: DataGraph
    slen: SLenMatrix
    subscriptions: Mapping[str, SubscriptionState] = field(default_factory=dict)

    def state_for(self, pattern_id: Optional[str] = None) -> SubscriptionState:
        """The subscription state for ``pattern_id`` (``None`` = default)."""
        resolved = DEFAULT_PATTERN_ID if pattern_id is None else pattern_id
        try:
            return self.subscriptions[resolved]
        except KeyError:
            raise ServiceError(
                f"no subscription {resolved!r} in snapshot version {self.version}"
            ) from None

    @property
    def pattern_ids(self) -> tuple[str, ...]:
        """The subscribed pattern ids (registration order)."""
        return tuple(self.subscriptions)

    @property
    def result(self) -> MatchResult:
        """The default subscription's match result (legacy accessor)."""
        return self.state_for().result

    @property
    def pattern(self) -> PatternGraph:
        """The default subscription's pattern (legacy accessor)."""
        return self.state_for().pattern


@dataclass(frozen=True)
class IngestReceipt:
    """The outcome of one submitted delta payload.

    Attributes
    ----------
    accepted / rejected:
        How many of the payload's deltas were buffered vs. refused
        (stale or conflicting against the staged state).
    pending:
        Buffered-but-unsettled deltas on the graph right after this
        payload (0 means the payload triggered a cut).
    cut:
        Why this payload triggered a batch cut (``"crossover"``,
        ``"capacity"`` or ``"deadline"``), or ``None`` if the deltas
        remain buffered.
    errors:
        One message per rejected delta, in payload order.

    When the service runs with a journal, a receipt with ``accepted >
    0`` is a *durability* promise: the accepted deltas were fsynced to
    the write-ahead journal, together with the rest of their ingest
    group, before this receipt was created.
    """

    accepted: int
    rejected: int
    pending: int
    cut: Optional[str] = None
    errors: tuple[str, ...] = ()


@dataclass
class _IngestGroup:
    """Payloads submitted back to back on one graph, ingested by one action."""

    #: ``(payload, receipt future)`` in submission order.
    members: list[tuple[UpdateData, asyncio.Future]] = field(default_factory=list)
    #: Deltas across ``members`` (the backlog they will add).
    deltas: int = 0
    #: The queue future of the action that ingests the group.
    action: Optional[asyncio.Future] = None

    def fail(self, action: asyncio.Future) -> None:
        """Done-callback of ``action``: hand its failure to every open receipt.

        A failed receipt's exception is marked retrieved at once, so a
        caller may drop the receipt (fire and forget) without asyncio
        logging it; a caller that awaits it still gets the exception.
        """
        for _, receipt in self.members:
            if receipt.done():
                continue
            if action.cancelled():
                receipt.cancel()
            elif action.exception() is not None:
                receipt.set_exception(action.exception())
                receipt.exception()


@dataclass
class _GraphSession:
    """Mutable per-graph state, touched only from the graph's queue.

    Only the event loop writes it: executor steps compute and return,
    and the queue action commits their results.
    """

    key: str
    algorithm: GPNMAlgorithm
    #: Settled state plus the buffered-but-unsettled deltas; the
    #: submit-time validation target.
    staged: DataGraph
    snapshot: GraphSnapshot
    journal: Optional[GraphJournal] = None
    dead_letter: Optional[DeadLetterJournal] = None
    buffer: UpdateBatch = field(default_factory=UpdateBatch)
    #: Cut batches not yet settled, ``(batch, seq_high)`` in cut order.
    cuts: list[tuple[UpdateBatch, int]] = field(default_factory=list)
    #: Whether a settle action for ``cuts`` is scheduled and not started.
    settle_queued: bool = False
    #: Ingest groups scheduled but not started, in queue order.  New
    #: submits join the last one while its action is the queue's tail.
    waiting_groups: list[_IngestGroup] = field(default_factory=list)
    #: Deltas in the cut batch the running settle action took.
    settling: int = 0
    #: Cut batches absorbed into an earlier cut's settle.
    merged_cuts: int = 0
    #: Bumped on every cut; lets an expired deadline recognise that the
    #: buffer it armed for was already cut.
    generation: int = 0
    deadline_handle: Optional[asyncio.TimerHandle] = None
    #: Journal seq of the most recently appended (or replayed) payload;
    #: captured at cut time as the batch's checkpoint high-water mark.
    last_seq: int = 0
    accepted: int = 0
    rejected: int = 0
    settled: int = 0
    settles: int = 0
    #: ``settles`` split by provenance: a settle whose batch consumed
    #: at least one journal-replayed delta counts as *recovered*, every
    #: other as *live* (``settles == recovered_settles + live_settles``).
    recovered_settles: int = 0
    live_settles: int = 0
    #: Journal-replayed deltas accepted but not yet settled; drained by
    #: the settle classification above.
    recovery_pending: int = 0
    settle_failures: int = 0
    settle_retries: int = 0
    settle_seconds: float = 0.0
    quarantined: int = 0
    rebuilds: int = 0
    recovered: int = 0
    recovery_skipped: int = 0
    cut_reasons: Counter = field(default_factory=Counter)
    #: Bounded ring of retained snapshot versions (time-travel reads).
    versions: VersionStore = field(default_factory=VersionStore)
    #: created/expired lifetime stamps per node/edge (KBase idiom).
    history: GraphHistory = field(default_factory=GraphHistory)
    #: Cumulative wall time spent building + publishing snapshots.
    publish_seconds: float = 0.0
    #: Standing patterns, ``pattern_id`` → live state (subscribe order).
    subscriptions: dict[str, Subscription] = field(default_factory=dict)
    #: Shared-maintenance accounting.  A settle bumps the first two
    #: exactly once no matter how many patterns are subscribed — the
    #: acceptance criterion of shared maintenance — while the fan-out
    #: counters split per-pattern work into amendments vs. provable
    #: skips.
    maintenance_passes: int = 0
    slen_update_passes: int = 0
    fanout_amend_passes: int = 0
    fanout_skips: int = 0
    notifications_sent: int = 0


#: Builds the per-graph algorithm; injectable for tests (e.g. a slow
#: settle wrapper proving reads do not block, or the fault harness's
#: flaky wrapper proving retry and quarantine).
AlgorithmFactory = Callable[[DataGraph, "ServiceConfig"], GPNMAlgorithm]


def default_algorithm_factory(data: DataGraph, config: ServiceConfig) -> GPNMAlgorithm:
    """The stock factory: UA-GPNM over an empty pattern, wired to the
    service's tunables (standing patterns live in the subscriptions)."""
    return UAGPNM(
        PatternGraph(),
        data,
        use_partition=config.use_partition,
        batch_plan=config.batch_plan,
        coalesce_min_batch=config.coalesce_min_batch,
        slen_backend=config.slen_backend,
    )


class StreamingUpdateService:
    """Per-graph serialized streaming ingestion over GPNM algorithms.

    See the module docstring for the architecture.  All coroutine
    methods must run on the service's event loop; the read methods are
    synchronous and loop-free.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        algorithm_factory: AlgorithmFactory = default_algorithm_factory,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._factory = algorithm_factory
        self._faults = faults if faults is not None else NULL_INJECTOR
        self._scheduler = ActionScheduler()
        self._sessions: dict[str, _GraphSession] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Registration and recovery
    # ------------------------------------------------------------------
    async def register(self, key: str, data: DataGraph) -> GraphSnapshot:
        """Register ``key``, prepare its engine, recover its journal.

        Registration binds no pattern: standing patterns are attached
        afterwards with :meth:`subscribe`.  The session's single engine
        is built over an *empty* pattern — it exists to run the shared
        per-batch work (graph application, ``SLen`` maintenance,
        affected-region computation) that every subscription then
        consumes.

        With :attr:`ServiceConfig.journal_dir` set, an existing journal
        for ``key`` takes precedence over ``data``: its compaction
        snapshot (when present) becomes the base graph, subscriptions
        recorded in the journal are restored (their relations recomputed
        against the recovered graph), and the uncheckpointed delta tail
        is replayed through the normal admission path before this
        coroutine returns (replayed batches may still be settling;
        :meth:`drain` flushes them).  Returns the initial snapshot.
        Raises :class:`ServiceError` on a duplicate key.
        """
        self._ensure_open()
        if key in self._sessions:
            raise ServiceError(f"graph {key!r} is already registered")
        # Reserve the key before the (slow) initial query so concurrent
        # registrations of the same key fail fast instead of racing.
        self._sessions[key] = None  # type: ignore[assignment]
        loop = asyncio.get_running_loop()
        journal: Optional[GraphJournal] = None
        dead_letter: Optional[DeadLetterJournal] = None
        recovered = None
        try:
            if self.config.journal_dir:
                slug = journal_slug(key)
                directory = Path(self.config.journal_dir)
                journal = GraphJournal(
                    directory / f"{slug}.journal.jsonl",
                    compact_bytes=self.config.journal_compact_bytes,
                    faults=self._faults,
                )
                dead_letter = DeadLetterJournal(directory / f"{slug}.deadletter.jsonl")
                recovered = await loop.run_in_executor(None, journal.open)
                if recovered.base_graph is not None:
                    data = recovered.base_graph
            base_version = recovered.checkpoint_version if recovered is not None else 0
            restored: dict[str, Subscription] = {}
            if recovered is not None and recovered.subscriptions:
                restored = {
                    pattern_id: Subscription.from_doc(doc)
                    for pattern_id, doc in recovered.subscriptions.items()
                }
            algorithm, snapshot = await loop.run_in_executor(
                None, self._build_engine, data, base_version, restored
            )
        except BaseException:
            if journal is not None:
                journal.close()
            del self._sessions[key]
            raise
        session = _GraphSession(
            key=key,
            algorithm=algorithm,
            staged=snapshot.data.copy(),
            snapshot=snapshot,
            journal=journal,
            dead_letter=dead_letter,
            versions=VersionStore(self.config.snapshot_history),
            subscriptions=restored,
        )
        self._commit(session, snapshot)
        if recovered is not None and recovered.stamps is not None:
            session.history = GraphHistory.from_doc(recovered.stamps)
        else:
            session.history.observe_base(snapshot.data, snapshot.version)
        if recovered is not None:
            session.last_seq = recovered.checkpoint_seq
        self._sessions[key] = session
        if recovered is not None and recovered.tail:
            logger.info(
                "graph %r: replaying %d journaled payload(s) past checkpoint seq %d",
                key,
                len(recovered.tail),
                recovered.checkpoint_seq,
            )
            # Queued all at once, so the cuts they make merge into
            # settles the way a live backlog's do.
            await asyncio.gather(
                *(
                    self._scheduler.schedule(
                        key, functools.partial(self._replay_ingest, session, updates, seq)
                    )
                    for seq, updates in recovered.tail
                )
            )
        return session.snapshot

    def _build_engine(
        self,
        data: DataGraph,
        version: int,
        subscriptions: Mapping[str, Subscription],
    ) -> tuple[GPNMAlgorithm, GraphSnapshot]:
        """Executor-side: a fresh engine over ``data`` and its snapshot.

        Registration builds the first engine here.  A failed settle
        attempt, which may leave the engine half-mutated, rebuilds it
        from the published graph: settles are serialized, so that graph
        is the pre-attempt state, and the engine constructor copies it.
        Every subscription's relation is recomputed from scratch, since
        a half-amended one is as suspect as the graph.
        """
        algorithm = self._factory(data, self.config)
        data, slen = algorithm.fork_state()
        states: dict[str, SubscriptionState] = {}
        for pattern_id, subscription in subscriptions.items():
            subscription.recompute(data, slen)
            states[pattern_id] = subscription.state(data, slen)
        return algorithm, GraphSnapshot(
            version=version, data=data, slen=slen, subscriptions=states
        )

    def _commit(
        self,
        session: _GraphSession,
        snapshot: GraphSnapshot,
        *,
        algorithm: Optional[GPNMAlgorithm] = None,
        subscribed: Optional[Subscription] = None,
        unsubscribed: Optional[str] = None,
    ) -> None:
        """Loop-side: publish ``snapshot`` with the engine or binding it brings.

        The one writer of ``session.snapshot``, ``session.versions``,
        ``session.algorithm`` and ``session.subscriptions``: executor
        steps only compute, so loop-side readers (``stats``, reads, the
        TCP front end) never see these change under them.
        """
        if algorithm is not None:
            session.algorithm = algorithm
        if subscribed is not None:
            session.subscriptions[subscribed.pattern_id] = subscribed
        if unsubscribed is not None:
            del session.subscriptions[unsubscribed]
        session.versions.publish(snapshot)
        session.snapshot = snapshot

    @property
    def graphs(self) -> tuple[str, ...]:
        """The registered graph keys (registration order)."""
        return tuple(key for key, session in self._sessions.items() if session is not None)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    async def subscribe(
        self,
        key: str,
        pattern_id: str,
        pattern: PatternGraph,
        k: Optional[int] = None,
        *,
        replace: bool = False,
    ) -> SubscriptionState:
        """Attach a standing pattern to ``key``; returns its initial state.

        Runs as an action on the graph's serialized queue, so it never
        interleaves with a settle: the subscription's relation is
        computed against the last published snapshot (value-equal to
        the live engine state between settles) and the snapshot is
        republished *at the same version* with the new pattern bound —
        subscribing is not a settle and does not advance time.  With a
        journal configured the subscription is durably recorded first
        and rides compaction, so it survives restarts.  ``k`` arms the
        subscription's standing top-``k`` ranking (pushed with match
        deltas to attached listeners).  Raises :class:`ServiceError` on
        a duplicate ``pattern_id`` unless ``replace`` is given, and
        when the graph is at :attr:`ServiceConfig.max_subscriptions`.
        """
        session = self._session(key)
        subscription = Subscription(pattern_id, pattern, k=k)
        return await self._scheduler.schedule(
            key, functools.partial(self._subscribe, session, subscription, replace)
        )

    async def _subscribe(
        self, session: _GraphSession, subscription: Subscription, replace: bool
    ) -> SubscriptionState:
        """Queue action: journal, bind, and republish one subscription."""
        pattern_id = subscription.pattern_id
        existing = session.subscriptions.get(pattern_id)
        if existing is not None:
            if not replace:
                raise ServiceError(
                    f"graph {session.key!r} already has subscription {pattern_id!r}"
                )
            if existing.to_doc() == subscription.to_doc():
                # Idempotent re-subscribe (a restart re-subscribing what
                # journal recovery restored): keep the live relation +
                # listeners.
                return session.snapshot.state_for(pattern_id)
            for listener in existing.listeners:
                subscription.attach(listener)
        elif len(session.subscriptions) >= self.config.max_subscriptions:
            raise ServiceError(
                f"graph {session.key!r} is at its subscription cap "
                f"({self.config.max_subscriptions})"
            )
        loop = asyncio.get_running_loop()
        if session.journal is not None:
            await loop.run_in_executor(
                None, session.journal.append_subscribe, subscription.to_doc()
            )
        snapshot = await loop.run_in_executor(
            None, self._bind_subscription, session.snapshot, subscription
        )
        self._commit(session, snapshot, subscribed=subscription)
        return snapshot.state_for(pattern_id)

    @staticmethod
    def _bind_subscription(
        snapshot: GraphSnapshot, subscription: Subscription
    ) -> GraphSnapshot:
        """Executor-side: compute the relation; ``snapshot`` with it bound.

        Subscribing changes *which* patterns are bound, not the graph:
        the result reuses the snapshot's data and ``SLen`` at the same
        version, and the commit replaces the latest version with it.
        """
        subscription.recompute(snapshot.data, snapshot.slen)
        states = dict(snapshot.subscriptions)
        states[subscription.pattern_id] = subscription.state(snapshot.data, snapshot.slen)
        return dataclasses.replace(snapshot, subscriptions=states)

    async def unsubscribe(self, key: str, pattern_id: str) -> bool:
        """Detach a standing pattern; ``True`` when it was subscribed.

        Serialized on the graph's queue: an unsubscribe issued while a
        settle is in flight takes effect right after it, so the pattern
        receives that settle's delta (its listeners were attached when
        the settle published) and nothing afterwards.  Journaled, so
        the pattern stays gone across restarts.
        """
        session = self._session(key)
        return await self._scheduler.schedule(
            key, functools.partial(self._unsubscribe, session, pattern_id)
        )

    async def _unsubscribe(self, session: _GraphSession, pattern_id: str) -> bool:
        """Queue action: journal the drop, then unbind and republish.

        Write-ahead like :meth:`_subscribe`: a failed append raises
        with the subscription still bound, so memory and the journal
        agree on what a restart brings back.
        """
        if pattern_id not in session.subscriptions:
            return False
        if session.journal is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, session.journal.append_unsubscribe, pattern_id
            )
        states = {
            pid: state
            for pid, state in session.snapshot.subscriptions.items()
            if pid != pattern_id
        }
        self._commit(
            session,
            dataclasses.replace(session.snapshot, subscriptions=states),
            unsubscribed=pattern_id,
        )
        return True

    def attach_listener(self, key: str, pattern_id: str, listener: PushListener) -> int:
        """Attach a push listener to a subscription; returns a detach token.

        The listener is called on the service's event loop with one
        :class:`~repro.service.subscriptions.SubscriptionDelta` after
        each settle that changed the subscription's matches or ranking
        (when :attr:`ServiceConfig.push_notifications` is on).  It must
        not block; a raising listener is logged and skipped.
        """
        session = self._session(key)
        subscription = session.subscriptions.get(pattern_id)
        if subscription is None:
            raise ServiceError(f"graph {key!r} has no subscription {pattern_id!r}")
        return subscription.attach(listener)

    def detach_listener(self, key: str, pattern_id: str, token: int) -> bool:
        """Detach a push listener; ``True`` when it was attached.

        Tolerates the graph or subscription having gone away — the TCP
        front end detaches on disconnect, which can race an
        unsubscribe.
        """
        session = self._sessions.get(key)
        if session is None:
            return False
        subscription = session.subscriptions.get(pattern_id)
        if subscription is None:
            return False
        return subscription.detach(token)

    def subscription_docs(self, key: str) -> dict[str, dict]:
        """The standing patterns on ``key`` with per-pattern counters."""
        session = self._session(key)
        docs: dict[str, dict] = {}
        for pattern_id, subscription in session.subscriptions.items():
            doc = subscription.to_doc()
            doc["amend_passes"] = subscription.amend_passes
            doc["skipped_settles"] = subscription.skipped_settles
            doc["notifications"] = subscription.notifications
            doc["listeners"] = len(subscription.listeners)
            docs[pattern_id] = doc
        return docs

    # ------------------------------------------------------------------
    # Live capture — start/stop journaling without a restart
    # ------------------------------------------------------------------
    async def start_capture(self, key: str, directory) -> dict:
        """Begin journaling a live, so-far-unjournaled graph session.

        Writes a fresh write-ahead journal for ``key`` under
        ``directory``: one compaction-style snapshot of the current
        settled state (graph, version, lifetime stamps, subscriptions),
        then — if deltas are unsettled — one delta record holding the
        accepted-but-unsettled deltas (cut batches still waiting for
        their settle, then the buffer), which is exactly the tail a
        journal-from-birth would carry at this moment.  From here on
        every accepted payload is journaled, settles checkpoint and
        compact, and the file is a valid replay source
        (:class:`~repro.replay.log.ReplayLog`) — no restart with
        :attr:`ServiceConfig.journal_dir` needed.

        Serialized on the graph's queue, so the capture never
        interleaves with a settle: a batch cut before this call is
        either in the captured snapshot or in its tail.  Returns
        ``{"path", "base_seq", "last_seq"}``.
        Raises :class:`ServiceError` if the graph is already journaled
        (including via ``journal_dir``).
        """
        session = self._session(key)
        return await self._scheduler.schedule(
            key, functools.partial(self._start_capture, session, Path(directory))
        )

    async def _start_capture(self, session: _GraphSession, directory: Path) -> dict:
        """Queue action: snapshot the session into a brand-new journal."""
        if session.journal is not None:
            raise ServiceError(f"graph {session.key!r} is already journaled")
        slug = journal_slug(session.key)
        journal = GraphJournal(
            directory / f"{slug}.journal.jsonl",
            compact_bytes=self.config.journal_compact_bytes,
            faults=self._faults,
        )
        loop = asyncio.get_running_loop()
        base_seq = session.last_seq
        await loop.run_in_executor(
            None,
            functools.partial(
                journal.initialize,
                session.snapshot.data,
                seq=base_seq,
                version=session.snapshot.version,
                stamps=session.history.to_doc(),
                subscriptions=[
                    subscription.to_doc()
                    for subscription in session.subscriptions.values()
                ],
            ),
        )
        unsettled = [update for batch, _ in session.cuts for update in batch]
        unsettled.extend(session.buffer)
        if unsettled:
            session.last_seq = await loop.run_in_executor(
                None, journal.append_delta, unsettled
            )
        session.journal = journal
        session.dead_letter = DeadLetterJournal(
            directory / f"{slug}.deadletter.jsonl"
        )
        logger.info(
            "graph %r: capture started at seq %d version %d (%s)",
            session.key,
            base_seq,
            session.snapshot.version,
            journal.path,
        )
        return {
            "path": str(journal.path),
            "base_seq": base_seq,
            "last_seq": session.last_seq,
        }

    async def stop_capture(self, key: str) -> dict:
        """Stop journaling ``key``; the file stays behind for replay.

        The inverse of :meth:`start_capture` (it also detaches a
        ``journal_dir`` journal — durability for this graph ends here,
        which is the point: the recorded window is now immutable).
        Returns ``{"path", "last_seq", "checkpoint_seq"}``.  Raises
        :class:`ServiceError` when the graph has no journal.
        """
        session = self._session(key)
        return await self._scheduler.schedule(
            key, functools.partial(self._stop_capture, session)
        )

    async def _stop_capture(self, session: _GraphSession) -> dict:
        """Queue action: close and detach the session's journal."""
        journal = session.journal
        if journal is None:
            raise ServiceError(f"graph {session.key!r} has no journal to stop")
        info = {
            "path": str(journal.path),
            "last_seq": journal.last_seq,
            "checkpoint_seq": journal.checkpoint_seq,
        }
        journal.close()
        session.journal = None
        session.dead_letter = None
        logger.info(
            "graph %r: capture stopped at seq %d (%s)",
            session.key,
            info["last_seq"],
            info["path"],
        )
        return info

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def submit(self, key: str, payload) -> IngestReceipt:
        """Validate, journal, and buffer one delta payload for ``key``.

        ``payload`` is either an :class:`~repro.service.delta.UpdateData`
        or a raw mapping in the wire shape (parsed here, so parse errors
        surface as :class:`~repro.service.delta.DeltaError` before
        anything is enqueued).  The returned receipt reports how many
        deltas were accepted and whether the payload triggered a cut;
        with a journal configured, accepted deltas are durable before
        the receipt exists.
        """
        return await self.submit_nowait(key, payload)

    def submit_nowait(self, key: str, payload) -> "asyncio.Future[IngestReceipt]":
        """Fire-and-forget :meth:`submit`; the receipt future may be dropped.

        The payload joins the graph's open ingest group when that
        group's action is still the last thing scheduled on the queue
        and has not started; otherwise it opens a new group.  Any other
        action scheduled in between closes the group, so ordering
        against cuts, settles and subscriptions is unchanged.
        """
        session = self._session(key)
        data = payload if isinstance(payload, UpdateData) else UpdateData(payload, default_graph=key)
        if data.graph is not None and data.graph != key:
            raise DeltaError(
                f"payload addresses graph {data.graph!r} but was submitted to {key!r}"
            )
        waiting = session.waiting_groups
        if waiting and waiting[-1].action is self._scheduler.queue(key).waiting_tail:
            group = waiting[-1]
        else:
            group = _IngestGroup()
            group.action = self._scheduler.schedule(
                key, functools.partial(self._ingest_group, session, group)
            )
            group.action.add_done_callback(group.fail)
            waiting.append(group)
        receipt = asyncio.get_running_loop().create_future()
        group.members.append((data, receipt))
        group.deltas += len(data)
        return receipt

    def backlog(self, key: str) -> int:
        """Pending work on ``key``: unsettled deltas + queued work.

        Unsettled deltas are the buffered ones plus those in cut batches
        that have not settled yet.  They are counted, not the settle
        actions, because one settle action can carry many cut batches.
        Likewise an ingest group that has not started counts its
        payloads' deltas, not its one action.  The other queued actions
        count one each.  The TCP front end uses this as its overload
        signal — it refuses new update requests with a ``retry_after``
        hint instead of queueing without bound.
        """
        session = self._session(key)
        cut = session.settling + sum(len(batch) for batch, _ in session.cuts)
        waiting = session.waiting_groups
        queued = self._scheduler.queue(key).pending - len(waiting)
        return len(session.buffer) + cut + queued + sum(group.deltas for group in waiting)

    async def _ingest_group(self, session: _GraphSession, group: _IngestGroup) -> None:
        """Queue action: stage and admit a group of payloads, journal them once.

        Each payload is validated in order and admitted exactly as if
        it were ingested alone, so cut points and each cut's seq high
        mark are those of one-by-one ingests.  The accepted payloads
        then go to the journal in one append (one write, one fsync),
        and only after it returns do the receipts resolve and the
        settle for the group's cuts get scheduled.  If the append
        raises, no receipt resolves: every one gets the exception, and
        the group's deltas are rolled back out of the cut batches, the
        buffer and the staged graph.
        """
        session.waiting_groups.remove(group)
        journal = session.journal
        before = (len(session.cuts), len(session.buffer), session.last_seq)
        journaled: list[list[Update]] = []
        receipts: list[IngestReceipt] = []
        for data, _ in group.members:
            accepted, rejected = _stage(session.staged, session.buffer, data.updates())
            if accepted and journal is not None:
                journaled.append(accepted)
                session.last_seq = journal.last_seq + len(journaled)
            cut_reason = self._admit(session)
            receipts.append(
                IngestReceipt(
                    accepted=len(accepted),
                    rejected=len(rejected),
                    pending=len(session.buffer),
                    cut=cut_reason,
                    errors=tuple(f"{update!r}: {problem}" for update, problem in rejected),
                )
            )
        if journaled:
            # Write-ahead: no receipt below may exist before the deltas
            # are on disk.
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, journal.append_delta, *journaled
                )
            except (OSError, JournalError) as exc:
                await self._roll_back_group(session, *before, exc)
                raise
        for (_, future), receipt in zip(group.members, receipts):
            session.accepted += receipt.accepted
            session.rejected += receipt.rejected
            if not future.done():
                future.set_result(receipt)
        self._queue_settle(session)

    async def _roll_back_group(
        self,
        session: _GraphSession,
        cuts: int,
        buffered: int,
        last_seq: int,
        error: Exception,
    ) -> None:
        """Drop the deltas of an ingest group whose journal append failed.

        No receipt covers them and no restart would recover them, so
        they must not settle.  The group action is serial, so its deltas
        are the tail of the cut batches plus the buffer: the group's
        first cut (if any) swapped out the ``buffered`` deltas that were
        buffered before it.  The staged graph is then rebuilt without
        the group.
        """
        if len(session.cuts) > cuts:
            session.buffer = session.cuts[cuts][0][:buffered]
            del session.cuts[cuts:]
        else:
            session.buffer = session.buffer[:buffered]
        session.last_seq = last_seq
        await self._restage(session, f"invalidated by failed journal append {error!r}")

    async def _replay_ingest(
        self, session: _GraphSession, updates: list[Update], seq: int
    ) -> None:
        """Queue action: re-admit one journaled payload during recovery.

        The updates were accepted (and journaled) by a previous
        incarnation, so they are *not* re-appended.  Validation still
        runs against the staged state: a delta whose effect is already
        present in the recovered base (it settled into a snapshot whose
        checkpoint was lost) is skipped, not double-applied.
        """
        accepted, rejected = _stage(session.staged, session.buffer, updates)
        session.recovery_skipped += len(rejected)
        session.accepted += len(accepted)
        session.recovered += len(accepted)
        session.recovery_pending += len(accepted)
        session.last_seq = seq
        self._admit(session)
        self._queue_settle(session)

    def _admit(self, session: _GraphSession) -> Optional[str]:
        """Decide whether the buffered batch should settle now."""
        if not len(session.buffer):
            return None
        algorithm = session.algorithm
        if len(session.buffer) >= self.config.max_buffer:
            return self._cut(session, CUT_CAPACITY)
        if not self.config.autocut:
            # Externally-paced mode (replay): boundaries come from
            # drain(), never from the planner or a deadline.
            return None
        # The planner's rule 1 routes any batch smaller than this to
        # per-update, so only a buffer this large is worth planning.
        if len(session.buffer) >= max(2, self.config.coalesce_min_batch):
            statistics = BatchStatistics.from_updates(
                session.buffer,
                node_count=session.staged.number_of_nodes,
                backend=algorithm.slen_backend,
                partition_available=algorithm.uses_partition,
            )
            plan = plan_batch(
                statistics,
                requested=STRATEGY_AUTO,
                min_batch=self.config.coalesce_min_batch,
                model=algorithm.cost_model,
            )
            if plan.strategy != STRATEGY_PER_UPDATE:
                # Past the coalescing crossover: the batch is now cheaper
                # settled as a whole than it would be growing further.
                return self._cut(session, CUT_CROSSOVER)
        if self.config.deadline_seconds <= 0:
            return self._cut(session, CUT_DEADLINE)
        if session.deadline_handle is None:
            self._arm_deadline(session)
        return None

    def _arm_deadline(self, session: _GraphSession) -> None:
        generation = session.generation
        loop = asyncio.get_running_loop()
        session.deadline_handle = loop.call_later(
            self.config.deadline_seconds,
            self._deadline_expired,
            session,
            generation,
        )

    def _deadline_expired(self, session: _GraphSession, generation: int) -> None:
        """Timer callback: schedule the deadline cut on the graph's queue."""
        session.deadline_handle = None
        if session.generation != generation:
            return  # the armed-for buffer was already cut
        try:
            self._scheduler.schedule(
                session.key, lambda: self._deadline_cut(session, generation)
            )
        except QueueClosedError:
            # Shutdown raced the timer; drain() already cut the buffer.
            pass

    async def _deadline_cut(self, session: _GraphSession, generation: int) -> None:
        """Queue action: cut if the armed-for buffer is still pending."""
        if session.generation == generation and len(session.buffer):
            self._cut(session, CUT_DEADLINE)
            self._queue_settle(session)

    def _cut(self, session: _GraphSession, reason: str) -> str:
        """Swap the buffer out into the cut batches waiting to settle.

        Serialized.  The cutting action calls :meth:`_queue_settle` once
        its own work is done (an ingest group only after its fsync), so
        a settle never runs ahead of the deltas' journal records.
        """
        session.cuts.append((session.buffer, session.last_seq))
        session.buffer = UpdateBatch()
        session.generation += 1
        if session.deadline_handle is not None:
            session.deadline_handle.cancel()
            session.deadline_handle = None
        session.cut_reasons[reason] += 1
        return reason

    def _queue_settle(self, session: _GraphSession) -> None:
        """Schedule the settle for waiting cut batches, unless one is queued.

        One settle action takes every cut batch waiting when it starts,
        so cuts made while it is queued ride along with it.
        """
        if session.cuts and not session.settle_queued:
            self._scheduler.schedule(
                session.key, functools.partial(self._settle_cuts, session)
            )
            session.settle_queued = True

    # ------------------------------------------------------------------
    # Settling: merging, retries, bisection, quarantine, checkpointing
    # ------------------------------------------------------------------
    async def _settle_cuts(self, session: _GraphSession) -> None:
        """Queue action: settle the queued cut batches as one batch.

        Takes cut batches in cut order while their total stays within
        ``max_buffer`` deltas (always at least one) and settles their
        concatenation once, checkpointing the last batch's seq.  Cut
        batches left over get a follow-up action.  Batches that do not
        concatenate — an :class:`UpdateError`, which staged validation
        should make unreachable — settle one by one, as they were cut.
        """
        session.settle_queued = False
        cuts = session.cuts
        take, size = 1, len(cuts[0][0])
        while take < len(cuts) and size + len(cuts[take][0]) <= self.config.max_buffer:
            size += len(cuts[take][0])
            take += 1
        if take > 1:
            try:
                merged = UpdateBatch(
                    itertools.chain.from_iterable(batch for batch, _ in cuts[:take])
                )
            except UpdateError:
                pass  # leave the batches as cut; the loop settles each
            else:
                cuts[:take] = [(merged, cuts[take - 1][1])]
                session.merged_cuts += take - 1
                take = 1
        try:
            for _ in range(take):
                batch, seq_high = cuts.pop(0)
                session.settling = len(batch)
                await self._settle(session, batch, seq_high)
        finally:
            session.settling = 0
            with contextlib.suppress(QueueClosedError):
                self._queue_settle(session)

    async def _settle(
        self, session: _GraphSession, batch: UpdateBatch, seq_high: int
    ) -> None:
        """Queue action: settle ``batch``, surviving kernel failures.

        Every path out of here (plain success, retry success, or
        bisection + quarantine) leaves the algorithm consistent and the
        snapshot published; the checkpoint then covers ``seq_high``
        because every delta up to it either settled or was durably
        dead-lettered.  Only an injected crash (a
        :class:`BaseException`) escapes, exactly like process death.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._faults.hit(PRE_SETTLE)
        try:
            if len(batch):  # restaging can empty a waiting cut batch
                await self._settle_with_recovery(session, batch)
        finally:
            session.settle_seconds += loop.time() - started
        if session.journal is not None and seq_high > session.journal.checkpoint_seq:
            self._faults.hit(PRE_CHECKPOINT)
            await loop.run_in_executor(
                None,
                session.journal.checkpoint,
                seq_high,
                session.snapshot.version,
                session.settles,
            )
            if session.journal.should_compact():
                await loop.run_in_executor(
                    None,
                    functools.partial(
                        session.journal.compact,
                        session.snapshot.data,
                        session.snapshot.version,
                        stamps=session.history.to_doc(),
                        subscriptions=[
                            sub.to_doc() for sub in session.subscriptions.values()
                        ],
                    ),
                )

    async def _settle_with_recovery(
        self, session: _GraphSession, batch: UpdateBatch
    ) -> None:
        """Retry the batch with capped backoff, then bisect if still failing."""
        config = self.config
        last_error: Optional[Exception] = None
        for attempt in range(config.settle_retries + 1):
            if attempt:
                session.settle_retries += 1
                delay = min(
                    config.settle_backoff_seconds * (2 ** (attempt - 1)),
                    config.settle_backoff_cap_seconds,
                )
                if delay > 0:
                    await asyncio.sleep(delay)
            try:
                await self._attempt_settle(session, batch)
                return
            except Exception as exc:  # noqa: BLE001 - InjectedCrash passes through
                last_error = exc
                logger.warning(
                    "graph %r: settle attempt %d/%d failed: %r",
                    session.key,
                    attempt + 1,
                    config.settle_retries + 1,
                    exc,
                )
        # Bounded retries exhausted: the batch contains at least one
        # poison delta.  Isolate it so the rest of the graph lives on.
        await self._bisect(session, list(batch), last_error)
        await self._restage(session, f"invalidated by quarantine of {last_error!r}")

    async def _restage(self, session: _GraphSession, reason: str) -> None:
        """Rebuild the staged graph and dead-letter every delta it loses.

        Each cut batch keeps its place and seq high mark, even when it
        loses every delta, so a settle iterating ``cuts`` stays aligned
        and the checkpoint still advances.  An accepted delta is never
        silently dropped.
        """
        batches = [batch for batch, _ in session.cuts]
        batches.append(session.buffer)
        staged, survivors, dropped = await asyncio.get_running_loop().run_in_executor(
            None, self._resync_staged, session.algorithm, batches
        )
        session.buffer = survivors.pop()
        session.cuts[:] = [
            (batch, seq_high) for batch, (_, seq_high) in zip(survivors, session.cuts)
        ]
        session.staged = staged
        for update in dropped:
            await self._quarantine(session, update, reason, kind="cascade")

    async def _attempt_settle(self, session: _GraphSession, batch: UpdateBatch) -> None:
        """One all-or-nothing settle attempt; raises the kernel's error.

        One executor call runs the attempt (:meth:`_settle_step`), then
        the loop commits it: the copy-on-write snapshot is published
        red-green style, while readers holding older handles keep
        theirs.  On failure the engine is rebuilt from the published
        graph (:meth:`_build_engine`), so no restore copy is taken.
        """
        loop = asyncio.get_running_loop()
        try:
            passes, events, snapshot, publish_started = await loop.run_in_executor(
                None, self._settle_step, session, batch
            )
        except Exception:
            session.settle_failures += 1
            published = session.snapshot
            algorithm, snapshot = await loop.run_in_executor(
                None, self._build_engine, published.data, published.version, session.subscriptions
            )
            session.rebuilds += 1
            self._commit(session, snapshot, algorithm=algorithm)
            raise
        self._commit(session, snapshot)
        session.history.record(batch, snapshot.version)
        session.publish_seconds += time.perf_counter() - publish_started
        session.settles += 1
        session.maintenance_passes += passes
        session.slen_update_passes += passes
        if session.recovery_pending > 0:
            # The batch drained recovery backlog (it may mix replayed
            # and freshly-live deltas; provenance is per-settle, not
            # per-delta — documented in stats()).
            session.recovered_settles += 1
            session.recovery_pending = max(0, session.recovery_pending - len(batch))
        else:
            session.live_settles += 1
        session.settled += len(batch)
        self._notify(session, events, snapshot.version)

    def _settle_step(
        self, session: _GraphSession, batch: UpdateBatch
    ) -> tuple[int, list[SubscriptionEvent], GraphSnapshot, float]:
        """Executor-side: one whole settle attempt, committing nothing.

        Runs the engine pass and fan-out (:meth:`_execute_settle`),
        then the snapshot build (:meth:`_settled_snapshot`); the
        ``mid-settle`` crash point falls between them.  Returns the
        engine pass count and fan-out events of
        :meth:`_execute_settle`, the snapshot and the ``perf_counter``
        time the build started (publish time runs from there to the
        commit).
        """
        passes, events = self._execute_settle(session, batch)
        self._faults.hit(MID_SETTLE)
        publish_started = time.perf_counter()
        return passes, events, self._settled_snapshot(session, events), publish_started

    def _execute_settle(
        self, session: _GraphSession, batch: UpdateBatch
    ) -> tuple[int, list[SubscriptionEvent]]:
        """Executor-side settle body: shared maintenance, then fan-out.

        The pattern-independent work — applying the batch, maintaining
        ``SLen``, computing the affected region — runs **once** through
        the session's single engine (``subsequent_query``).  Every
        subscription then pays only its own share: the sound
        label-intersection filter, and (when the pattern may have been
        touched) one amendment pass over the shared delta's update
        stream against the engine's post-batch state.  A subscription
        the filter clears republishes its previous state unchanged —
        the skip is provably lossless, see
        :func:`~repro.matching.shared.delta_touches_pattern`.

        Returns the number of engine passes it ran, counted here where
        they run (the loop adds it to the shared-pass counters when the
        settle commits), and the fan-out events.
        """
        algorithm = session.algorithm
        algorithm.subsequent_query(batch)
        passes = 1
        if not session.subscriptions:
            return passes, []
        # The shared delta carries the *maintained* (possibly compiled)
        # update stream — same net effect as the raw batch.  The live
        # state is borrowed, not copied: settles are serialized.
        shared = algorithm.last_shared_delta
        data, slen = algorithm.shared_state()
        previous = session.snapshot.subscriptions
        events: list[SubscriptionEvent] = []
        for pattern_id, subscription in session.subscriptions.items():
            prev_state = previous.get(pattern_id)
            if prev_state is not None and not subscription.touched_by(shared):
                events.append(SubscriptionEvent(subscription, prev_state, prev_state, amended=False))
                continue
            subscription.relation = amend_match(
                subscription.relation,
                subscription.pattern,
                data,
                slen,
                shared.updates,
                enforce_totality=False,
            )
            state = subscription.state(data, slen)
            events.append(SubscriptionEvent(subscription, state, prev_state, amended=True))
        return passes, events

    def _notify(
        self,
        session: _GraphSession,
        events: Iterable[SubscriptionEvent],
        version: int,
    ) -> None:
        """Count one settle's fan-out, then push its per-pattern deltas.

        Runs on the event loop after the snapshot is published, so a
        listener that immediately reads sees the state its delta
        describes.  Listener exceptions are logged and swallowed — a
        broken client must not fail the settle.
        """
        for event in events:
            if not event.amended:
                event.subscription.skipped_settles += 1
                session.fanout_skips += 1
                continue
            event.subscription.amend_passes += 1
            session.fanout_amend_passes += 1
            listeners = event.subscription.listeners
            if not listeners or not self.config.push_notifications:
                continue
            delta = event.delta(session.key, version)
            if delta.is_empty:
                continue
            event.subscription.notifications += 1
            session.notifications_sent += 1
            for listener in listeners:
                try:
                    listener(delta)
                except Exception:  # noqa: BLE001 - listener bugs must not kill settles
                    logger.exception(
                        "graph %r: push listener for %r failed",
                        session.key,
                        event.subscription.pattern_id,
                    )

    async def _bisect(
        self,
        session: _GraphSession,
        updates: list[Update],
        error: Optional[Exception],
        *,
        try_whole: bool = False,
    ) -> None:
        """Recursively isolate the poison updates of a failed batch.

        Sub-batches preserve arrival order, so the surviving updates
        settle with exactly the semantics they were accepted under.  A
        single update that still fails is quarantined: durably appended
        to the dead-letter journal, then dropped from the stream.
        """
        if not updates:
            return
        if try_whole:
            sub: Optional[UpdateBatch]
            try:
                sub = UpdateBatch(updates)
            except UpdateError as exc:
                # The slice lost an update (a sibling quarantine) it
                # depended on; treat it like a failing settle.
                sub, error = None, exc
            if sub is not None:
                try:
                    await self._attempt_settle(session, sub)
                    return
                except Exception as exc:  # noqa: BLE001 - isolated below
                    error = exc
        if len(updates) == 1:
            await self._quarantine(session, updates[0], repr(error))
            return
        mid = len(updates) // 2
        await self._bisect(session, updates[:mid], error, try_whole=True)
        await self._bisect(session, updates[mid:], error, try_whole=True)

    async def _quarantine(
        self, session: _GraphSession, update: Update, error: str, *, kind: str = "poison"
    ) -> None:
        """Durably dead-letter one update the service gave up settling."""
        session.quarantined += 1
        logger.warning(
            "graph %r: quarantined %s delta %r: %s", session.key, kind, update, error
        )
        if session.dead_letter is not None:
            await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(session.dead_letter.append, update, error, kind=kind),
            )

    @staticmethod
    def _settled_snapshot(
        session: _GraphSession, events: Iterable[SubscriptionEvent]
    ) -> GraphSnapshot:
        """Build the next version's snapshot from the settled algorithm.

        ``fork_state`` makes this cheap: the SLen matrix is shared
        block-by-block with the live state (copy-on-write), only the
        O(|V| + |E|) graph is copied.  Subscription
        states come from the settle's fan-out; a filter-skipped
        subscription republishes its previous state object unchanged
        (patterns are subscribed, never streamed, so a pattern cannot
        change mid-settle).
        """
        data, slen = session.algorithm.fork_state()
        return GraphSnapshot(
            version=session.snapshot.version + 1,
            data=data,
            slen=slen,
            subscriptions={
                event.subscription.pattern_id: event.state for event in events
            },
        )

    @staticmethod
    def _resync_staged(
        algorithm: GPNMAlgorithm, batches: Iterable[UpdateBatch]
    ) -> tuple[DataGraph, list[UpdateBatch], list[Update]]:
        """Executor-side: re-validate ``batches`` against the settled state.

        The algorithm's state is authoritative.  ``batches`` (the cut
        batches still waiting for their settle, in cut order, then the
        buffer) are re-validated in order against a copy of it and
        their survivors re-applied: a quarantined delta can invalidate
        deltas that were accepted against state that never
        materialised.  Returns the staged graph, each batch's survivors
        and the invalidated updates.
        """
        staged = algorithm.data  # a copy
        survivors: list[UpdateBatch] = []
        dropped: list[tuple[Update, str]] = []
        for batch in batches:
            kept = UpdateBatch()
            dropped += _stage(staged, kept, batch)[1]
            survivors.append(kept)
        return staged, survivors, [update for update, _ in dropped]

    # ------------------------------------------------------------------
    # Reads — synchronous, snapshot-backed, never enter the queue
    # ------------------------------------------------------------------
    def snapshot(self, key: str, as_of: Optional[int] = None) -> GraphSnapshot:
        """The graph's last settled state (or the retained ``as_of`` version).

        With ``as_of`` set, answers from the version store: raises
        :class:`~repro.versioning.store.VersionExpiredError` when that
        version was evicted from the history window (or never
        published) instead of answering from the wrong state.
        """
        session = self._session(key)
        if as_of is None:
            return session.snapshot
        return session.versions.get(as_of).snapshot

    def pin(self, key: str, version: Optional[int] = None) -> SnapshotHandle:
        """Pin a retained version (``None`` = latest) for repeated reads.

        The returned handle keeps its snapshot — the ``(graph, SLen)``
        pair and the subscription states — alive across later settles
        and evictions until released (use it as a context manager).  This is the red-green reader
        side: pinning is wait-free with respect to the writer.
        """
        return self._session(key).versions.pin(version)

    def graph_history(self, key: str) -> GraphHistory:
        """The graph's created/expired lifetime stamps (time travel)."""
        return self._session(key).history

    def matches(
        self,
        key: str,
        pattern_node=None,
        as_of: Optional[int] = None,
        pattern_id: Optional[str] = None,
    ):
        """Settled match sets: all of them, or one pattern node's.

        Addressed by ``(key, pattern_id)``; ``pattern_id=None`` resolves
        the ``"default"`` subscription.
        """
        state = self.snapshot(key, as_of=as_of).state_for(pattern_id)
        if pattern_node is None:
            return state.result.as_dict()
        return state.result.matches(pattern_node)

    def top_k(
        self,
        key: str,
        k: int,
        pattern_node=None,
        as_of: Optional[int] = None,
        pattern_id: Optional[str] = None,
    ) -> dict[object, list[RankedMatch]]:
        """Settled top-``k`` ranked matches (optionally one pattern node's).

        Addressed by ``(key, pattern_id)`` like :meth:`matches`; ``k``
        is free per read and independent of the subscription's standing
        ``k`` (which only controls the push channel).
        """
        snapshot = self.snapshot(key, as_of=as_of)
        state = snapshot.state_for(pattern_id)
        return top_k_matches(
            state.result,
            state.pattern,
            snapshot.data,
            snapshot.slen,
            k,
            pattern_node=pattern_node,
        )

    def slen_distance(
        self, key: str, source, target, as_of: Optional[int] = None
    ) -> float | int:
        """Settled shortest-path length (``INF`` when unreachable)."""
        return self.snapshot(key, as_of=as_of).slen.distance(source, target)

    def stats(self, key: str) -> dict:
        """Per-graph counters: ingestion, cuts, settles, faults, journal."""
        session = self._session(key)
        journal_stats = None
        if session.journal is not None:
            journal_stats = {
                "path": str(session.journal.path),
                "last_seq": session.journal.last_seq,
                "checkpoint_seq": session.journal.checkpoint_seq,
                "appends": session.journal.appends,
                "fsyncs": session.journal.fsyncs,
                "checkpoints": session.journal.checkpoints,
                "compactions": session.journal.compactions,
                "torn_lines": session.journal.torn_lines,
            }
        backend = session.snapshot.slen.backend
        snapshot_stats = {
            "version": session.snapshot.version,
            "retained_versions": list(session.versions.versions()),
            "history_limit": session.versions.history,
            "publish_seconds": session.publish_seconds,
            "store_allocated_bytes": session.versions.allocated_bytes(),
            "stamped_latest": session.history.latest_version,
        }
        if hasattr(backend, "shared_blocks"):
            snapshot_stats["slen_shared_blocks"] = backend.shared_blocks()
            snapshot_stats["slen_owned_blocks"] = backend.owned_blocks()
        return {
            "graph": key,
            "snapshot_version": session.snapshot.version,
            "snapshot": snapshot_stats,
            "shared": {
                "maintenance_passes": session.maintenance_passes,
                "slen_update_passes": session.slen_update_passes,
                "fanout_amend_passes": session.fanout_amend_passes,
                "fanout_skips": session.fanout_skips,
                "notifications_sent": session.notifications_sent,
            },
            "subscriptions": self.subscription_docs(key),
            "accepted": session.accepted,
            "rejected": session.rejected,
            "settled": session.settled,
            "pending": len(session.buffer),
            "settles": session.settles,
            "recovered_settles": session.recovered_settles,
            "live_settles": session.live_settles,
            "settle_failures": session.settle_failures,
            "settle_retries": session.settle_retries,
            "settle_seconds": session.settle_seconds,
            "quarantined": session.quarantined,
            "rebuilds": session.rebuilds,
            "recovered": session.recovered,
            "recovery_skipped": session.recovery_skipped,
            "queue_errors": sum(
                1 for error_key, _ in self._scheduler.errors if error_key == key
            ),
            "cut_reasons": dict(session.cut_reasons),
            "merged_cuts": session.merged_cuts,
            "journal": journal_stats,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Cut every non-empty buffer and wait for full quiescence."""
        for session in self._sessions.values():
            if session is None:
                continue

            async def _drain_cut(session=session) -> None:
                if len(session.buffer):
                    self._cut(session, CUT_DRAIN)
                self._queue_settle(session)

            self._scheduler.schedule(session.key, _drain_cut)
        await self._scheduler.drain()

    async def quiesce(self) -> None:
        """Wait for all already-scheduled actions — without cutting.

        Unlike :meth:`drain` this leaves buffered deltas buffered; it
        exists so tests (and the fault harness) can wait for in-flight
        settles and their journal writes to finish.
        """
        await self._scheduler.drain()

    async def close(self) -> None:
        """Drain, stop all queue workers, close the journals.  Idempotent."""
        if self._closed:
            return
        await self.drain()
        await self._scheduler.close()
        self._closed = True
        for session in self._sessions.values():
            if session is not None and session.journal is not None:
                session.journal.close()

    async def abort(self) -> None:
        """Simulated ``kill -9``: stop everything without settling.

        No buffers are cut, no settles run, no checkpoints are written —
        the journal is left exactly as the "crash" found it, which is
        the state recovery must cope with.  The fault-injection tests
        call this after an :class:`~repro.service.faults.InjectedCrash`
        to abandon the dead instance cleanly.  Idempotent.
        """
        self._closed = True
        await self._scheduler.abort()
        for session in self._sessions.values():
            if session is None:
                continue
            if session.deadline_handle is not None:
                session.deadline_handle.cancel()
                session.deadline_handle = None
            if session.journal is not None:
                session.journal.close()

    @property
    def errors(self) -> list[tuple[str, BaseException]]:
        """Failures from fire-and-forget actions (settles included)."""
        return self._scheduler.errors

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    def _session(self, key: str) -> _GraphSession:
        session = self._sessions.get(key)
        if session is None:
            raise ServiceError(f"unknown graph {key!r}")
        return session


def _stage(
    staged: DataGraph, buffer: UpdateBatch, updates: Iterable[Update]
) -> tuple[list[Update], list[tuple[Update, str]]]:
    """Validate ``updates`` in order; buffer and apply the valid ones.

    Each update is checked against ``staged`` as the earlier ones left
    it, appended to ``buffer`` and applied to ``staged``.  Returns the
    accepted updates and ``(update, reason)`` for every rejected one.
    """
    accepted: list[Update] = []
    rejected: list[tuple[Update, str]] = []
    for update in updates:
        problem = _stage_conflict(staged, update)
        if problem is None:
            try:
                buffer.append(update)
            except UpdateError as exc:
                problem = str(exc)
        if problem is not None:
            rejected.append((update, problem))
            continue
        # Preconditions passed and the batch accepted it — applying to
        # the staged graph cannot fail now.
        update.apply(staged)
        accepted.append(update)
    return accepted, rejected


def _stage_conflict(staged: DataGraph, update: Update) -> Optional[str]:
    """Why ``update`` cannot apply to ``staged`` (``None`` when it can).

    These are exactly the preconditions of
    :meth:`~repro.graph.updates.Update.apply`, checked up front so an
    accepted delta is guaranteed to apply and a conflicting one is
    rejected with a message instead of poisoning the batch.
    """
    if isinstance(update, EdgeInsertion):
        if not staged.has_node(update.source):
            return f"source node {update.source!r} does not exist"
        if not staged.has_node(update.target):
            return f"target node {update.target!r} does not exist"
        if staged.has_edge(update.source, update.target):
            return "edge already exists"
        return None
    if isinstance(update, EdgeDeletion):
        if not staged.has_edge(update.source, update.target):
            return "edge does not exist"
        return None
    if isinstance(update, NodeInsertion):
        if staged.has_node(update.node):
            return f"node {update.node!r} already exists"
        seen: set[tuple] = set()
        for source, target in update.edges:
            if update.node not in (source, target):
                return f"payload edge ({source!r}, {target!r}) does not touch the new node"
            other = target if source == update.node else source
            if other != update.node and not staged.has_node(other):
                return f"payload edge endpoint {other!r} does not exist"
            if (source, target) in seen:
                return f"duplicate payload edge ({source!r}, {target!r})"
            seen.add((source, target))
        return None
    if isinstance(update, NodeDeletion):
        if not staged.has_node(update.node):
            return f"node {update.node!r} does not exist"
        return None
    return f"unsupported update kind {type(update).__name__}"
