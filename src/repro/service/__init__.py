"""Asyncio streaming ingestion + query service over the GPNM algorithms.

The package turns the batch-oriented algorithm state machine into a
continuously-available, durable service (ROADMAP items: streaming
service layer, crash recovery):

* :mod:`repro.service.delta` — the structured insert/delete payload
  vocabulary (:class:`~repro.service.delta.UpdateData`);
* :mod:`repro.service.queue` — per-graph serialized action queues with
  fire-and-forget scheduling, graceful drain and hard abort;
* :mod:`repro.service.journal` — the per-graph write-ahead delta
  journal (fsync-append before receipt, checkpoints, size-bounded
  compaction, torn-tail-tolerant recovery) and the dead-letter journal
  for quarantined deltas;
* :mod:`repro.service.faults` — the deterministic fault-injection
  switchboard (named crash points, torn writes, flaky kernels) the
  durability claims are tested with;
* :mod:`repro.service.subscriptions` — multi-pattern subscriptions:
  per-pattern state machines fed by one shared maintenance pass per
  settle, with push deltas to attached listeners;
* :mod:`repro.service.service` — the
  :class:`~repro.service.service.StreamingUpdateService` core: staged
  validation, write-ahead journaling, planner-driven batch admission,
  deadline cuts, executor settles with retry/bisect/quarantine,
  subscription fan-out, pattern-addressed snapshot reads, journal
  recovery on registration;
* :mod:`repro.service.server` — a stdlib JSON-lines TCP front end
  (``ua-gpnm serve``) with overload refusal, idle timeouts, and the
  ``subscribe`` / ``notify`` push channel.
"""

from repro.service.delta import DeltaDelete, DeltaError, DeltaInsert, UpdateData
from repro.service.faults import (
    CRASH_POINTS,
    MID_SETTLE,
    POST_APPEND,
    PRE_APPEND,
    PRE_CHECKPOINT,
    PRE_SETTLE,
    FaultInjector,
    InjectedCrash,
    KernelFault,
    flaky_algorithm_factory,
)
from repro.service.journal import (
    DeadLetterJournal,
    GraphJournal,
    JournalError,
    RecoveredState,
    journal_slug,
)
from repro.service.queue import ActionQueue, ActionScheduler, QueueClosedError
from repro.service.server import ServiceServer
from repro.service.service import (
    CUT_CAPACITY,
    CUT_CROSSOVER,
    CUT_DEADLINE,
    CUT_DRAIN,
    GraphSnapshot,
    IngestReceipt,
    ServiceConfig,
    ServiceError,
    StreamingUpdateService,
    default_algorithm_factory,
)
from repro.service.subscriptions import (
    DEFAULT_PATTERN_ID,
    PushListener,
    Subscription,
    SubscriptionDelta,
    SubscriptionState,
    parse_pattern_set,
)

__all__ = [
    "ActionQueue",
    "ActionScheduler",
    "QueueClosedError",
    "DeltaInsert",
    "DeltaDelete",
    "DeltaError",
    "UpdateData",
    "ServiceConfig",
    "ServiceError",
    "GraphSnapshot",
    "IngestReceipt",
    "StreamingUpdateService",
    "ServiceServer",
    "default_algorithm_factory",
    "DEFAULT_PATTERN_ID",
    "PushListener",
    "Subscription",
    "SubscriptionDelta",
    "SubscriptionState",
    "parse_pattern_set",
    "CUT_CROSSOVER",
    "CUT_CAPACITY",
    "CUT_DEADLINE",
    "CUT_DRAIN",
    "GraphJournal",
    "DeadLetterJournal",
    "JournalError",
    "RecoveredState",
    "journal_slug",
    "FaultInjector",
    "InjectedCrash",
    "KernelFault",
    "flaky_algorithm_factory",
    "CRASH_POINTS",
    "PRE_APPEND",
    "POST_APPEND",
    "PRE_SETTLE",
    "MID_SETTLE",
    "PRE_CHECKPOINT",
]
