"""Multi-pattern subscriptions over one evolving graph (ROADMAP item 4).

The paper binds one pattern to one algorithm instance; a production
matcher serves many standing patterns over the same graph.  The
expensive per-batch work — graph application, ``SLen`` maintenance, the
affected-region computation — is pattern-independent, so the service
runs it **once** per settle (through the session's single
:class:`~repro.algorithms.base.GPNMAlgorithm` engine) and fans the
resulting :class:`~repro.matching.shared.SharedDelta` out to every
subscription: a sound label-intersection skip filter
(:func:`~repro.matching.shared.delta_touches_pattern`) decides whether
the pattern can have been touched at all, and if so one amendment pass
(:func:`~repro.matching.amend.amend_match`) refines the subscription's
previous relation to the exact post-batch relation.  The marginal cost
of one more standing pattern is that filter + amendment, not a full
maintenance pass.

This module holds the per-subscription state machine; the service wires
it into settles, snapshots, journaling and the TCP protocol.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass
from typing import Any, Optional

from repro.graph.digraph import DataGraph
from repro.graph.io import pattern_graph_from_dict, pattern_graph_to_dict
from repro.graph.pattern import PatternGraph
from repro.matching.bgs import bounded_simulation
from repro.matching.gpnm import MatchResult
from repro.matching.shared import SharedDelta, delta_touches_pattern
from repro.matching.topk import RankedMatch, top_k_matches
from repro.spl.matrix import SLenMatrix

NodeId = Hashable

#: Pattern id that pattern-unaddressed reads resolve.
DEFAULT_PATTERN_ID = "default"

#: Signature of a push listener: called with one
#: :class:`SubscriptionDelta` after each settle that changed the
#: subscription's matches (or its top-k ranking).
PushListener = Callable[["SubscriptionDelta"], None]

def _ranking_doc(
    ranking: Mapping[NodeId, list[RankedMatch]],
) -> dict[str, list[dict[str, Any]]]:
    """JSON-able copy of a top-k ranking (wire + journal shape)."""
    return {
        str(pattern_node): [
            {"node": entry.data_node, "score": round(entry.score, 6)}
            for entry in entries
        ]
        for pattern_node, entries in ranking.items()
    }


@dataclass(frozen=True)
class SubscriptionState:
    """One subscription's published state inside a snapshot.

    Snapshots are pattern-aware: a
    :class:`~repro.service.service.GraphSnapshot` carries one frozen
    ``SubscriptionState`` per standing pattern, sharing the snapshot's
    single ``(data, slen)`` pair.  ``top_k`` is only materialised for
    subscriptions registered with a default ``k`` (the push channel
    needs it to detect ranking changes); read-side ``top_k()`` queries
    recompute from the snapshot and are exact either way.
    """

    pattern_id: str
    pattern: PatternGraph
    result: MatchResult
    k: Optional[int] = None
    top_k: Optional[Mapping[NodeId, tuple[RankedMatch, ...]]] = None

    def to_doc(self) -> dict[str, Any]:
        """JSON-able description (journal compaction + recovery)."""
        doc: dict[str, Any] = {
            "pattern_id": self.pattern_id,
            "pattern": pattern_graph_to_dict(self.pattern),
        }
        if self.k is not None:
            doc["k"] = self.k
        return doc


@dataclass(frozen=True)
class SubscriptionDelta:
    """The per-pattern push payload produced by one settle.

    ``added`` / ``removed`` are the match-relation changes per pattern
    node (the shape of :meth:`~repro.matching.gpnm.MatchResult.diff`);
    ``top_k`` carries the new ranking when the subscription tracks one
    and it changed, else ``None``.
    """

    graph: str
    pattern_id: str
    version: int
    added: Mapping[NodeId, frozenset[NodeId]]
    removed: Mapping[NodeId, frozenset[NodeId]]
    top_k: Optional[Mapping[NodeId, tuple[RankedMatch, ...]]] = None

    @property
    def is_empty(self) -> bool:
        """``True`` when neither the relation nor the ranking changed."""
        return not self.added and not self.removed and self.top_k is None

    def to_doc(self) -> dict[str, Any]:
        """The JSON-lines ``notify`` message body (sans envelope)."""
        doc: dict[str, Any] = {
            "kind": "notify",
            "graph": self.graph,
            "pattern_id": self.pattern_id,
            "version": self.version,
            "added": {
                str(u): sorted(nodes, key=str) for u, nodes in self.added.items()
            },
            "removed": {
                str(u): sorted(nodes, key=str) for u, nodes in self.removed.items()
            },
        }
        if self.top_k is not None:
            doc["top_k"] = _ranking_doc(
                {u: list(entries) for u, entries in self.top_k.items()}
            )
        return doc


class Subscription:
    """One standing pattern attached to a graph session.

    Owns the pattern's live (non-collapsed) match relation, the optional
    default ``k`` and the attached push listeners.  Mutated only under
    the session's serialized write queue (the relation only on the
    executor, inside a settle, a subscribe or a rebuild; the counters
    on the event loop, when a settle commits), so no locking is needed.
    """

    def __init__(
        self,
        pattern_id: str,
        pattern: PatternGraph,
        k: Optional[int] = None,
    ) -> None:
        if not isinstance(pattern_id, str) or not pattern_id:
            raise ValueError("pattern_id must be a non-empty string")
        if k is not None and k < 1:
            raise ValueError("k must be at least 1 when given")
        self.pattern_id = pattern_id
        self.pattern = pattern.copy()
        self.k = k
        #: The live non-collapsed relation, amended in place by settles.
        self.relation: MatchResult = MatchResult({}, enforce_totality=False)
        #: Work accounting for the stats() surface and the acceptance
        #: criterion: amendment passes run vs. settles provably skipped.
        self.amend_passes = 0
        self.skipped_settles = 0
        self.notifications = 0
        self._listeners: dict[int, PushListener] = {}
        self._next_token = 1

    # -- relation lifecycle (executor-side) ----------------------------
    def recompute(self, data: DataGraph, slen: SLenMatrix) -> None:
        """Compute the relation from scratch against ``(data, slen)``.

        Used at subscribe time and after a quarantine rebuild; settles
        use :meth:`amended` instead.
        """
        relation = bounded_simulation(self.pattern, data, slen)
        self.relation = MatchResult(relation, enforce_totality=False)

    def state(self, data: DataGraph, slen: SLenMatrix) -> SubscriptionState:
        """Freeze the current relation into a publishable state."""
        result = MatchResult(self.relation.as_dict(), enforce_totality=True)
        ranking: Optional[dict[NodeId, tuple[RankedMatch, ...]]] = None
        if self.k is not None:
            ranking = {
                u: tuple(entries)
                for u, entries in top_k_matches(
                    result, self.pattern, data, slen, self.k
                ).items()
            }
        return SubscriptionState(
            pattern_id=self.pattern_id,
            pattern=self.pattern.copy(),
            result=result,
            k=self.k,
            top_k=ranking,
        )

    def touched_by(self, delta: SharedDelta) -> bool:
        """Whether the settled batch can have changed this pattern's matches."""
        return delta_touches_pattern(delta, self.pattern)

    # -- push listeners (event-loop-side) ------------------------------
    def attach(self, listener: PushListener) -> int:
        """Register a push listener; returns a detach token."""
        token = self._next_token
        self._next_token += 1
        self._listeners[token] = listener
        return token

    def detach(self, token: int) -> bool:
        """Remove a listener by token; ``True`` when it was attached."""
        return self._listeners.pop(token, None) is not None

    @property
    def listeners(self) -> tuple[PushListener, ...]:
        """The attached listeners, in attach order."""
        return tuple(self._listeners.values())

    # -- serialization -------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        """JSON-able description (journal records + compaction)."""
        doc: dict[str, Any] = {
            "pattern_id": self.pattern_id,
            "pattern": pattern_graph_to_dict(self.pattern),
        }
        if self.k is not None:
            doc["k"] = self.k
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Subscription":
        """Rebuild a subscription from its journal description."""
        return cls(
            pattern_id=doc["pattern_id"],
            pattern=pattern_graph_from_dict(doc["pattern"]),
            k=doc.get("k"),
        )

    def __repr__(self) -> str:
        return (
            f"Subscription({self.pattern_id!r}, "
            f"pattern_nodes={self.pattern.number_of_nodes}, k={self.k})"
        )


@dataclass
class SubscriptionEvent:
    """One settle's outcome for one subscription (service-internal).

    Produced on the executor during the settle, which builds the next
    snapshot from it; consumed on the event loop to count the fan-out
    and to build the push delta.
    """

    subscription: Subscription
    state: SubscriptionState
    previous: Optional[SubscriptionState]
    amended: bool

    def delta(self, graph: str, version: int) -> SubscriptionDelta:
        """Build the push payload against the previous published state."""
        if self.previous is None:
            diff = MatchResult({}, enforce_totality=False).diff(self.state.result)
        else:
            diff = self.previous.result.diff(self.state.result)
        added = {u: change[0] for u, change in diff.items() if change[0]}
        removed = {u: change[1] for u, change in diff.items() if change[1]}
        ranking = None
        if self.state.k is not None:
            before = None if self.previous is None else self.previous.top_k
            if self.state.top_k != before:
                ranking = self.state.top_k
        return SubscriptionDelta(
            graph=graph,
            pattern_id=self.subscription.pattern_id,
            version=version,
            added=added,
            removed=removed,
            top_k=ranking,
        )


def pattern_set_doc(subscriptions: Any) -> dict[str, Any]:
    """The inverse of :func:`parse_pattern_set`: serialize a registry.

    Accepts :class:`Subscription` objects or already-serialized entry
    docs (the replay window carries the latter) and emits the
    ``{"patterns": [...]}`` shape ``ua-gpnm serve --patterns`` and
    ``ua-gpnm replay --patterns`` read, so a recorded registry can be
    exported, edited, and fed back in.
    """
    entries: list[dict[str, Any]] = []
    for subscription in subscriptions:
        if isinstance(subscription, Subscription):
            entries.append(subscription.to_doc())
        elif isinstance(subscription, Mapping):
            entries.append(dict(subscription))
        else:
            raise ValueError(
                f"expected a Subscription or its doc, got {subscription!r}"
            )
    return {"patterns": entries}


def parse_pattern_set(doc: Any) -> list[Subscription]:
    """Parse a pattern-set document (the ``ua-gpnm serve --patterns`` file).

    Accepts either a bare list of entries or ``{"patterns": [...]}``;
    each entry is ``{"pattern_id": ..., "pattern": <pattern-graph doc>,
    "k": optional}``.  Duplicate pattern ids are an error.
    """
    if isinstance(doc, Mapping):
        doc = doc.get("patterns")
    if not isinstance(doc, (list, tuple)):
        raise ValueError(
            "pattern set must be a list of entries or {'patterns': [...]}"
        )
    subscriptions: list[Subscription] = []
    seen: set[str] = set()
    for entry in doc:
        if not isinstance(entry, Mapping):
            raise ValueError(f"pattern-set entry must be an object, got {entry!r}")
        subscription = Subscription.from_doc(entry)
        if subscription.pattern_id in seen:
            raise ValueError(f"duplicate pattern_id {subscription.pattern_id!r}")
        seen.add(subscription.pattern_id)
        subscriptions.append(subscription)
    return subscriptions
