"""Deterministic fault injection for the durable streaming service.

The durability claims of :mod:`repro.service` ("no accepted delta is
ever lost", "a poison delta cannot kill a graph") are only testable if
failures can be produced *on demand and deterministically*.  This module
is that switchboard:

* **Crash points** — the service and journal call
  :meth:`FaultInjector.hit` at the named points of the
  append/settle/checkpoint pipeline (:data:`CRASH_POINTS`).  Arming a
  point makes the Nth hit raise :class:`InjectedCrash`, which derives
  from :class:`BaseException` on purpose: like ``KeyboardInterrupt``, it
  models the *process dying* and must never be caught by the service's
  retry/quarantine machinery.  A test then abandons the "crashed"
  service instance (``await service.abort()``) and proves that a fresh
  instance recovers the journal to the oracle state.
* **Torn writes** — :meth:`FaultInjector.arm_torn_append` makes the
  journal write only a prefix of its next append before "crashing",
  reproducing the half-a-line tail a real power loss leaves behind.  An
  append can carry several records (group commit); the prefix may end
  inside any of them or exactly on a record boundary.
* **Kernel faults** — :func:`flaky_algorithm_factory` wraps an
  algorithm factory so ``subsequent_query`` raises :class:`KernelFault`
  either for the first N settles (transient: proves retry) or whenever
  the batch contains a *poison* update (permanent: proves bisection and
  quarantine).

Everything is counter-based — no randomness, no clocks — so every
failure schedule is exactly reproducible.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import Optional

#: Named points of the ingest/settle pipeline where a crash can be
#: injected, in pipeline order:
#:
#: * ``pre-append`` — the delta was validated but not yet journaled; a
#:   crash here loses it *before* a receipt was issued (allowed).
#: * ``post-append`` — the delta is durable but the receipt was never
#:   returned; recovery must replay it (at-least-once from the
#:   journal's point of view).
#: * ``pre-settle`` — the batch was cut but maintenance never started.
#: * ``mid-settle`` — maintenance finished mutating in-memory state but
#:   the snapshot was not yet published.
#: * ``pre-checkpoint`` — the snapshot is published but the journal
#:   checkpoint record was never written; recovery must not
#:   double-apply the batch it covers.
PRE_APPEND = "pre-append"
POST_APPEND = "post-append"
PRE_SETTLE = "pre-settle"
MID_SETTLE = "mid-settle"
PRE_CHECKPOINT = "pre-checkpoint"
CRASH_POINTS: tuple[str, ...] = (
    PRE_APPEND,
    POST_APPEND,
    PRE_SETTLE,
    MID_SETTLE,
    PRE_CHECKPOINT,
)


class InjectedCrash(BaseException):
    """A simulated process death at a named crash point.

    Derives from :class:`BaseException` so the service's failure
    handling (which catches :class:`Exception` for retry/quarantine)
    can never absorb it — exactly like a real ``kill -9`` cannot be
    caught.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


class KernelFault(RuntimeError):
    """An injected maintenance-kernel failure (an ordinary exception).

    This is what the retry/bisect/quarantine machinery is *supposed* to
    handle, as opposed to :class:`InjectedCrash` which it must not.
    """


class FaultInjector:
    """Deterministic, counter-based fault switchboard.

    An unarmed injector is a no-op and is safe (and cheap) to leave on
    every hot path; the service uses a shared module-level
    :data:`NULL_INJECTOR` by default.
    """

    def __init__(self) -> None:
        #: Remaining hits before each armed point fires (1 = next hit).
        self._armed: dict[str, int] = {}
        #: Remaining appends before the next append is torn (1 = next).
        self._torn_in: int = 0
        #: How much of the torn append survives, in records.
        self._torn_at: float = 0.5
        #: Observability: how often each point was reached (fired or not).
        self.hits: Counter = Counter()

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, point: str, *, after: int = 0) -> None:
        """Arm ``point`` to crash on its ``after + 1``-th upcoming hit."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}; expected one of {CRASH_POINTS}")
        self._armed[point] = after + 1

    def arm_torn_append(self, *, after: int = 0, at: float = 0.5) -> None:
        """Tear the ``after + 1``-th upcoming journal append mid-write.

        ``at`` is how much of the append's records reach the disk: its
        whole part counts complete records, its fraction the share of
        the next record's bytes.  The default, half of the first
        record, tears a one-record append in the middle; ``at=2.0``
        keeps exactly two whole records of a group and drops the rest.
        """
        if at < 0:
            raise ValueError("at must be non-negative")
        self._torn_in = after + 1
        self._torn_at = at

    def disarm(self) -> None:
        """Clear every armed point (counters are kept)."""
        self._armed.clear()
        self._torn_in = 0

    # ------------------------------------------------------------------
    # Trigger points (called by the service / journal)
    # ------------------------------------------------------------------
    def hit(self, point: str) -> None:
        """Record reaching ``point``; raise :class:`InjectedCrash` if armed."""
        self.hits[point] += 1
        remaining = self._armed.get(point)
        if remaining is None:
            return
        if remaining > 1:
            self._armed[point] = remaining - 1
            return
        del self._armed[point]
        raise InjectedCrash(point)

    def take_torn_append(self) -> Optional[float]:
        """How much of the append about to run survives, or ``None``.

        ``None`` means the append is not torn.  Otherwise the journal
        writes the returned records' worth (see
        :meth:`arm_torn_append`) and dies.  Consumes the arming when it
        fires, so exactly one append is torn.
        """
        if self._torn_in == 0:
            return None
        self._torn_in -= 1
        return self._torn_at if self._torn_in == 0 else None


#: The default injector: never armed, shared by every service instance
#: that was not handed an explicit one.
NULL_INJECTOR = FaultInjector()


def flaky_algorithm_factory(
    base_factory,
    *,
    fail_times: int = 0,
    poison: Optional[Callable[[object], bool]] = None,
    message: str = "injected kernel fault",
):
    """Wrap ``base_factory`` so settles fail on a deterministic schedule.

    Parameters
    ----------
    base_factory:
        The real :data:`~repro.service.service.AlgorithmFactory` to wrap.
    fail_times:
        The first ``fail_times`` calls to ``subsequent_query`` raise
        :class:`KernelFault`; whether the algorithm state was already
        partially mutated is not guaranteed either way — exactly the
        contract a real kernel bug breaks.  The countdown is shared
        across every algorithm the factory builds, because the service
        *rebuilds* the algorithm after a failed settle and the schedule
        must survive that.  Later calls succeed.  Use this to prove
        bounded-retry recovery.
    poison:
        Predicate over :class:`~repro.graph.updates.Update`; whenever a
        batch contains a matching update the settle raises — every time,
        so only bisection + quarantine can make progress.  Use this to
        prove poison isolation.
    message:
        The :class:`KernelFault` message (useful to assert on in the
        dead-letter journal).
    """

    remaining = {"count": fail_times}

    def factory(pattern, data, config):
        algorithm = base_factory(pattern, data, config)
        inner = algorithm.subsequent_query

        def wrapped(batch):
            if poison is not None and any(poison(update) for update in batch):
                raise KernelFault(message)
            if remaining["count"] > 0:
                remaining["count"] -= 1
                raise KernelFault(message)
            return inner(batch)

        algorithm.subsequent_query = wrapped
        return algorithm

    return factory
