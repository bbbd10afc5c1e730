"""Per-key serialized action queues for the streaming service.

The service must apply every graph's deltas **in arrival order** while
letting unrelated graphs make progress concurrently.  The shape that
achieves both (the mu-swarm action-scheduler idiom, SNIPPETS.md §1) is
one ordered asyncio queue per key with a single worker task draining it:
actions scheduled on the same key never overlap or reorder, actions on
different keys interleave freely, and the caller chooses per call
whether to await the result or fire and forget.

:class:`ActionScheduler` owns the per-key :class:`ActionQueue` map and
adds the two lifecycle pieces the service needs — :meth:`~ActionScheduler.drain`
(wait until every queue is idle, including actions that were scheduled
*by* actions while draining) and :meth:`~ActionScheduler.close` (drain,
then stop the workers).  Fire-and-forget errors are not lost: every
action future gets a done-callback that records failures on the
scheduler's ``errors`` list (and consumes the exception so asyncio never
logs a "Future exception was never retrieved" warning).
"""

from __future__ import annotations

import asyncio
import logging
from collections.abc import Awaitable, Callable
from typing import Any, Optional

logger = logging.getLogger("repro.service")

#: An action: a zero-argument callable returning an awaitable.  Factories
#: (rather than bare coroutines) let the queue create the coroutine only
#: when its turn arrives, so a closed queue never leaks a never-awaited
#: coroutine object.
ActionFactory = Callable[[], Awaitable[Any]]


class QueueClosedError(RuntimeError):
    """Raised when scheduling on a queue that has been closed."""


class ActionQueue:
    """One key's ordered action queue, drained by a single worker task.

    Actions run strictly one at a time in scheduling order.  The worker
    task is created lazily on the first :meth:`schedule` (so queues can
    be built outside a running event loop) and exits when :meth:`close`
    enqueues the stop sentinel.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._queue: asyncio.Queue = asyncio.Queue()
        self._worker: Optional[asyncio.Task] = None
        self._closed = False
        self._unfinished = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: The future of the last scheduled action until it starts.
        self._waiting_tail: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, factory: ActionFactory) -> "asyncio.Future[Any]":
        """Enqueue ``factory`` and return a future for its result.

        The returned future is safe to drop (fire and forget): a
        done-callback always consumes the outcome, so an unobserved
        failure never triggers asyncio's unretrieved-exception warning.
        Callers that care simply ``await`` the future.
        """
        if self._closed:
            raise QueueClosedError(f"action queue {self.name!r} is closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        future.add_done_callback(self._consume_outcome)
        self._unfinished += 1
        self._idle.clear()
        self._queue.put_nowait((factory, future))
        self._waiting_tail = future
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name=f"action-queue:{self.name}"
            )
        return future

    @property
    def waiting_tail(self) -> "Optional[asyncio.Future[Any]]":
        """The last scheduled action's future, while that action has not started.

        ``None`` once it has started (or when nothing was scheduled).
        A caller that gets its own future back knows nothing else was
        scheduled behind it, so it may still add work to that action.
        """
        return self._waiting_tail

    @staticmethod
    def _consume_outcome(future: "asyncio.Future[Any]") -> None:
        if not future.cancelled():
            future.exception()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                break
            factory, future = item
            if future is self._waiting_tail:
                self._waiting_tail = None
            try:
                result = await factory()
            except asyncio.CancelledError:
                # The worker itself is being cancelled (abort, or a
                # caller's cancel): the action dies with it.
                future.cancel()
                raise
            except BaseException as exc:  # noqa: BLE001 - routed to the future
                if not future.cancelled():
                    future.set_exception(exc)
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
            else:
                if not future.cancelled():
                    future.set_result(result)
            finally:
                self._unfinished -= 1
                if self._unfinished == 0:
                    self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Actions scheduled but not yet finished (incl. the running one)."""
        return self._unfinished

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    async def drain(self) -> None:
        """Wait until every already-scheduled action has finished."""
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then stop the worker task.  Idempotent."""
        if self._closed:
            await self.drain()
            return
        self._closed = True
        await self.drain()
        if self._worker is not None:
            self._queue.put_nowait(None)
            await self._worker
            self._worker = None

    async def abort(self) -> None:
        """Stop immediately: cancel the worker and every queued action.

        Unlike :meth:`close` this does **not** run the backlog — queued
        actions are cancelled and the in-flight one (if any) receives a
        :class:`asyncio.CancelledError`.  This is the in-process stand-in
        for ``kill -9``, used by the fault-injection tests to abandon a
        "crashed" service instance.  Idempotent.
        """
        self._closed = True
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        self._waiting_tail = None
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is None:
                continue
            _, future = item
            if not future.done():
                future.cancel()
        self._unfinished = 0
        self._idle.set()


class ActionScheduler:
    """A map of per-key :class:`ActionQueue` instances, created on demand.

    Guarantees: actions with the same ``key`` run serially in scheduling
    order; actions with different keys run concurrently; :meth:`drain`
    returns only once the whole system is quiescent, even when draining
    actions schedule follow-up actions (the service's batch cuts schedule
    their settles this way).
    """

    def __init__(self) -> None:
        self._queues: dict[str, ActionQueue] = {}
        self._closed = False
        #: ``(key, exception)`` pairs from fire-and-forget actions that
        #: failed.  Awaited actions surface their errors to the caller
        #: *and* appear here, which keeps post-mortems in one place.
        self.errors: list[tuple[str, BaseException]] = []

    def queue(self, key: str) -> ActionQueue:
        """The (possibly newly created) queue for ``key``."""
        queue = self._queues.get(key)
        if queue is None:
            if self._closed:
                raise QueueClosedError("scheduler is closed")
            queue = ActionQueue(name=key)
            self._queues[key] = queue
        return queue

    def schedule(self, key: str, factory: ActionFactory) -> "asyncio.Future[Any]":
        """Enqueue ``factory`` on ``key``'s queue; see :meth:`ActionQueue.schedule`."""
        if self._closed:
            raise QueueClosedError("scheduler is closed")
        future = self.queue(key).schedule(factory)
        future.add_done_callback(lambda f: self._record_error(key, f))
        return future

    def _record_error(self, key: str, future: "asyncio.Future[Any]") -> None:
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            self.errors.append((key, exc))
            logger.error(
                "action on queue %r failed: %r", key, exc, exc_info=exc
            )

    @property
    def pending(self) -> int:
        """Unfinished actions across all queues."""
        return sum(queue.pending for queue in self._queues.values())

    async def drain(self) -> None:
        """Wait until all queues are idle *and stay* idle.

        Draining one queue can schedule actions on another (or on
        itself), so a single pass is not enough: loop until a full pass
        over every queue observes zero pending work.
        """
        while True:
            queues = list(self._queues.values())
            for queue in queues:
                await queue.drain()
            if self.pending == 0 and len(self._queues) == len(queues):
                # Idle — but done-callbacks (error recording, outcome
                # consumption) scheduled via call_soon may still be
                # queued behind us.  Yield once so "drained" also means
                # "bookkeeping settled", then re-check in case one of
                # them scheduled new work.
                await asyncio.sleep(0)
                if self.pending == 0 and len(self._queues) == len(queues):
                    return

    async def close(self) -> None:
        """Drain everything, then stop all workers.  Idempotent."""
        await self.drain()
        self._closed = True
        for queue in self._queues.values():
            await queue.close()

    async def abort(self) -> None:
        """Cancel every queue's worker and backlog without draining.

        See :meth:`ActionQueue.abort` — the simulated ``kill -9`` used
        when a fault-injection test abandons a crashed service instance.
        """
        self._closed = True
        for queue in self._queues.values():
            await queue.abort()

    def __repr__(self) -> str:
        return (
            f"<ActionScheduler queues={len(self._queues)} pending={self.pending} "
            f"errors={len(self.errors)}>"
        )
