"""Action queue semantics: per-key order, cross-key concurrency, drain."""

import asyncio

import pytest

from repro.service import ActionScheduler, QueueClosedError


def test_same_key_actions_run_in_scheduling_order():
    async def scenario():
        scheduler = ActionScheduler()
        order = []

        def make(i):
            async def action():
                # Yield inside the action: an unserialised queue would
                # interleave the appends.
                await asyncio.sleep(0)
                order.append(i)

            return action

        for i in range(50):
            scheduler.schedule("g", make(i))
        await scheduler.drain()
        await scheduler.close()
        assert order == list(range(50))

    asyncio.run(scenario())


def test_distinct_keys_run_concurrently():
    async def scenario():
        scheduler = ActionScheduler()
        release = asyncio.Event()

        async def blocked():
            await release.wait()
            return "a"

        async def unblocker():
            release.set()
            return "b"

        # If keys shared one queue, "a" (scheduled first) would deadlock
        # waiting for "b" behind it.
        future_a = scheduler.schedule("a", blocked)
        future_b = scheduler.schedule("b", unblocker)
        assert await asyncio.wait_for(future_a, timeout=2) == "a"
        assert await future_b == "b"
        await scheduler.close()

    asyncio.run(scenario())


def test_awaited_action_error_propagates_and_is_recorded():
    async def scenario():
        scheduler = ActionScheduler()

        async def boom():
            raise RuntimeError("kapow")

        with pytest.raises(RuntimeError, match="kapow"):
            await scheduler.schedule("g", boom)
        assert [(key, str(exc)) for key, exc in scheduler.errors] == [("g", "kapow")]
        await scheduler.close()

    asyncio.run(scenario())


def test_fire_and_forget_error_is_recorded_not_lost():
    async def scenario():
        scheduler = ActionScheduler()

        async def boom():
            raise ValueError("dropped future")

        scheduler.schedule("g", boom)  # future intentionally dropped
        await scheduler.drain()
        assert len(scheduler.errors) == 1
        assert isinstance(scheduler.errors[0][1], ValueError)
        await scheduler.close()

    asyncio.run(scenario())


def test_queue_keeps_working_after_an_action_fails():
    async def scenario():
        scheduler = ActionScheduler()

        async def boom():
            raise RuntimeError("first fails")

        async def fine():
            return 42

        scheduler.schedule("g", boom)
        assert await scheduler.schedule("g", fine) == 42
        await scheduler.close()

    asyncio.run(scenario())


def test_drain_waits_for_actions_scheduled_by_actions():
    async def scenario():
        scheduler = ActionScheduler()
        seen = []

        async def second():
            await asyncio.sleep(0.01)
            seen.append("second")

        async def first():
            seen.append("first")
            # A cut scheduling its settle is exactly this shape.
            scheduler.schedule("g", second)

        scheduler.schedule("g", first)
        await scheduler.drain()
        assert seen == ["first", "second"]
        await scheduler.close()

    asyncio.run(scenario())


def test_drain_covers_cascades_across_keys():
    async def scenario():
        scheduler = ActionScheduler()
        seen = []

        async def on_b():
            seen.append("b")

        async def on_a():
            seen.append("a")
            scheduler.schedule("b", on_b)

        scheduler.schedule("a", on_a)
        await scheduler.drain()
        assert seen == ["a", "b"]
        await scheduler.close()

    asyncio.run(scenario())


def test_schedule_after_close_raises():
    async def scenario():
        scheduler = ActionScheduler()

        async def noop():
            return None

        await scheduler.schedule("g", noop)
        await scheduler.close()
        with pytest.raises(QueueClosedError):
            scheduler.schedule("g", noop)

    asyncio.run(scenario())


def test_close_is_idempotent():
    async def scenario():
        scheduler = ActionScheduler()

        async def noop():
            return None

        await scheduler.schedule("g", noop)
        await scheduler.close()
        await scheduler.close()

    asyncio.run(scenario())


def test_cancelling_the_worker_mid_action_stops_it():
    async def scenario():
        scheduler = ActionScheduler()
        started = asyncio.Event()
        ran = []

        async def stuck():
            started.set()
            await asyncio.Event().wait()

        async def later():
            ran.append("later")

        first = scheduler.schedule("g", stuck)
        second = scheduler.schedule("g", later)
        await started.wait()
        (worker,) = [
            task for task in asyncio.all_tasks() if task.get_name() == "action-queue:g"
        ]
        worker.cancel()
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(worker, timeout=2)
        # The in-flight action died with the worker, and nothing queued
        # behind it ran.
        assert first.cancelled()
        assert not second.done()
        assert ran == []
        await scheduler.abort()
        assert second.cancelled()

    asyncio.run(scenario())


def test_waiting_tail_is_the_last_scheduled_action_until_it_starts():
    async def scenario():
        scheduler = ActionScheduler()
        queue = scheduler.queue("g")
        release = asyncio.Event()

        async def blocked():
            await release.wait()

        async def noop():
            return None

        assert queue.waiting_tail is None
        first = scheduler.schedule("g", blocked)
        assert queue.waiting_tail is first
        await asyncio.sleep(0)  # the worker starts ``first``
        assert queue.waiting_tail is None
        second = scheduler.schedule("g", noop)
        third = scheduler.schedule("g", noop)
        assert queue.waiting_tail is third
        release.set()
        await asyncio.gather(first, second, third)
        assert queue.waiting_tail is None
        await scheduler.close()

    asyncio.run(scenario())
