"""Settles never build the elimination analysis or the EH-Tree.

The service reads neither ``SubsequentResult.eh_tree`` nor the elimination
counters, so the engine's deferred DER passes and tree build must not run
on any settle route: coalesced merged settles or per-update settles with
standing subscriptions.
"""

import asyncio

import pytest

import repro.algorithms.ua_gpnm as ua_gpnm_module
from repro.elimination.eh_tree import EHTree
from repro.graph import PatternGraph
from repro.service import ServiceConfig, StreamingUpdateService
from repro.service.service import default_algorithm_factory
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch
from tests.service.test_subscriptions import (
    QUIET,
    batch_to_payload,
    diverse_patterns,
    edge_spec,
    make_data,
)


@pytest.fixture
def elimination_calls(monkeypatch):
    """Names of the elimination functions called, one entry per call."""
    calls = []
    detect_all = ua_gpnm_module.detect_all
    build = EHTree.__dict__["build"].__func__

    def counted_detect_all(*args, **kwargs):
        calls.append("detect_all")
        return detect_all(*args, **kwargs)

    def counted_build(cls, *args, **kwargs):
        calls.append("EHTree.build")
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(ua_gpnm_module, "detect_all", counted_detect_all)
    monkeypatch.setattr(EHTree, "build", classmethod(counted_build))
    return calls


def routing_factory(routes):
    """The default engine, recording each settle's batch size and route."""

    def factory(data, config):
        algorithm = default_algorithm_factory(data, config)
        inner = algorithm.subsequent_query

        def recorded(batch):
            outcome = inner(batch)
            routes.append((len(batch), outcome.stats.planned_strategy))
            return outcome

        algorithm.subsequent_query = recorded
        return algorithm

    return factory


def test_coalesced_settles_build_no_elimination_analysis(elimination_calls):
    routes = []

    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(deadline_seconds=30.0, max_buffer=10_000),
            algorithm_factory=routing_factory(routes),
        )
        await service.register("g", make_data(24))
        for round_number in range(3):
            spec = UpdateWorkloadSpec(0, 160, seed=41 + round_number)
            batch = generate_update_batch(service.snapshot("g").data, PatternGraph(), spec)
            for payload in batch_to_payload(batch):
                service.submit_nowait("g", payload)
            await service.drain()
        await service.close()

    asyncio.run(scenario())
    coalesced = [size for size, route in routes if route != "per-update"]
    assert len(coalesced) >= 3 and min(coalesced) >= 64, routes
    assert elimination_calls == []


def test_per_update_settles_with_subscriptions_build_no_elimination_analysis(
    elimination_calls,
):
    routes = []

    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(**QUIET), algorithm_factory=routing_factory(routes)
        )
        await service.register("g", make_data(15))
        for position, pattern in enumerate(diverse_patterns(4, seed=7)):
            await service.subscribe("g", f"q{position}", pattern)
        for source, target in [("n0", "n4"), ("n1", "n5"), ("n2", "n7")]:
            await service.submit("g", {"inserts": [edge_spec(source, target)]})
            await service.drain()
        await service.submit("g", {"deletes": [edge_spec("n0", "n4")]})
        await service.drain()
        await service.close()

    asyncio.run(scenario())
    assert len(routes) >= 4
    assert {route for _size, route in routes} == {"per-update"}
    assert elimination_calls == []
