"""Snapshot-isolation stress: concurrent readers vs. a settling writer.

Reader threads pin MVCC handles (latest and random retained versions)
while the writer settles delta payloads through the streaming service.
Afterwards every pinned handle is compared bit-for-bit against a
*sequential oracle replay* — a from-scratch graph / SLen / match
recomputation at that exact version — across many seeds.  A reader may
observe an older version than the newest settle (that is the point of
MVCC), but never a torn or mixed one.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.algorithms.ua_gpnm import UAGPNM
from repro.graph.digraph import DataGraph
from repro.graph.pattern import PatternGraph
from repro.matching.gpnm import gpnm_query
from repro.service import ServiceConfig, StreamingUpdateService
from repro.spl.matrix import SLenMatrix
from repro.versioning import VersionExpiredError
from repro.workloads.update_gen import derive_seed

from tests.conftest import make_random_graph, make_random_pattern, register_default

#: Root seed of the whole stress suite.  Every per-case RNG seed below
#: derives from this single logged value via :func:`derive_seed`
#: (BLAKE2s over the label path — NOT the per-process salted ``hash()``),
#: so a failing case index reproduces bit-identically in any process:
#: rerun with ``-k "[<case>]"``.
ROOT_SEED = 20260807
CASES = tuple(range(32))


def case_seed(case: int, role: str) -> int:
    """The suite's seeding contract (pinned by the test below)."""
    return derive_seed(ROOT_SEED, "isolation", case, role)


def test_seed_derivation_contract_is_pinned():
    # Cross-process stability is the whole point of derive_seed: if
    # these pins ever break, logged failure case indices stop being
    # reproducible.  Update ROOT_SEED deliberately, never by accident.
    assert case_seed(0, "graph") == 17200825336101333204
    assert case_seed(7, "pattern") == 5898602926773027712
    roles = ("graph", "pattern", "payloads", "reader0", "reader1", "reader2")
    seeds = {case_seed(case, role) for case in CASES for role in roles}
    assert len(seeds) == len(CASES) * len(roles)  # cases are independent

#: Settle after every payload (deadline 0 cuts the buffer on submit) and
#: keep all versions retained for the post-hoc sweep.
def stress_config(history: int = 64) -> ServiceConfig:
    """Service config for the isolation scenarios."""
    return ServiceConfig(
        deadline_seconds=0.0,
        max_buffer=4096,
        coalesce_min_batch=10_000,
        slen_backend="dense",
        snapshot_history=history,
    )


def blocked_engine(data: DataGraph, config: ServiceConfig) -> UAGPNM:
    """The stock engine over SLen in 8-wide dense blocks, so the small
    test graphs span several blocks and copy-on-write sharing is
    actually exercised (also on the service's rebuild path)."""
    return UAGPNM(
        PatternGraph(),
        data,
        use_partition=config.use_partition,
        batch_plan=config.batch_plan,
        coalesce_min_batch=config.coalesce_min_batch,
        precomputed_slen=SLenMatrix.from_graph(data, backend="dense", dense_block_size=8),
    )


def random_payloads(
    base: DataGraph, rng: random.Random, count: int, node_churn: bool
) -> tuple[list[dict], list[DataGraph]]:
    """``count`` always-valid delta payloads plus the graph after each.

    Validity is guaranteed by toggling against a shadow replica: an
    edge pair is inserted only when absent and deleted only when
    present, and each pair is touched at most once per payload (the
    service applies deletes before inserts within one payload).
    """
    shadow = base.copy()
    payloads: list[dict] = []
    states: list[DataGraph] = []
    fresh_serial = 0
    for index in range(count):
        inserts: list[dict] = []
        deletes: list[dict] = []
        nodes = sorted(str(node) for node in shadow.nodes())
        if node_churn and index % 3 == 2:
            # A pure node-churn payload: drop one node (incident edges
            # go with it) and add a fresh one — exercises the SLen slot
            # free list under the service.  Kept free of edge toggles so
            # no same-payload delta can reference the deleted node.
            victim = rng.choice(nodes)
            deletes.append({"type": "node", "node": victim})
            shadow.remove_node(victim)
            fresh = f"fresh{fresh_serial}"
            fresh_serial += 1
            anchor = rng.choice(sorted(str(node) for node in shadow.nodes()))
            inserts.append(
                {"type": "node", "node": fresh, "labels": ["A"], "edges": [[fresh, anchor]]}
            )
            shadow.add_node(fresh, "A")
            shadow.add_edge(fresh, anchor)
        else:
            touched: set[tuple[str, str]] = set()
            for _ in range(rng.randint(1, 4)):
                source, target = rng.sample(nodes, 2)
                if (source, target) in touched:
                    continue
                touched.add((source, target))
                spec = {"type": "edge", "source": source, "target": target}
                if shadow.has_edge(source, target):
                    deletes.append(spec)
                    shadow.remove_edge(source, target)
                else:
                    inserts.append(spec)
                    shadow.add_edge(source, target)
        payloads.append({"deletes": deletes, "inserts": inserts})
        states.append(shadow.copy())
    return payloads, states


def oracle_check(handle, pattern, expected: DataGraph) -> None:
    """Assert a pinned handle is bit-identical to the sequential oracle.

    The match oracle is :func:`gpnm_query` with the paper's totality
    rule on — the same semantics every GPNM algorithm implements.
    """
    assert handle.data == expected
    oracle_slen = SLenMatrix.from_graph(expected)
    assert handle.slen == oracle_slen
    oracle_result = gpnm_query(pattern, expected, oracle_slen)
    assert handle.result.as_dict() == oracle_result.as_dict()


@pytest.mark.parametrize("case", CASES)
def test_concurrent_readers_always_see_a_consistent_version(case):
    async def scenario():
        rng = random.Random(case_seed(case, "payloads"))
        base = make_random_graph(
            num_nodes=18 + case % 5,
            num_edges=40 + case % 7,
            seed=case_seed(case, "graph"),
        )
        pattern = make_random_pattern(
            num_nodes=3 + case % 2,
            num_edges=3 + case % 2,
            seed=case_seed(case, "pattern"),
        )
        payloads, states = random_payloads(
            base, rng, count=6, node_churn=case % 2 == 0
        )

        service = StreamingUpdateService(stress_config(), algorithm_factory=blocked_engine)
        await register_default(service, "g", pattern, base)
        assert service.snapshot("g").slen.backend.block_size == 8

        pinned: list = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(reader_seed: int) -> None:
            reader_rng = random.Random(reader_seed)
            while not stop.is_set():
                try:
                    if reader_rng.random() < 0.5:
                        pinned.append(service.pin("g"))
                    else:
                        version = reader_rng.randrange(len(payloads) + 1)
                        try:
                            pinned.append(service.pin("g", version))
                        except VersionExpiredError:
                            pass  # not settled yet — never a wrong answer
                    stop.wait(0.001)  # yield; pins per settle stay bounded
                except BaseException as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=reader, args=(case_seed(case, f"reader{i}"),))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            try:
                for payload in payloads:
                    receipt = await service.submit("g", payload)
                    assert not receipt.errors, receipt.errors
                    await service.drain()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not errors, errors

            # Every version the readers pinned, plus every retained
            # version swept out of order, matches the sequential oracle.
            versions_by_state = {
                0: base, **{v + 1: graph for v, graph in enumerate(states)}
            }
            assert service.snapshot("g").version == len(payloads)
            for version in rng.sample(
                sorted(versions_by_state), len(versions_by_state)
            ):
                with service.pin("g", version) as handle:
                    oracle_check(handle, pattern, versions_by_state[version])
            # Pins on one version share one immutable snapshot object,
            # so verifying each distinct snapshot covers every pin.
            distinct = {id(handle.snapshot): handle for handle in pinned}
            seen_versions = set()
            for handle in distinct.values():
                oracle_check(handle, pattern, versions_by_state[handle.version])
                seen_versions.add(handle.version)
            assert seen_versions, "readers never caught a single version"
            for handle in pinned:
                handle.release()
        finally:
            await service.close()

    asyncio.run(scenario())


def test_pinned_handle_outlives_history_eviction():
    async def scenario():
        base = make_random_graph(num_nodes=16, num_edges=40, seed=99)
        pattern = make_random_pattern(seed=99)
        service = StreamingUpdateService(
            stress_config(history=3), algorithm_factory=blocked_engine
        )
        await register_default(service, "g", pattern, base)

        pinned_base = service.pin("g", 0)
        rng = random.Random(99)
        payloads, states = random_payloads(base, rng, count=6, node_churn=False)
        for payload in payloads:
            await service.submit("g", payload)
            await service.drain()

        # Version 0 fell out of the 3-deep window: the store refuses it…
        with pytest.raises(VersionExpiredError):
            service.snapshot("g", as_of=0)
        with pytest.raises(VersionExpiredError):
            service.matches("g", as_of=0)
        # …but the pinned handle still answers from the original state.
        oracle_check(pinned_base, pattern, base)
        pinned_base.release()

        stats = service.stats("g")["snapshot"]
        assert stats["retained_versions"] == [4, 5, 6]
        assert stats["history_limit"] == 3
        oracle_check(service.pin("g", 6), pattern, states[-1])
        await service.close()

    asyncio.run(scenario())


def test_reader_pin_is_wait_free_during_a_slow_settle():
    """A pin taken mid-settle answers from the old version immediately."""

    async def scenario():
        base = make_random_graph(num_nodes=16, num_edges=40, seed=7)
        pattern = make_random_pattern(seed=7)
        service = StreamingUpdateService(stress_config(), algorithm_factory=blocked_engine)
        await register_default(service, "g", pattern, base)

        payloads, states = random_payloads(base, random.Random(7), 1, False)
        submit = asyncio.ensure_future(service.submit("g", payloads[0]))
        # Pin while the settle may still be in flight on the executor.
        with service.pin("g") as handle:
            assert handle.version in (0, 1)
            expected = base if handle.version == 0 else states[0]
            oracle_check(handle, pattern, expected)
        await submit
        await service.drain()
        oracle_check(service.pin("g"), pattern, states[0])
        await service.close()

    asyncio.run(scenario())
