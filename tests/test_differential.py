"""Differential testing harness: every incremental method vs. the oracle.

Property-based in the seeded style: every seed deterministically derives
a random data graph, a random pattern graph and a random multi-update
stream (via the workload generators), and the subsequent-query results of
``UA-GPNM``, ``UA-GPNM-NoPar``, ``INC-GPNM`` and ``EH-GPNM`` — each run
with the batch plan forced to per-update and to coalesced, and with the
``SLen`` matrix on both the sparse and the dense storage backend — must
be identical to the ``BatchGPNM`` from-scratch oracle.  (The
planner-strategy equivalence suite in
``tests/batching/test_planner_equivalence.py`` additionally forces the
partitioned strategy and checks delta-level equality.)  The internal ``SLen`` matrices
are cross-checked against a from-scratch rebuild as well (matrices on
different backends compare equal when they hold the same distances), so
a maintenance bug cannot hide behind a forgiving matching instance.

The harness runs 50+ seeds by default (the ISSUE's acceptance floor);
crank :data:`EXTRA_SEEDS` locally for a deeper sweep.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.algorithms.eh_gpnm import EHGPNM
from repro.algorithms.inc_gpnm import IncGPNM
from repro.algorithms.scratch import BatchGPNM
from repro.algorithms.ua_gpnm import UAGPNM
from repro.matching import top_k_matches
from repro.matching.gpnm import gpnm_query
from repro.service import StreamingUpdateService
from repro.spl.backend import dense_available
from repro.spl.matrix import SLenMatrix
from repro.workloads.generators import DEFAULT_LABEL_ORDER, SocialGraphSpec, generate_social_graph
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch

from tests.conftest import register_default

#: The seeds exercised by the harness (≥ 50, per the acceptance criteria).
SEEDS = tuple(range(52))
#: Bump for a deeper local sweep: SEEDS = tuple(range(52 + EXTRA_SEEDS)).
EXTRA_SEEDS = 0
if EXTRA_SEEDS:
    SEEDS = tuple(range(len(SEEDS) + EXTRA_SEEDS))

METHODS = (
    ("UA-GPNM", lambda p, d, **kw: UAGPNM(p, d, use_partition=True, **kw)),
    ("UA-GPNM-NoPar", lambda p, d, **kw: UAGPNM(p, d, use_partition=False, **kw)),
    ("INC-GPNM", lambda p, d, **kw: IncGPNM(p, d, **kw)),
    ("EH-GPNM", lambda p, d, **kw: EHGPNM(p, d, **kw)),
)

#: Both storage backends; the dense one is skipped (never silently — CI
#: guards against that) only when numpy is unavailable.
BACKENDS = ("sparse", "dense")

requires_backend = {
    "sparse": lambda: None,
    "dense": lambda: None
    if dense_available()
    else pytest.skip("numpy unavailable; dense backend cannot run"),
}


def _random_instance(seed: int):
    """Derive one (data, pattern, batch) instance from ``seed``."""
    data = generate_social_graph(
        SocialGraphSpec(
            name=f"diff{seed}",
            num_nodes=30 + (seed % 5) * 6,
            num_edges=70 + (seed % 7) * 12,
            seed=1000 + seed,
        )
    )
    labels = tuple(label for label in DEFAULT_LABEL_ORDER if label in data.labels())
    pattern = generate_pattern(
        PatternSpec(
            num_nodes=4 + seed % 3,
            num_edges=4 + seed % 3,
            labels=labels,
            min_bound=1,
            max_bound=3,
            star_probability=0.1 if seed % 4 == 0 else 0.0,
            respect_label_order=seed % 2 == 0,
            seed=2000 + seed,
        )
    )
    batch = generate_update_batch(
        data,
        pattern,
        UpdateWorkloadSpec(
            num_pattern_updates=2 + seed % 4,
            num_data_updates=8 + (seed % 5) * 4,
            seed=3000 + seed,
        ),
    )
    return data, pattern, batch


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_methods_match_oracle(seed, backend):
    requires_backend[backend]()
    data, pattern, batch = _random_instance(seed)
    slen = SLenMatrix.from_graph(data, backend=backend)
    iquery = gpnm_query(pattern, data, slen, enforce_totality=False)

    oracle = BatchGPNM(pattern, data, precomputed_slen=slen, precomputed_relation=iquery)
    expected = oracle.subsequent_query(batch).result
    expected_slen = oracle.slen

    for name, factory in METHODS:
        for plan in ("per-update", "coalesced"):
            engine = factory(
                pattern,
                data,
                precomputed_slen=slen,
                precomputed_relation=iquery,
                # Force the strategy even for these small batches; the
                # auto plan would route them per-update below the
                # benchmarked crossover.
                batch_plan=plan,
            )
            outcome = engine.subsequent_query(batch)
            label = f"{name} (backend={backend}, plan={plan}, seed={seed})"
            assert engine.slen_backend == backend, label
            assert outcome.result == expected, f"{label}: SQuery differs from oracle"
            assert engine.slen == expected_slen, f"{label}: SLen differs from rebuild"
            assert outcome.stats.planned_strategy == plan, label
            if plan == "coalesced":
                assert outcome.stats.coalesced_batches <= 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS[:8])
def test_chained_batches_match_oracle(seed, backend):
    """Chaining several subsequent queries keeps every method exact."""
    requires_backend[backend]()
    data, pattern, _ = _random_instance(seed)
    slen = SLenMatrix.from_graph(data, backend=backend)
    iquery = gpnm_query(pattern, data, slen, enforce_totality=False)

    engines = {
        (name, plan): factory(
            pattern,
            data,
            precomputed_slen=slen,
            precomputed_relation=iquery,
            batch_plan=plan,
        )
        for name, factory in METHODS
        for plan in ("per-update", "coalesced")
    }
    oracle = BatchGPNM(pattern, data, precomputed_slen=slen, precomputed_relation=iquery)

    for step in range(3):
        batch = generate_update_batch(
            oracle.data,
            oracle.pattern,
            UpdateWorkloadSpec(
                num_pattern_updates=1 + step,
                num_data_updates=6 + 4 * step,
                seed=5000 + 17 * seed + step,
            ),
        )
        expected = oracle.subsequent_query(batch).result
        for (name, plan), engine in engines.items():
            got = engine.subsequent_query(batch).result
            assert got == expected, (
                f"{name} (backend={backend}, plan={plan}, seed={seed}, "
                f"step={step}) diverged"
            )


# ----------------------------------------------------------------------
# Time-travel differential: ``as_of`` reads vs. per-version checkpoints
# ----------------------------------------------------------------------
#: Seeds for the MVCC time-travel sweep (each runs a streaming service).
TIME_TRAVEL_SEEDS = tuple(range(10))


def _time_travel_instance(seed: int):
    """One (data, pattern, payloads, per-version graphs) service instance.

    Data-only delta payloads (the service's wire vocabulary carries no
    pattern updates), generated by toggling edges against a shadow
    replica so every delta is valid by construction.
    """
    from tests.versioning.test_isolation import random_payloads

    data, pattern, _ = _random_instance(seed)
    payloads, states = random_payloads(
        data, random.Random(7000 + seed), count=5, node_churn=seed % 2 == 0
    )
    return data, pattern, payloads, states


def _expected_reads(pattern, graph, k: int = 5):
    """The checkpointed oracle for one version: matches, top-k, slen."""
    slen = SLenMatrix.from_graph(graph)
    result = gpnm_query(pattern, graph, slen)
    ranked = top_k_matches(result, pattern, graph, slen, k)
    top_k = {
        p: [(match.data_node, match.score) for match in matches]
        for p, matches in ranked.items()
    }
    return result.as_dict(), top_k, slen


@pytest.mark.parametrize("seed", TIME_TRAVEL_SEEDS)
def test_as_of_reads_match_every_checkpointed_version(seed):
    """Replaying out of order, every ``as_of`` read equals its checkpoint."""
    requires_backend["dense"]()
    from tests.versioning.test_isolation import stress_config

    data, pattern, payloads, states = _time_travel_instance(seed)

    async def scenario():
        service = StreamingUpdateService(stress_config())
        await register_default(service, "g", pattern, data)
        try:
            checkpoints = {0: _expected_reads(pattern, data)}
            for version, (payload, graph) in enumerate(zip(payloads, states), start=1):
                receipt = await service.submit("g", payload)
                assert not receipt.errors, receipt.errors
                await service.drain()
                checkpoints[version] = _expected_reads(pattern, graph)
            assert service.snapshot("g").version == len(payloads)

            versions = list(checkpoints)
            random.Random(seed).shuffle(versions)  # deterministic disorder
            for version in versions:
                matches, top_k, slen = checkpoints[version]
                label = f"seed={seed}, as_of={version}"
                assert service.matches("g", as_of=version) == matches, label
                got_top_k = {
                    p: [(match.data_node, match.score) for match in ranked]
                    for p, ranked in service.top_k("g", 5, as_of=version).items()
                }
                assert got_top_k == top_k, label
                nodes = sorted(str(node) for node in slen.nodes())[:6]
                for source in nodes:
                    for target in nodes:
                        assert service.slen_distance(
                            "g", source, target, as_of=version
                        ) == slen.distance(source, target), label
                # The lifetime stamps answer membership for the same
                # version, even though they never store a snapshot.
                history = service.graph_history("g")
                graph = data if version == 0 else states[version - 1]
                assert history.nodes_as_of(version) == set(graph.nodes()), label
                assert history.edges_as_of(version) == set(graph.edges()), label
        finally:
            await service.close()

    asyncio.run(scenario())


def test_as_of_past_eviction_raises_clean_version_expired():
    """Evicted versions answer with ``VersionExpiredError``, never wrongly."""
    requires_backend["dense"]()
    from repro.versioning import VersionExpiredError
    from tests.versioning.test_isolation import stress_config

    data, pattern, payloads, states = _time_travel_instance(3)

    async def scenario():
        service = StreamingUpdateService(stress_config(history=2))
        await register_default(service, "g", pattern, data)
        try:
            for payload in payloads:
                await service.submit("g", payload)
                await service.drain()
            latest = len(payloads)
            for stale in range(latest - 1):  # only the last 2 are retained
                with pytest.raises(VersionExpiredError) as excinfo:
                    service.matches("g", as_of=stale)
                assert excinfo.value.version == stale
                some_node = sorted(str(node) for node in data.nodes())[0]
                with pytest.raises(VersionExpiredError):
                    service.top_k("g", 3, as_of=stale)
                with pytest.raises(VersionExpiredError):
                    service.slen_distance("g", some_node, some_node, as_of=stale)
            # Unpublished future versions fail the same clean way.
            with pytest.raises(VersionExpiredError):
                service.matches("g", as_of=latest + 1)
            # Retained versions still answer exactly.
            for version in (latest - 1, latest):
                matches, _, _ = _expected_reads(pattern, states[version - 1])
                assert service.matches("g", as_of=version) == matches
        finally:
            await service.close()

    asyncio.run(scenario())
