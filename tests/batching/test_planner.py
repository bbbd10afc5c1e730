"""Unit tests for the adaptive batch execution planner.

Covers the routing rules (the ``coalesce_min_batch`` guard as a planner
rule, insert-dominated routing, cost-model argmin, partitioned
availability), the ``PlanReport`` surface, and the engine's
``batch_plan`` default — the planner is the single source of truth, so
no flag can disagree with the crossover guard.
"""

from __future__ import annotations

import pytest

from repro.algorithms.ua_gpnm import UAGPNM
from repro.batching.planner import (
    DEFAULT_COST_MODEL,
    INSERT_ROUTE_THRESHOLD,
    PLAN_CHOICES,
    STRATEGIES,
    BatchStatistics,
    CostModel,
    estimate_costs,
    plan_batch,
)
from repro.graph.updates import (
    delete_data_edge,
    insert_data_edge,
    insert_pattern_edge,
)


def stats(
    size=256,
    insertions=128,
    deletions=128,
    node_count=320,
    backend="sparse",
    partition=False,
):
    return BatchStatistics(
        batch_size=size,
        data_updates=insertions + deletions,
        insertions=insertions,
        deletions=deletions,
        node_count=node_count,
        backend=backend,
        partition_available=partition,
    )


class TestAutoRouting:
    def test_small_batch_stays_per_update(self):
        """Rule 1 subsumes the old static coalesce_min_batch guard."""
        plan = plan_batch(stats(size=16, insertions=8, deletions=8), min_batch=64)
        assert plan.strategy == "per-update"
        assert "crossover" in plan.reason

    def test_min_batch_is_configurable(self):
        plan = plan_batch(stats(size=16, insertions=8, deletions=8), min_batch=2)
        assert plan.strategy != "per-update" or "crossover" not in plan.reason

    def test_single_data_update_stays_per_update(self):
        plan = plan_batch(stats(size=256, insertions=1, deletions=0), min_batch=2)
        assert plan.strategy == "per-update"

    def test_pure_insert_batch_routes_away_from_coalescing(self):
        plan = plan_batch(stats(insertions=256, deletions=0))
        assert plan.strategy == "per-update"
        assert "non-win" in plan.reason

    def test_insert_dominated_batch_routes_away_from_coalescing(self):
        plan = plan_batch(stats(insertions=205, deletions=51))
        assert plan.strategy == "per-update"
        assert "insert-dominated" in plan.reason
        assert plan.statistics.insert_fraction >= INSERT_ROUTE_THRESHOLD

    def test_delete_heavy_batch_coalesces(self):
        plan = plan_batch(stats(insertions=51, deletions=205))
        assert plan.strategy == "coalesced"

    def test_partitioned_wins_on_large_deletion_volume(self):
        """The quotient-condensation overhead amortises only once the
        deletion volume is large; below that, plain coalesced wins."""
        small = plan_batch(stats(insertions=51, deletions=205, partition=True))
        assert small.strategy == "coalesced"
        large = plan_batch(stats(size=800, insertions=100, deletions=700, partition=True))
        assert large.strategy == "partitioned"

    def test_partitioned_not_offered_without_partition(self):
        costs = estimate_costs(stats(partition=False))
        assert "partitioned" not in costs
        costs = estimate_costs(stats(partition=True))
        assert set(costs) == set(STRATEGIES)

    def test_balanced_crossover_matches_benchmark(self):
        """Auto tracks the BENCH_batching.json crossover: per-update
        below 64 (the min-batch rule), coalesced from 64 up on the
        balanced mix (where the transposed sweep put the crossover)."""
        assert plan_batch(stats(size=32, insertions=16, deletions=16)).strategy == "per-update"
        assert plan_batch(stats(size=64, insertions=32, deletions=32)).strategy == "coalesced"
        assert plan_batch(stats(size=256, insertions=128, deletions=128)).strategy == "coalesced"


class TestCostModelParameter:
    """plan_batch consumes an explicit CostModel (ISSUE 4 acceptance)."""

    def test_default_model_matches_module_constants(self):
        assert DEFAULT_COST_MODEL.insert_route_threshold == INSERT_ROUTE_THRESHOLD
        assert estimate_costs(stats()) == DEFAULT_COST_MODEL.estimate(stats())

    def test_model_changes_routing(self):
        s = stats(insertions=51, deletions=205)
        assert plan_batch(s).strategy == "coalesced"
        prohibitive = DEFAULT_COST_MODEL.replace(coalesce_fixed_overhead=1e9)
        assert plan_batch(s, model=prohibitive).strategy == "per-update"

    def test_model_threshold_drives_insert_routing(self):
        s = stats(insertions=180, deletions=76)  # insert fraction ~0.70
        assert plan_batch(s).strategy != "per-update"
        eager = DEFAULT_COST_MODEL.replace(insert_route_threshold=0.5)
        routed = plan_batch(s, model=eager)
        assert routed.strategy == "per-update"
        assert "insert-dominated" in routed.reason

    def test_dense_discount_in_model_estimates(self):
        sparse_costs = DEFAULT_COST_MODEL.estimate(stats(backend="sparse"))
        dense_costs = DEFAULT_COST_MODEL.estimate(stats(backend="dense"))
        assert dense_costs["coalesced"] < sparse_costs["coalesced"]

    def test_backend_feature_column_scales_per_update(self):
        """dense_per_update_factor prices dense per-update passes."""
        model = DEFAULT_COST_MODEL.replace(dense_per_update_factor=0.5)
        s_sparse = stats(backend="sparse")
        s_dense = stats(backend="dense")
        assert model.estimate(s_sparse)["per-update"] == float(s_sparse.data_updates)
        assert model.estimate(s_dense)["per-update"] == pytest.approx(
            0.5 * s_dense.data_updates
        )
        # The default column is neutral: per-update costs match across
        # backends under the shipped calibration.
        assert DEFAULT_COST_MODEL.estimate(s_dense)["per-update"] == float(
            s_dense.data_updates
        )

    def test_backend_feature_column_scales_coalesced_inserts(self):
        model = DEFAULT_COST_MODEL.replace(dense_coalesced_insert_discount=0.5)
        sparse_cost = model.estimate(stats(backend="sparse"))["coalesced"]
        dense_cost = model.estimate(stats(backend="dense"))["coalesced"]
        expected_drop = (
            stats().insertions * model.coalesced_insert_factor * 0.5
            + stats().deletions
            * model.coalesced_delete_factor
            * (1 - model.dense_coalesced_discount)
        )
        assert dense_cost == pytest.approx(sparse_cost - expected_drop)

    def test_backend_column_can_flip_routing(self):
        """A cheap dense per-update pass routes a batch away from
        coalescing that the sparse pricing would have taken."""
        s = stats(size=256, insertions=51, deletions=205, backend="dense")
        assert plan_batch(s).strategy == "coalesced"
        cheap_dense = DEFAULT_COST_MODEL.replace(dense_per_update_factor=0.05)
        assert plan_batch(s, model=cheap_dense).strategy == "per-update"

    def test_algorithms_expose_active_model(self):
        from tests.conftest import make_random_graph, make_random_pattern

        custom = CostModel(coalesce_fixed_overhead=8.0)
        engine = UAGPNM(
            make_random_pattern(seed=7), make_random_graph(seed=7), cost_model=custom
        )
        assert engine.cost_model is custom
        default_engine = UAGPNM(make_random_pattern(seed=7), make_random_graph(seed=7))
        assert default_engine.cost_model is DEFAULT_COST_MODEL


class TestForcedPlans:
    @pytest.mark.parametrize("strategy", ["per-update", "coalesced"])
    def test_forced_strategies_are_honoured(self, strategy):
        plan = plan_batch(stats(size=4, insertions=2, deletions=2), requested=strategy)
        assert plan.strategy == strategy
        assert plan.forced

    def test_forced_partitioned_needs_a_partition(self):
        plan = plan_batch(stats(partition=True), requested="partitioned")
        assert plan.strategy == "partitioned"
        fallback = plan_batch(stats(partition=False), requested="partitioned")
        assert fallback.strategy == "coalesced"
        assert "fell back" in fallback.reason

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError):
            plan_batch(stats(), requested="quantum")
        assert "auto" in PLAN_CHOICES


class TestBatchStatistics:
    def test_from_updates_counts_data_side_only(self):
        updates = [
            insert_data_edge("a", "b"),
            delete_data_edge("b", "c"),
            insert_pattern_edge("A", "B", 2),
        ]
        s = BatchStatistics.from_updates(updates, node_count=10)
        assert s.batch_size == 3
        assert s.data_updates == 2
        assert s.insertions == 1
        assert s.deletions == 1
        assert s.insert_fraction == 0.5

    def test_empty_stream(self):
        s = BatchStatistics.from_updates([], node_count=0)
        assert s.insert_fraction == 0.0
        assert s.delete_fraction == 0.0

    def test_report_as_dict_is_json_shaped(self):
        plan = plan_batch(stats(partition=True))
        summary = plan.as_dict()
        assert summary["strategy"] == plan.strategy
        assert set(summary["costs"]) <= set(STRATEGIES)


class TestDeprecatedFlag:
    """The planner decides; no flag overrides it."""

    def _instance(self):
        from tests.conftest import make_random_graph, make_random_pattern

        data = make_random_graph(seed=5)
        pattern = make_random_pattern(seed=5)
        return pattern, data

    def test_no_flag_no_warning(self):
        import warnings as _warnings

        pattern, data = self._instance()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            engine = UAGPNM(pattern, data, batch_plan="auto")
        assert engine.batch_plan == "auto"
        assert engine.coalesces_updates

    def test_auto_is_the_default(self):
        """The default flipped from per-update to auto once the planner
        soaked (ISSUE 4); no flag, no warning, auto plan."""
        import warnings as _warnings

        pattern, data = self._instance()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            engine = UAGPNM(pattern, data)
        assert engine.batch_plan == "auto"
        assert engine.coalesces_updates

    def test_planner_is_single_source_of_truth(self):
        """A batch under the crossover: the planner decides (per-update)
        and the record says so — no coalesced pass."""
        pattern, data = self._instance()
        engine = UAGPNM(pattern, data, coalesce_min_batch=64)
        batch = [insert_data_edge("n0", "n9"), delete_data_edge("n1", "n2")]
        from repro.graph.digraph import DataGraph

        graph: DataGraph = engine.data
        batch = [
            u
            for u in batch
            if (u.is_insertion and not graph.has_edge(u.source, u.target))
            or (u.is_deletion and graph.has_edge(u.source, u.target))
        ]
        outcome = engine.subsequent_query(batch)
        assert outcome.stats.planned_strategy == "per-update"
        assert outcome.stats.coalesced_batches == 0
        assert outcome.plan is not None
        assert outcome.plan.strategy == "per-update"

    def test_unknown_batch_plan_rejected(self):
        pattern, data = self._instance()
        with pytest.raises(ValueError):
            UAGPNM(pattern, data, batch_plan="always")
