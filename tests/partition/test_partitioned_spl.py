"""Partition-based shortest paths: paper Tables VIII/IX and exactness properties."""

import random

import pytest

from repro import paper_example
from repro.graph.updates import delete_data_edge
from repro.partition.label_partition import LabelPartition
from repro.partition.partitioned_spl import (
    build_slen_partitioned,
    paper_subprocess_1,
    paper_subprocess_2,
    partitioned_recompute_rows,
)
from repro.spl.matrix import INF, SLenMatrix
from repro.spl.sssp import bfs_lengths
from tests.conftest import make_random_graph
from repro.workloads.generators import SocialGraphSpec, generate_social_graph


class TestPaperExamples:
    def test_table_viii(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        result = paper_subprocess_1(figure4_data, partition, "SE")
        assert result == paper_example.table8_expected()

    def test_table_ix(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        result = paper_subprocess_2(figure4_data, partition, "SE", "TE")
        assert result == paper_example.table9_expected()

    def test_subprocess2_isolated_partition(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        result = paper_subprocess_2(figure4_data, partition, "TE", "SE")
        assert all(value == INF for value in result.values())


class TestExactBuilder:
    def test_figure1_graph(self, figure1_data):
        assert build_slen_partitioned(figure1_data) == SLenMatrix.from_graph(figure1_data)

    def test_figure4_graph(self, figure4_data):
        assert build_slen_partitioned(figure4_data) == SLenMatrix.from_graph(figure4_data)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        graph = make_random_graph(num_nodes=25, num_edges=80, seed=seed)
        assert build_slen_partitioned(graph) == SLenMatrix.from_graph(graph)

    @pytest.mark.parametrize("seed", range(3))
    def test_tiered_social_graphs(self, seed):
        graph = generate_social_graph(
            SocialGraphSpec(name="t", num_nodes=60, num_edges=240, seed=seed)
        )
        assert build_slen_partitioned(graph) == SLenMatrix.from_graph(graph)


class TestPartitionedRecompute:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_plain_bfs_after_deletion(self, seed):
        graph = generate_social_graph(
            SocialGraphSpec(name="t", num_nodes=50, num_edges=200, seed=seed)
        )
        slen = SLenMatrix.from_graph(graph)
        rng = random.Random(seed)
        source, target = rng.choice(sorted(graph.edges(), key=repr))
        delete_data_edge(source, target).apply(graph)
        # The contract requires the requested sources to cover every node
        # whose row is stale; add a few untouched sources on top.
        stale = [
            node
            for node in sorted(graph.nodes(), key=repr)
            if bfs_lengths(graph, node) != slen.row(node)
        ]
        extras = [node for node in sorted(graph.nodes(), key=repr) if node not in stale][:5]
        sources = stale + extras
        rows = partitioned_recompute_rows(graph, slen, sources)
        assert set(rows) == set(sources)
        for node in sources:
            assert rows[node] == bfs_lengths(graph, node)

    def test_empty_sources(self, figure4_data):
        slen = SLenMatrix.from_graph(figure4_data)
        assert partitioned_recompute_rows(figure4_data, slen, []) == {}


class TestPartitionedRoute:
    def test_equals_nopar_after_graph_edits(self, monkeypatch):
        """UA-GPNM's partitioned route over several delete-heavy rounds,
        with the engine's graph edited behind its back between rounds,
        equals UA-GPNM-NoPar on the coalesced route bit for bit: each
        settle partitions the graph it is given, not an earlier one."""
        from repro.algorithms.ua_gpnm import UAGPNM
        from repro.partition import partitioned_spl
        from repro.workloads.pattern_gen import PatternSpec, generate_pattern
        from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch

        recomputes = []
        real_recompute = partitioned_spl.partitioned_recompute_rows

        def counting_recompute(*args, **kwargs):
            recomputes.append(1)
            return real_recompute(*args, **kwargs)

        monkeypatch.setattr(partitioned_spl, "partitioned_recompute_rows", counting_recompute)

        data = generate_social_graph(
            SocialGraphSpec(name="route", num_nodes=40, num_edges=130, seed=11)
        )
        pattern = generate_pattern(
            PatternSpec(num_nodes=4, num_edges=4, labels=("PM", "SE", "TE"), seed=11)
        )
        partitioned = UAGPNM(pattern, data, batch_plan="partitioned")
        plain = UAGPNM(pattern, data, use_partition=False, batch_plan="coalesced")
        for round_number in range(4):
            batch = generate_update_batch(
                partitioned.data,
                partitioned.pattern,
                UpdateWorkloadSpec(
                    num_pattern_updates=0,
                    num_data_updates=12,
                    seed=1100 + round_number,
                    mix="delete-heavy",
                ),
            )
            outcome = partitioned.subsequent_query(batch)
            expected = plain.subsequent_query(batch)
            assert outcome.stats.planned_strategy == "partitioned"
            assert outcome.result == expected.result
            assert partitioned.slen == plain.slen
            assert partitioned.slen == SLenMatrix.from_graph(partitioned.data)
            # Out-of-band edit of both engines' graphs; each matrix is
            # resynced so the next round starts from a consistent state.
            victim = sorted(partitioned.data.edges(), key=repr)[round_number]
            for engine in (partitioned, plain):
                engine._data.remove_edge(*victim)
                engine._slen = SLenMatrix.from_graph(engine._data)
        assert recomputes, "no settle took the partition recompute route"
