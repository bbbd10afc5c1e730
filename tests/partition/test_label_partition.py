"""Tests for the label-based partition and its bridge nodes (Defs 1-2)."""

import pytest

from repro.graph.errors import MissingNodeError
from repro.partition.label_partition import LabelPartition
from tests.conftest import make_random_graph


class TestFigure4Partition:
    """Examples 11-13 of the paper."""

    def test_partition_labels(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        assert partition.labels() == {"SE", "TE", "PM"}
        assert partition.number_of_partitions == 3

    def test_membership(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        assert partition.partition("SE").nodes == {"SE1", "SE2", "SE3", "SE4"}
        assert partition.partition_of("TE2").label == "TE"
        assert partition.label_of("PM1") == "PM"

    def test_inner_bridge_nodes_of_pse(self, figure4_data):
        # Example text: the inner bridge nodes of P_SE are SE1 and SE2.
        partition = LabelPartition.from_graph(figure4_data)
        assert partition.inner_bridge_nodes("SE") == {"SE1", "SE2"}

    def test_outer_bridge_nodes_of_pse(self, figure4_data):
        # Example text: the outer bridge nodes of P_SE are PM1 and TE1.
        partition = LabelPartition.from_graph(figure4_data)
        assert partition.outer_bridge_nodes("SE") == {"PM1", "TE1"}

    def test_pte_has_no_outer_bridge(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        assert partition.outer_bridge_nodes("TE") == frozenset()

    def test_cross_edges_recorded_in_source_partition(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        assert ("SE2", "TE1") in partition.partition("SE").cross_edges
        assert ("SE2", "TE1") not in partition.partition("TE").cross_edges

    def test_quotient(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        assert partition.quotient_successors("SE") == {"PM", "TE"}
        assert partition.reachable_labels("TE") == {"TE"}
        assert partition.reachable_labels("SE") == {"SE", "PM", "TE"}
        assert ("SE", "TE") in partition.quotient_edges()


class TestGeneralProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_partition_covers_all_nodes_and_edges(self, seed):
        graph = make_random_graph(seed=seed)
        partition = LabelPartition.from_graph(graph)
        covered_nodes = set()
        covered_edges = set()
        for part in partition.partitions():
            assert covered_nodes.isdisjoint(part.nodes)
            covered_nodes |= part.nodes
            covered_edges |= set(part.intra_edges) | set(part.cross_edges)
        assert covered_nodes == set(graph.nodes())
        assert covered_edges == set(graph.edges())

    @pytest.mark.parametrize("seed", range(4))
    def test_bridge_definitions(self, seed):
        graph = make_random_graph(seed=seed)
        partition = LabelPartition.from_graph(graph)
        for part in partition.partitions():
            for inner in part.inner_bridge_nodes:
                assert inner in part.nodes
            for outer in part.outer_bridge_nodes:
                assert outer not in part.nodes

    def test_missing_lookups(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        with pytest.raises(KeyError):
            partition.partition("nope")
        with pytest.raises(MissingNodeError):
            partition.partition_of("nope")

    def test_partition_size_and_contains(self, figure4_data):
        partition = LabelPartition.from_graph(figure4_data)
        se = partition.partition("SE")
        assert se.size == 4
        assert "SE1" in se
        assert "PM1" not in se
