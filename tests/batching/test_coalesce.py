"""Merge semantics of the coalesced ``SLen`` maintenance pass.

The contract under test (ISSUE satellite): the single merged
:class:`SLenDelta` of :func:`coalesce_slen` equals the *folded
composition* (:func:`fold_deltas`) of the deltas that sequential
per-update :func:`update_slen` maintenance produces — including
insert-then-delete cancellation and duplicate updates, which the batch
compiler removes before the coalesced pass ever sees them.
"""

import pytest

from repro.batching.coalesce import coalesce_slen
from repro.batching.compiler import compile_batch
from repro.graph.digraph import DataGraph
from repro.graph.errors import UpdateError
from repro.graph.updates import (
    delete_data_edge,
    delete_data_node,
    insert_data_edge,
    insert_data_node,
    insert_pattern_edge,
)
from repro.spl.incremental import fold_deltas, update_slen
from repro.spl.matrix import INF, SLenMatrix
from repro.workloads.generators import SocialGraphSpec, generate_social_graph
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch


def line_graph() -> DataGraph:
    return DataGraph(
        {name: "X" for name in "abcde"},
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    )


def sequential_fold(graph: DataGraph, matrix: SLenMatrix, updates):
    """Apply ``updates`` one at a time; return the folded delta."""
    deltas = []
    for update in updates:
        update.apply(graph)
        deltas.append(update_slen(matrix, graph, update))
    return fold_deltas(deltas)


def coalesced(graph: DataGraph, matrix: SLenMatrix, updates):
    """Apply all of ``updates`` then run one coalesced pass."""
    for update in updates:
        update.apply(graph)
    return coalesce_slen(matrix, graph, updates)


def assert_delta_composition(stream, horizon=INF, base_graph=None):
    """Coalesced(compile(stream)) must equal fold(sequential(stream))."""
    base = base_graph if base_graph is not None else line_graph()
    g1, m1 = base.copy(), SLenMatrix.from_graph(base, horizon=horizon)
    folded = sequential_fold(g1, m1, list(stream))

    compiled = compile_batch(stream)
    g2, m2 = base.copy(), SLenMatrix.from_graph(base, horizon=horizon)
    outcome = coalesced(g2, m2, compiled.data_updates())

    assert g1 == g2
    assert m1 == m2
    assert m2 == SLenMatrix.from_graph(g2, horizon=horizon)
    assert outcome.delta.changed_pairs == folded.changed_pairs
    assert outcome.delta.structural_nodes == folded.structural_nodes
    assert outcome.delta.affected_nodes == folded.affected_nodes
    return outcome


class TestMergeSemantics:
    def test_pure_insertions(self):
        outcome = assert_delta_composition(
            [insert_data_edge("a", "d"), insert_data_edge("e", "a")]
        )
        assert outcome.relaxation_rounds >= 1

    def test_composing_insertions(self):
        """Two insertions forming a new path must compose in one sweep."""
        base = DataGraph({name: "X" for name in "pqrs"}, [("p", "q")])
        assert_delta_composition(
            [insert_data_edge("q", "r"), insert_data_edge("r", "s")],
            base_graph=base,
        )

    def test_pure_deletions_share_one_settle_per_source(self):
        outcome = assert_delta_composition(
            [delete_data_edge("b", "c"), delete_data_edge("d", "e")]
        )
        # Source "a" is hit by both deletions but settled only once.
        assert outcome.settled_sources == len(outcome.delta.recomputed_sources)

    def test_deletion_then_insertion_identity_pairs_are_dropped(self):
        """An insertion that repairs a deletion's damage leaves no pair."""
        base = DataGraph(
            {name: "X" for name in "abc"}, [("a", "b"), ("b", "c"), ("a", "c")]
        )
        # Deleting (b, c) worsens nothing net: (a, c) survives via the
        # direct edge, and the re-insert restores b's row exactly.
        stream = [delete_data_edge("b", "c"), insert_data_edge("b", "c")]
        g1, m1 = base.copy(), SLenMatrix.from_graph(base)
        folded = sequential_fold(g1, m1, stream)
        assert folded.changed_pairs == {}

        compiled = compile_batch(stream)
        assert len(compiled) == 0  # fully cancelled
        g2, m2 = base.copy(), SLenMatrix.from_graph(base)
        outcome = coalesced(g2, m2, compiled.data_updates())
        assert outcome.delta.changed_pairs == {}
        assert outcome.delta.is_empty
        assert m1 == m2

    def test_insert_then_delete_node_cancellation(self):
        stream = [
            insert_data_node("n", "X", [("e", "n"), ("n", "a")]),
            delete_data_node("n"),
        ]
        outcome = assert_delta_composition(stream)
        assert outcome.delta.structural_nodes == frozenset()
        assert outcome.delta.is_empty

    def test_duplicate_updates_are_compiled_away(self):
        """Literal duplicates reach the coalesced path only once."""
        base = line_graph()
        # The sequential reference applies the deduplicated stream (a
        # literal duplicate is not sequentially applicable at all).
        reference = [insert_data_edge("a", "e")]
        g1, m1 = base.copy(), SLenMatrix.from_graph(base)
        folded = sequential_fold(g1, m1, reference)

        duplicated = [insert_data_edge("a", "e"), insert_data_edge("a", "e")]
        compiled = compile_batch(duplicated)
        assert compiled.report.duplicates_dropped == 1
        g2, m2 = base.copy(), SLenMatrix.from_graph(base)
        outcome = coalesced(g2, m2, compiled.data_updates())
        assert outcome.delta.changed_pairs == folded.changed_pairs
        assert m1 == m2

    def test_node_deletion_records_inf_transitions(self):
        outcome = assert_delta_composition([delete_data_node("c", "X")])
        delta = outcome.delta
        assert delta.changed_pairs[("c", "d")] == (1, INF)
        assert delta.changed_pairs[("b", "c")] == (1, INF)
        assert "c" in delta.structural_nodes
        assert "c" in delta.affected_nodes

    def test_mixed_batch_with_horizon(self):
        stream = [
            insert_data_node("n", "X", [("n", "a")]),
            delete_data_edge("c", "d"),
            insert_data_edge("b", "e"),
            delete_data_node("e", "X"),
        ]
        # The stream deletes "e" after inserting an edge towards it; the
        # compiler subsumes that insert, the sequential reference applies
        # the raw (valid) stream.  Both at full and bounded horizon.
        assert_delta_composition(stream)
        assert_delta_composition(stream, horizon=3)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("horizon", [INF, 4])
    def test_randomised_workloads(self, seed, horizon):
        data = generate_social_graph(
            SocialGraphSpec(name=f"co{seed}", num_nodes=36, num_edges=90, seed=seed)
        )
        pattern = generate_pattern(
            PatternSpec(num_nodes=5, num_edges=5, labels=("PM", "SE", "TE"), seed=seed)
        )
        batch = generate_update_batch(
            data,
            pattern,
            UpdateWorkloadSpec(num_pattern_updates=0, num_data_updates=24, seed=seed),
        )
        assert_delta_composition(batch.data_updates(), horizon=horizon, base_graph=data)


class TestPayloadEdgeInteractions:
    """Regressions: carried payload edges reconciled with later deletions."""

    def test_payload_edge_endpoint_deleted_later(self):
        stream = [
            insert_data_node("n", "X", [("n", "b")]),
            delete_data_node("b", "X"),
        ]
        assert_delta_composition(stream)

    def test_payload_edge_deleted_later(self):
        stream = [
            insert_data_node("n", "X", [("n", "a"), ("b", "n")]),
            delete_data_edge("n", "a"),
        ]
        assert_delta_composition(stream)

    def test_orphaned_payload_edge(self):
        stream = [
            insert_data_node("n", "X", [("a", "c")]),
            delete_data_node("n"),
        ]
        base = DataGraph({name: "X" for name in "abc"}, [("a", "b"), ("b", "c")])
        assert_delta_composition(stream, base_graph=base)

    def test_node_churn_through_the_algorithm_surface(self):
        """The same streams must work end-to-end on the coalesced plan."""
        from repro.algorithms.scratch import BatchGPNM
        from repro.algorithms.ua_gpnm import UAGPNM
        from repro.graph.pattern import PatternGraph

        data = line_graph()
        pattern = PatternGraph({"P": "X", "Q": "X"}, [("P", "Q", 2)])
        batch = [
            insert_data_node("n", "X", [("n", "b")]),
            insert_data_node("m", "X", [("a", "m")]),
            delete_data_node("b", "X"),
            delete_data_edge("a", "m"),
        ]
        oracle = BatchGPNM(pattern, data)
        expected = oracle.subsequent_query(list(batch)).result
        # A forced plan takes the coalesced path even for this tiny
        # batch (the auto plan falls back to per-update below the
        # benchmarked crossover).
        engine = UAGPNM(pattern, data, batch_plan="coalesced")
        outcome = engine.subsequent_query(list(batch))
        assert outcome.result == expected
        assert engine.slen == oracle.slen


class TestErrorPaths:
    def test_rejects_pattern_updates(self):
        graph = line_graph()
        with pytest.raises(UpdateError):
            coalesce_slen(
                SLenMatrix.from_graph(graph), graph, [insert_pattern_edge("A", "B", 2)]
            )

    def test_requires_applied_insertion(self):
        graph = line_graph()
        with pytest.raises(UpdateError):
            coalesce_slen(
                SLenMatrix.from_graph(graph), graph, [insert_data_edge("a", "e")]
            )

    def test_requires_applied_deletion(self):
        graph = line_graph()
        with pytest.raises(UpdateError):
            coalesce_slen(
                SLenMatrix.from_graph(graph), graph, [delete_data_edge("a", "b")]
            )

    def test_requires_applied_node_deletion(self):
        graph = line_graph()
        with pytest.raises(UpdateError):
            coalesce_slen(
                SLenMatrix.from_graph(graph), graph, [delete_data_node("a", "X")]
            )
