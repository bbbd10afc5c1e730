"""Tests for the pluggable SLen storage backends (sparse vs dense).

The dense NumPy backend must be *observationally identical* to the
sparse dict-of-dicts backend: same distances after construction, after
every per-update maintenance kind (insert/delete × edge/node) and after
a coalesced batch, with the per-update deltas matching pair-for-pair.
"""

from __future__ import annotations

import random

import pytest

from repro.batching.coalesce import coalesce_slen
from repro.batching.compiler import compile_batch
from repro.graph.updates import (
    EdgeInsertion,
    NodeInsertion,
    delete_data_edge,
    delete_data_node,
    insert_data_edge,
    insert_data_node,
)
from repro.spl.backend import (
    BACKEND_NAMES,
    DENSE_AUTO_THRESHOLD,
    SparseSLenBackend,
    dense_available,
    resolve_backend_name,
)
from repro.spl.incremental import update_slen
from repro.spl.matrix import INF, SLenMatrix
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch
from tests.conftest import make_random_graph

pytestmark = pytest.mark.skipif(
    not dense_available(), reason="numpy unavailable; dense backend cannot run"
)


def both_backends(graph, horizon=INF):
    sparse = SLenMatrix.from_graph(graph, horizon=horizon, backend="sparse")
    dense = SLenMatrix.from_graph(graph, horizon=horizon, backend="dense")
    return sparse, dense


class TestSelection:
    def test_resolve_names(self):
        assert resolve_backend_name("sparse", 10_000) == "sparse"
        assert resolve_backend_name("dense", 3) == "dense"
        assert resolve_backend_name("auto", DENSE_AUTO_THRESHOLD - 1) == "sparse"
        assert resolve_backend_name("auto", DENSE_AUTO_THRESHOLD) == "dense"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend_name("csr", 10)
        with pytest.raises(ValueError):
            SLenMatrix.from_graph(make_random_graph(seed=1), backend="csr")

    def test_backend_names_constant(self):
        assert set(BACKEND_NAMES) == {"sparse", "dense", "auto"}

    def test_auto_matrix_resolves_by_node_count(self):
        small = SLenMatrix.from_graph(make_random_graph(seed=1), backend="auto")
        assert small.backend_name == "sparse"

    def test_to_backend_roundtrip(self):
        graph = make_random_graph(seed=2)
        sparse = SLenMatrix.from_graph(graph)
        dense = sparse.to_backend("dense")
        assert dense.backend_name == "dense"
        assert dense == sparse
        back = dense.to_backend("sparse")
        assert back.backend_name == "sparse"
        assert back == sparse
        assert isinstance(back.backend, SparseSLenBackend)

    def test_copy_preserves_backend_and_horizon(self):
        graph = make_random_graph(seed=3)
        dense = SLenMatrix.from_graph(graph, horizon=2, backend="dense")
        clone = dense.copy()
        assert clone.backend_name == "dense"
        assert clone.horizon == 2
        clone.set_distance("n0", "n1", 1)
        assert clone != dense or dense.distance("n0", "n1") == 1


class TestConstructionParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("horizon", (INF, 2, 4))
    def test_from_graph_matches_sparse(self, seed, horizon):
        graph = make_random_graph(num_nodes=25 + seed * 7, num_edges=60 + seed * 25, seed=seed)
        sparse, dense = both_backends(graph, horizon=horizon)
        assert dense == sparse
        assert dense.number_of_finite_entries == sparse.number_of_finite_entries
        assert dense.nodes() == sparse.nodes()

    def test_queries_match(self):
        graph = make_random_graph(seed=11)
        sparse, dense = both_backends(graph)
        for node in graph.nodes():
            assert dense.row(node) == sparse.row(node)
            assert dict(dense.row_view(node)) == dict(sparse.row_view(node))
            assert dense.column(node) == sparse.column(node)
            assert dense.reachable_from(node) == sparse.reachable_from(node)
            assert dense.within(node, 2) == sparse.within(node, 2)

    def test_empty_graph(self):
        from repro.graph.digraph import DataGraph

        sparse, dense = both_backends(DataGraph())
        assert dense == sparse
        assert dense.number_of_nodes == 0

    def test_edgeless_graph(self):
        from repro.graph.digraph import DataGraph

        graph = DataGraph({"a": "X", "b": "Y"})
        sparse, dense = both_backends(graph)
        assert dense == sparse
        assert dense.distance("a", "b") == INF
        assert dense.distance("a", "a") == 0


class TestUpdateParity:
    """Dense and sparse must stay equal after every update kind."""

    @pytest.mark.parametrize("horizon", (INF, 3))
    def test_edge_insert(self, horizon):
        graph = make_random_graph(seed=21)
        sparse, dense = both_backends(graph, horizon=horizon)
        update = insert_data_edge("n0", "n17")
        if graph.has_edge("n0", "n17"):
            graph.remove_edge("n0", "n17")
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert dense == sparse
        assert sparse == SLenMatrix.from_graph(graph, horizon=horizon)

    @pytest.mark.parametrize("horizon", (INF, 3))
    def test_edge_delete(self, horizon):
        graph = make_random_graph(seed=22)
        source, target = next(iter(graph.edges()))
        sparse, dense = both_backends(graph, horizon=horizon)
        update = delete_data_edge(source, target)
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert delta_dense.recomputed_sources == delta_sparse.recomputed_sources
        assert dense == sparse
        assert sparse == SLenMatrix.from_graph(graph, horizon=horizon)

    @pytest.mark.parametrize("horizon", (INF, 3))
    def test_node_insert(self, horizon):
        graph = make_random_graph(seed=23)
        sparse, dense = both_backends(graph, horizon=horizon)
        update = insert_data_node("fresh", "A", [("fresh", "n3"), ("n5", "fresh")])
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert delta_dense.structural_nodes == delta_sparse.structural_nodes
        assert dense == sparse
        assert sparse == SLenMatrix.from_graph(graph, horizon=horizon)

    @pytest.mark.parametrize("horizon", (INF, 3))
    def test_node_delete(self, horizon):
        graph = make_random_graph(seed=24)
        victim = max(graph.nodes(), key=lambda n: graph.out_degree(n) + graph.in_degree(n))
        sparse, dense = both_backends(graph, horizon=horizon)
        update = delete_data_node(victim, graph.labels_of(victim))
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert delta_dense.recomputed_sources == delta_sparse.recomputed_sources
        assert dense == sparse
        assert sparse == SLenMatrix.from_graph(graph, horizon=horizon)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", (INF, 4))
    def test_coalesced_batch(self, seed, horizon):
        graph = make_random_graph(num_nodes=40, num_edges=120, seed=30 + seed)
        pattern = generate_pattern(
            PatternSpec(num_nodes=4, num_edges=4, labels=("A", "B", "C"), seed=seed)
        )
        batch = generate_update_batch(
            graph,
            pattern,
            UpdateWorkloadSpec(num_pattern_updates=0, num_data_updates=20, seed=40 + seed),
        )
        sparse, dense = both_backends(graph, horizon=horizon)
        compiled = compile_batch(batch.data_updates())
        surviving = compiled.data_updates()
        for update in surviving:
            update.apply(graph)
        outcome_sparse = coalesce_slen(sparse, graph, surviving)
        outcome_dense = coalesce_slen(dense, graph, surviving)
        assert outcome_dense.delta.changed_pairs == outcome_sparse.delta.changed_pairs
        assert [d.changed_pairs for d in outcome_dense.per_update] == [
            d.changed_pairs for d in outcome_sparse.per_update
        ]
        assert dense == sparse
        assert sparse == SLenMatrix.from_graph(graph, horizon=horizon)


class TestTransposedSettle:
    """The sparse per-target transposed deletion sweep.

    Structure-level parity: for the same affected map, the transposed
    sweep (one settle per distinct *target*, shared across sources) must
    return exactly what the per-source settle returns, and the sparse
    backend must route between the orientations without changing any
    result.  This closes the sparse/dense deletion-kernel gap — the
    dense batched settle shares work across sources implicitly.
    """

    def _deletion_fixture(self, seed, deletions=3):
        graph = make_random_graph(num_nodes=35, num_edges=110, seed=seed)
        matrix = SLenMatrix.from_graph(graph)
        backend = matrix.backend
        affected: dict = {}
        removed = []
        for source, target in sorted(graph.edges(), key=repr)[:deletions]:
            for x, targets in backend.affected_by_edge_deletion(source, target).items():
                affected.setdefault(x, set()).update(targets)
            removed.append((source, target))
        for source, target in removed:
            graph.remove_edge(source, target)
        return graph, matrix, affected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_source_settle(self, seed):
        from repro.spl.backend import SLenBackend

        graph, matrix, affected = self._deletion_fixture(seed)
        backend = matrix.backend
        per_source = SLenBackend.settle_sources(backend, graph, affected)
        transposed = backend.settle_sources_transposed(graph, affected)
        assert transposed == per_source

    @pytest.mark.parametrize("seed", range(8))
    def test_orientation_routing_is_result_invariant(self, seed):
        from repro.spl.backend import SLenBackend

        graph, matrix, affected = self._deletion_fixture(seed)
        backend = matrix.backend
        routed = backend.settle_sources(graph, affected)
        assert routed == SLenBackend.settle_sources(backend, graph, affected)

    def test_sink_shape_prefers_transposed_and_stays_exact(self):
        """Deleting edges into a sink damages many sources x one target —
        the transposed sweep's home turf."""
        from repro.graph.digraph import DataGraph

        nodes = {f"v{i}": "X" for i in range(8)}
        nodes["sink"] = "X"
        edges = [(f"v{i}", f"v{i+1}") for i in range(7)] + [("v7", "sink")]
        graph = DataGraph(nodes, edges)
        matrix = SLenMatrix.from_graph(graph)
        backend = matrix.backend
        affected = backend.affected_by_edge_deletion("v7", "sink")
        assert len(affected) > 1  # many sources
        assert {y for ys in affected.values() for y in ys} == {"sink"}  # one target
        graph.remove_edge("v7", "sink")
        update = delete_data_edge("v7", "sink")
        delta = update_slen(matrix, graph, update)
        assert matrix == SLenMatrix.from_graph(graph)
        assert all(new == INF for _old, new in delta.changed_pairs.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_skip_sets_respected(self, seed):
        """The coalesced pass settles against the deletions-only graph:
        both orientations must honour skip_edges / skip_nodes."""
        from repro.spl.backend import SLenBackend

        graph, matrix, affected = self._deletion_fixture(seed)
        # Pretend two extra edges and one node were batch-inserted: the
        # settle must ignore them in either orientation.
        extra_edges = []
        nodes = sorted(graph.nodes(), key=repr)
        for source, target in ((nodes[0], nodes[5]), (nodes[3], nodes[9])):
            if not graph.has_edge(source, target):
                graph.add_edge(source, target)
                extra_edges.append((source, target))
        graph.add_node("fresh", "X")
        graph.add_edge(nodes[1], "fresh")
        graph.add_edge("fresh", nodes[2])
        skip_edges = frozenset(extra_edges) | {(nodes[1], "fresh"), ("fresh", nodes[2])}
        skip_nodes = frozenset({"fresh"})
        backend = matrix.backend
        per_source = SLenBackend.settle_sources(
            backend, graph, affected, skip_edges=skip_edges, skip_nodes=skip_nodes
        )
        transposed = backend.settle_sources_transposed(
            graph, affected, skip_edges=skip_edges, skip_nodes=skip_nodes
        )
        assert transposed == per_source


class TestBlockedLayout:
    """The blocked dense layout: block boundaries, elision, scaling.

    A tiny ``dense_block_size`` forces multi-block grids on small
    graphs, so every kernel crosses block frontiers; disconnected
    communities force elided (absent) ``INF``-blocks; and the 10⁴-node
    case pins the acceptance bar — sparse parity with allocated memory
    below the dense-full O(n²) baseline.
    """

    def _blocked(self, graph, block_size, horizon=INF):
        matrix = SLenMatrix.from_graph(
            graph, horizon=horizon, backend="dense", dense_block_size=block_size
        )
        assert matrix.backend.block_size == block_size
        assert matrix.backend._num_block_rows > 1  # genuinely multi-block
        return matrix

    @pytest.mark.parametrize("block_size", (4, 8, 16))
    @pytest.mark.parametrize("horizon", (INF, 3))
    def test_update_stream_parity_across_blocks(self, block_size, horizon):
        """Every update kind, applied sequentially, on a multi-block grid."""
        graph = make_random_graph(num_nodes=37, num_edges=110, seed=61)
        sparse = SLenMatrix.from_graph(graph, horizon=horizon, backend="sparse")
        dense = self._blocked(graph, block_size, horizon=horizon)
        some_edge = sorted(graph.edges(), key=repr)[0][:2]
        updates = [
            insert_data_edge("n0", "n30"),
            delete_data_edge(*some_edge),
            insert_data_node("fresh", "A", [("fresh", "n3"), ("n5", "fresh")]),
            delete_data_node("n11", graph.labels_of("n11")),
        ]
        if graph.has_edge("n0", "n30"):
            graph.remove_edge("n0", "n30")
        for update in updates:
            update.apply(graph)
            delta_sparse = update_slen(sparse, graph, update)
            delta_dense = update_slen(dense, graph, update)
            assert delta_dense.changed_pairs == delta_sparse.changed_pairs
            assert dense == sparse
        assert sparse == SLenMatrix.from_graph(graph, horizon=horizon)

    @pytest.mark.parametrize("seed", range(3))
    def test_coalesced_batch_parity_across_blocks(self, seed):
        graph = make_random_graph(num_nodes=40, num_edges=120, seed=70 + seed)
        pattern = generate_pattern(
            PatternSpec(num_nodes=4, num_edges=4, labels=("A", "B", "C"), seed=seed)
        )
        batch = generate_update_batch(
            graph,
            pattern,
            UpdateWorkloadSpec(num_pattern_updates=0, num_data_updates=20, seed=80 + seed),
        )
        sparse = SLenMatrix.from_graph(graph, backend="sparse")
        dense = self._blocked(graph, block_size=8)
        compiled = compile_batch(batch.data_updates())
        surviving = compiled.data_updates()
        for update in surviving:
            update.apply(graph)
        outcome_sparse = coalesce_slen(sparse, graph, surviving)
        outcome_dense = coalesce_slen(dense, graph, surviving)
        assert outcome_dense.delta.changed_pairs == outcome_sparse.delta.changed_pairs
        assert dense == sparse == SLenMatrix.from_graph(graph)

    def test_slot_reuse_across_block_frontiers(self):
        """Removed slots are reused by later insertions even when the
        reused slot and the node's distances live in different blocks."""
        graph = make_random_graph(num_nodes=30, num_edges=90, seed=62)
        sparse = SLenMatrix.from_graph(graph, backend="sparse")
        dense = self._blocked(graph, block_size=4)
        # Free slots in several different blocks, then re-add nodes: the
        # free list hands the slots back in reverse order, so the new
        # nodes land in other blocks than their namesakes occupied.
        victims = ["n2", "n13", "n27"]
        for victim in victims:
            update = delete_data_node(victim, graph.labels_of(victim))
            update.apply(graph)
            update_slen(sparse, graph, update)
            update_slen(dense, graph, update)
        for position, name in enumerate(("reborn-a", "reborn-b", "reborn-c")):
            edges = [(name, f"n{3 + position}"), (f"n{20 + position}", name)]
            update = insert_data_node(name, "A", edges)
            update.apply(graph)
            delta_sparse = update_slen(sparse, graph, update)
            delta_dense = update_slen(dense, graph, update)
            assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert dense == sparse == SLenMatrix.from_graph(graph)
        assert len(dense.backend._free) == 0

    def test_deletion_settle_spans_elided_inf_blocks(self):
        """A deletion settle whose affected region crosses a block
        frontier while unrelated block pairs stay elided (absent)."""
        from repro.graph.digraph import DataGraph

        # Two chains in disjoint slot ranges (separate blocks at size 4)
        # plus an isolated community that never reaches anything: the
        # cross blocks between the communities are elided INF-blocks.
        nodes = {f"a{i}": "X" for i in range(8)}
        nodes.update({f"b{i}": "X" for i in range(8)})
        nodes.update({f"c{i}": "X" for i in range(4)})
        edges = [(f"a{i}", f"a{i+1}") for i in range(7)]
        edges += [(f"b{i}", f"b{i+1}") for i in range(7)]
        graph = DataGraph(nodes, edges)
        sparse = SLenMatrix.from_graph(graph, backend="sparse")
        dense = self._blocked(graph, block_size=4)
        backend = dense.backend
        assert backend.occupied_blocks() < backend.total_blocks()
        before = backend.occupied_blocks()
        # Delete an edge in the middle of chain a: the affected region
        # (a0..a3 × a4..a7) spans block boundaries; the settle must read
        # SENTINEL through the elided blocks without materialising them.
        update = delete_data_edge("a3", "a4")
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert delta_dense.recomputed_sources == delta_sparse.recomputed_sources
        assert dense == sparse == SLenMatrix.from_graph(graph)
        # The settle emptied entries; it must not have allocated blocks.
        assert backend.occupied_blocks() <= before

    def test_inf_blocks_are_elided(self):
        """Disconnected communities never allocate their cross blocks."""
        from repro.graph.digraph import DataGraph

        nodes = {}
        edges = []
        for community in range(4):
            for i in range(8):
                nodes[f"c{community}-{i}"] = "X"
            edges += [
                (f"c{community}-{i}", f"c{community}-{i+1}") for i in range(7)
            ]
        graph = DataGraph(nodes, edges)
        dense = self._blocked(graph, block_size=8)
        backend = dense.backend
        # Only the four diagonal blocks hold finite entries.
        assert backend.total_blocks() == 16
        assert backend.occupied_blocks() == 4
        assert backend.allocated_bytes() == 4 * 8 * 8 * 4
        assert backend.allocated_bytes() < backend.dense_full_bytes()
        assert dense == SLenMatrix.from_graph(graph, backend="sparse")

    @pytest.mark.parametrize("horizon", (INF, 3))
    def test_bitset_bfs_matches_sparse_reference(self, horizon):
        """The bit-packed BFS agrees with the sparse per-source BFS."""
        graph = make_random_graph(num_nodes=45, num_edges=140, seed=63)
        bitset = SLenMatrix(graph.nodes(), horizon=horizon, backend="dense", dense_block_size=16)
        bitset.backend.build(graph)
        sparse = SLenMatrix(graph.nodes(), horizon=horizon, backend="sparse")
        sparse.backend.build(graph)
        assert bitset == sparse
        # recompute_rows runs the same kernel.
        if not graph.has_edge("n0", "n40"):
            graph.add_edge("n0", "n40")
        changed_bitset = bitset.recompute_rows(graph, ["n0", "n1", "n17"])
        changed_sparse = sparse.recompute_rows(graph, ["n0", "n1", "n17"])
        assert changed_bitset == changed_sparse
        assert bitset == sparse

    def test_block_size_knob_threading(self):
        graph = make_random_graph(seed=64)
        dense = SLenMatrix.from_graph(graph, backend="dense", dense_block_size=32)
        assert dense.backend.block_size == 32
        assert dense.copy().backend.block_size == 32
        converted = SLenMatrix.from_graph(graph).to_backend("dense", dense_block_size=16)
        assert converted.backend.block_size == 16
        assert converted == dense
        with pytest.raises(ValueError):
            SLenMatrix.from_graph(graph, backend="dense", dense_block_size=-1)

    def test_parity_and_memory_at_ten_thousand_nodes(self):
        """The acceptance bar: dense == sparse at 10⁴ nodes with the
        allocated block memory strictly below the dense-full baseline."""
        from repro.workloads.generators import generate_community_graph

        graph = generate_community_graph(
            10_000, community_size=500, seed=97, intra_degree=2, bridges=False
        )
        sparse = SLenMatrix.from_graph(graph, horizon=2, backend="sparse")
        dense = SLenMatrix.from_graph(graph, horizon=2, backend="dense")
        backend = dense.backend
        assert backend.allocated_bytes() < backend.dense_full_bytes()
        assert backend.occupied_blocks() < backend.total_blocks()
        assert dense == sparse
        # Maintenance stays exact at scale, across block boundaries.
        update = insert_data_edge("n10", "n9000")
        if graph.has_edge("n10", "n9000"):
            graph.remove_edge("n10", "n9000")
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        removal = delete_data_edge("n10", "n9000")
        removal.apply(graph)
        delta_sparse = update_slen(sparse, graph, removal)
        delta_dense = update_slen(dense, graph, removal)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert dense == sparse


class TestSourcesWithin:
    """The bulk matching kernel behind the simulation fixpoint."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bound", (1, 2, 3, INF))
    def test_dense_matches_generic(self, seed, bound):
        from repro.spl.backend import SLenBackend

        graph = make_random_graph(num_nodes=30, num_edges=90, seed=seed)
        sparse, dense = both_backends(graph)
        nodes = sorted(graph.nodes(), key=repr)
        sources = set(nodes[::2])
        targets = set(nodes[1::3])
        expected = SLenBackend.sources_within(sparse.backend, sources, targets, bound)
        assert sparse.sources_within(sources, targets, bound) == expected
        assert dense.sources_within(sources, targets, bound) == expected

    def test_blocked_grid_and_edge_cases(self):
        graph = make_random_graph(num_nodes=30, num_edges=90, seed=9)
        dense = SLenMatrix.from_graph(graph, backend="dense", dense_block_size=4)
        sparse = SLenMatrix.from_graph(graph, backend="sparse")
        nodes = sorted(graph.nodes(), key=repr)
        sources = set(nodes[:15])
        targets = set(nodes[15:])
        assert dense.sources_within(sources, targets, 2) == sparse.sources_within(
            sources, targets, 2
        )
        assert dense.sources_within(sources, set(), 3) == set()
        assert dense.sources_within(set(), targets, 3) == set()
        # Out-of-universe nodes are ignored, not an error.
        assert dense.sources_within({"ghost"}, targets, 3) == set()
        assert dense.sources_within(sources, {"ghost"}, 3) == set()
        # bound 0 only admits sources that are themselves targets.
        assert dense.sources_within(sources, sources, 0) == sources

    def test_matches_scalar_edge_constraint(self):
        from repro.matching.bgs import edge_constraint_holds

        graph = make_random_graph(num_nodes=25, num_edges=70, seed=10)
        sparse, dense = both_backends(graph)
        nodes = sorted(graph.nodes(), key=repr)
        targets = set(nodes[5:12])
        for bound in (1, 2, INF):
            expected = {
                node
                for node in nodes
                if edge_constraint_holds(sparse, node, targets, bound)
            }
            assert dense.sources_within(nodes, targets, bound) == expected


class TestDenseStructure:
    """Dense-specific mechanics: slot reuse, growth, caching."""

    def test_grow_past_capacity(self):
        from repro.graph.digraph import DataGraph

        graph = DataGraph({"a": "X", "b": "X"}, [("a", "b")])
        dense = SLenMatrix.from_graph(graph, backend="dense")
        for position in range(10):
            node = f"extra{position}"
            graph.add_node(node, "X")
            graph.add_edge("b", node)
            dense.add_node(node)
            update_slen(dense, graph, insert_data_edge("b", node))
        assert dense == SLenMatrix.from_graph(graph)

    def test_slot_reuse_after_removal(self):
        graph = make_random_graph(seed=41)
        dense = SLenMatrix.from_graph(graph, backend="dense")
        dense.remove_node("n7")
        dense.add_node("reborn")
        assert dense.distance("reborn", "reborn") == 0
        assert dense.distance("n0", "reborn") == INF
        assert "n7" not in dense.nodes()

    def test_row_view_cache_invalidation(self):
        graph = make_random_graph(seed=42)
        dense = SLenMatrix.from_graph(graph, backend="dense")
        before = dict(dense.row_view("n1"))
        dense.set_distance("n1", "n2", 9)
        after = dict(dense.row_view("n1"))
        assert after["n2"] == 9
        unchanged = {target: dist for target, dist in after.items() if target != "n2"}
        assert unchanged == {target: dist for target, dist in before.items() if target != "n2"}

    def test_set_distance_beyond_horizon_dropped(self):
        graph = make_random_graph(seed=43)
        dense = SLenMatrix.from_graph(graph, horizon=2, backend="dense")
        dense.set_distance("n0", "n1", 9)
        assert dense.distance("n0", "n1") == INF

    def test_set_row_matches_sparse(self):
        graph = make_random_graph(seed=44)
        sparse, dense = both_backends(graph, horizon=3)
        replacement = {"n2": 1, "n3": 5, "n4": 2}
        sparse.set_row("n0", replacement)
        dense.set_row("n0", replacement)
        assert dense == sparse
        assert dense.distance("n0", "n3") == INF  # beyond horizon

    def test_recompute_rows_matches_sparse(self):
        graph = make_random_graph(seed=45)
        sparse, dense = both_backends(graph)
        if not graph.has_edge("n0", "n20"):
            graph.add_edge("n0", "n20")
        changed_sparse = sparse.recompute_rows(graph, ["n0", "n1", "n2"])
        changed_dense = dense.recompute_rows(graph, ["n0", "n1", "n2"])
        assert changed_dense == changed_sparse
        assert dense == sparse

    def test_repr_names_backend(self):
        graph = make_random_graph(seed=46)
        dense = SLenMatrix.from_graph(graph, backend="dense")
        assert "dense" in repr(dense)

    def test_tuple_node_ids(self):
        """Node ids are only required to be Hashable — tuples included.

        Regression: the relax kernel's object-array assembly must not let
        numpy unpack sequence ids into extra dimensions.
        """
        from repro.graph.digraph import DataGraph

        nodes = {("shard", position): "X" for position in range(6)}
        edges = [(("shard", p), ("shard", p + 1)) for p in range(5)]
        graph = DataGraph(nodes, edges)
        sparse, dense = both_backends(graph)
        assert dense == sparse
        update = insert_data_edge(("shard", 4), ("shard", 0))
        update.apply(graph)
        delta_sparse = update_slen(sparse, graph, update)
        delta_dense = update_slen(dense, graph, update)
        assert delta_dense.changed_pairs == delta_sparse.changed_pairs
        assert dense == sparse == SLenMatrix.from_graph(graph)
        removal = delete_data_edge(("shard", 2), ("shard", 3))
        removal.apply(graph)
        update_slen(sparse, graph, removal)
        update_slen(dense, graph, removal)
        assert dense == sparse == SLenMatrix.from_graph(graph)


def full_scan_relax(backend, source, target):
    """Reference insertion relaxation over every ``column(u) x row(v)`` pair."""
    changed = {}
    sources_into = backend.column(source)
    sources_into[source] = 0
    targets_out = dict(backend.row_view(target))
    for x, dist_to_source in sources_into.items():
        row_x = backend.row_view(x)
        for y, dist_from_target in targets_out.items():
            if x == y:
                continue
            candidate = dist_to_source + 1 + dist_from_target
            if candidate > backend.horizon:
                continue
            current = row_x.get(y, INF)
            if candidate < current:
                backend.set_value(x, y, candidate)
                changed[(x, y)] = (current, candidate)
    return changed


def full_scan_affected(backend, source, target):
    """Reference deletion affectedness test over every ``column(u) x row(v)`` pair."""
    column_source = backend.column(source)
    column_source[source] = 0
    row_target = dict(backend.row_view(target))
    affected = {}
    for x, dist_to_source in column_source.items():
        row_x = backend.row_view(x)
        targets = {
            y
            for y, dist_from_target in row_target.items()
            if x != y and row_x.get(y) == dist_to_source + 1 + dist_from_target
        }
        if targets:
            affected[x] = targets
    return affected


def ordered_rows(backend):
    """Every row as an item list, so entry order is compared too."""
    return {source: list(backend.row_view(source).items()) for source in backend.node_set()}


def ordered_affected(affected):
    return [(x, list(targets)) for x, targets in affected.items()]


class TestPrunedKernels:
    """The sparse kernels scan only the S x T pairs an edge can change.

    Against the full ``column(u) x row(v)`` scan they must return the
    same dict in the same key order (the coalesced pass attributes
    changes in that order) and leave the same matrix behind.
    """

    HORIZONS = (INF, 1, 2, 3)

    def _sparse(self, graph, horizon):
        return SLenMatrix.from_graph(graph, horizon=horizon, backend="sparse")

    def _assert_relax_matches(self, backend, source, target):
        reference = backend.copy()
        expected = full_scan_relax(reference, source, target)
        got = backend.relax_edge(source, target)
        assert list(got.items()) == list(expected.items())
        assert ordered_rows(backend) == ordered_rows(reference)
        return got

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_relax_matches_full_scan(self, seed, horizon):
        graph = make_random_graph(num_nodes=25, num_edges=50, seed=100 + seed)
        matrix = self._sparse(graph, horizon)
        backend = matrix.backend
        nodes = sorted(graph.nodes())
        rng = random.Random(seed)
        inserted = 0
        while inserted < 6:
            source, target = rng.sample(nodes, 2)
            if graph.has_edge(source, target):
                continue
            graph.add_edge(source, target)
            self._assert_relax_matches(backend, source, target)
            inserted += 1
        assert matrix == SLenMatrix.from_graph(graph, horizon=horizon)

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_affected_matches_full_scan(self, seed, horizon):
        graph = make_random_graph(num_nodes=25, num_edges=60, seed=200 + seed)
        backend = self._sparse(graph, horizon).backend
        before = ordered_rows(backend)
        for source, target in sorted(graph.edges(), key=repr)[::5]:
            got = backend.affected_by_edge_deletion(source, target)
            expected = full_scan_affected(backend, source, target)
            assert ordered_affected(got) == ordered_affected(expected)
        assert ordered_rows(backend) == before

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_edge_without_shortcut_returns_before_column(self, horizon, monkeypatch):
        """Re-relaxing an edge the matrix already reflects has an empty T."""
        graph = make_random_graph(num_nodes=25, num_edges=60, seed=300)
        backend = self._sparse(graph, horizon).backend
        source, target = sorted(graph.edges(), key=repr)[0]
        before = ordered_rows(backend)

        def no_column(node):
            raise AssertionError(f"column({node!r}) built for an edge with empty T")

        monkeypatch.setattr(backend, "column", no_column)
        assert backend.relax_edge(source, target) == {}
        assert ordered_rows(backend) == before

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_edges_at_fresh_isolated_node(self, horizon):
        graph = make_random_graph(num_nodes=25, num_edges=60, seed=301)
        matrix = self._sparse(graph, horizon)
        backend = matrix.backend
        graph.add_node("fresh", "A")
        backend.add_node("fresh")
        for source, target in (("n3", "fresh"), ("fresh", "n7"), ("n9", "fresh")):
            graph.add_edge(source, target)
            got = self._assert_relax_matches(backend, source, target)
            assert got
        assert matrix == SLenMatrix.from_graph(graph, horizon=horizon)
        expected = full_scan_affected(backend, "fresh", "n7")
        got = backend.affected_by_edge_deletion("fresh", "n7")
        assert ordered_affected(got) == ordered_affected(expected)

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("horizon", (INF, 2))
    def test_coalesced_pass_matches_full_scan(self, seed, horizon, monkeypatch):
        """The whole coalesced pass — merged and per-update deltas in key
        order, and the matrix — is unchanged by the pruning, and its
        verification round returns ``{}`` without building a column."""
        graph = make_random_graph(num_nodes=40, num_edges=120, seed=400 + seed)
        pattern = generate_pattern(
            PatternSpec(num_nodes=4, num_edges=4, labels=("A", "B", "C"), seed=seed)
        )
        batch = generate_update_batch(
            graph,
            pattern,
            UpdateWorkloadSpec(num_pattern_updates=0, num_data_updates=24, seed=500 + seed),
        )
        pruned = SLenMatrix.from_graph(graph, horizon=horizon, backend="sparse")
        reference = pruned.copy()
        surviving = compile_batch(batch.data_updates()).data_updates()
        for update in surviving:
            update.apply(graph)

        ref_backend = reference.backend
        monkeypatch.setattr(
            ref_backend, "relax_edge", lambda u, v: full_scan_relax(ref_backend, u, v)
        )
        monkeypatch.setattr(
            ref_backend,
            "affected_by_edge_deletion",
            lambda u, v: full_scan_affected(ref_backend, u, v),
        )
        expected = coalesce_slen(reference, graph, surviving)

        backend = pruned.backend
        calls = []
        columns_built = [0]
        column = backend.column
        relax = backend.relax_edge

        def counting_column(node):
            columns_built[0] += 1
            return column(node)

        def recording_relax(u, v):
            before = columns_built[0]
            result = relax(u, v)
            calls.append((result, columns_built[0] - before))
            return result

        monkeypatch.setattr(backend, "column", counting_column)
        monkeypatch.setattr(backend, "relax_edge", recording_relax)
        got = coalesce_slen(pruned, graph, surviving)

        assert list(got.delta.changed_pairs.items()) == list(
            expected.delta.changed_pairs.items()
        )
        assert [list(d.changed_pairs.items()) for d in got.per_update] == [
            list(d.changed_pairs.items()) for d in expected.per_update
        ]
        assert got.relaxation_rounds == expected.relaxation_rounds
        assert ordered_rows(backend) == ordered_rows(ref_backend)
        assert pruned == SLenMatrix.from_graph(graph, horizon=horizon)

        first_round = sum(
            len(update.edges) if isinstance(update, NodeInsertion) else 1
            for update in surviving
            if isinstance(update, (EdgeInsertion, NodeInsertion))
        )
        verification = calls[first_round:]
        assert got.relaxation_rounds == 2 and verification
        for result, columns in verification:
            assert result == {}
            assert columns == 0
