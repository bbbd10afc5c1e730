"""Regression: ``to_backend`` / ``from_rows`` must honour dense_block_size.

``to_backend`` used to return a plain copy whenever the requested
backend matched the current one — silently ignoring a *different*
requested ``dense_block_size``.  ``from_rows`` used to drop the block
size entirely.
"""

from repro.graph import DataGraph
from repro.spl.matrix import SLenMatrix


def ring_graph(num_nodes: int = 12) -> DataGraph:
    data = DataGraph()
    for i in range(num_nodes):
        data.add_node(f"n{i}", "L")
    for i in range(num_nodes):
        data.add_edge(f"n{i}", f"n{(i + 1) % num_nodes}")
    return data


def test_to_backend_reblocks_when_block_size_differs():
    matrix = SLenMatrix.from_graph(ring_graph(), backend="dense", dense_block_size=8)
    assert getattr(matrix._backend, "block_size") == 8

    reblocked = matrix.to_backend("dense", dense_block_size=4)
    assert getattr(reblocked._backend, "block_size") == 4
    assert reblocked == matrix  # distances preserved across re-blocking
    # The original is untouched.
    assert getattr(matrix._backend, "block_size") == 8


def test_to_backend_same_block_size_still_copies():
    matrix = SLenMatrix.from_graph(ring_graph(), backend="dense", dense_block_size=8)
    copy = matrix.to_backend("dense", dense_block_size=8)
    assert copy == matrix
    assert copy is not matrix
    assert getattr(copy._backend, "block_size") == 8


def test_to_backend_without_block_size_keeps_fast_copy_path():
    matrix = SLenMatrix.from_graph(ring_graph(), backend="dense", dense_block_size=8)
    copy = matrix.to_backend("dense")
    assert copy == matrix
    assert getattr(copy._backend, "block_size") == 8


def test_from_rows_propagates_dense_block_size():
    source = SLenMatrix.from_graph(ring_graph())
    rows = {node: dict(source.row(node)) for node in source.nodes()}
    rebuilt = SLenMatrix.from_rows(
        source.nodes(), rows, backend="dense", dense_block_size=4
    )
    assert getattr(rebuilt._backend, "block_size") == 4
    assert rebuilt == source

