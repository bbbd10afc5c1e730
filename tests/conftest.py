"""Shared fixtures: the paper's running example and small synthetic graphs."""

from __future__ import annotations

import random

import pytest

from repro import paper_example
from repro.graph.digraph import DataGraph
from repro.graph.pattern import PatternGraph
from repro.spl.matrix import SLenMatrix


@pytest.fixture
def figure1_data() -> DataGraph:
    """The Figure 1(a) data graph."""
    return paper_example.figure1_data_graph()


@pytest.fixture
def figure1_pattern() -> PatternGraph:
    """The Figure 1(b) pattern graph."""
    return paper_example.figure1_pattern_graph()


@pytest.fixture
def figure1_slen(figure1_data) -> SLenMatrix:
    """The SLen matrix of the Figure 1 data graph (Table III)."""
    return SLenMatrix.from_graph(figure1_data)


@pytest.fixture
def figure4_data() -> DataGraph:
    """The Figure 4(a) data graph used by the partition examples."""
    return paper_example.figure4_data_graph()


def make_random_graph(
    num_nodes: int = 30,
    num_edges: int = 90,
    labels: tuple[str, ...] = ("A", "B", "C", "D"),
    seed: int = 0,
) -> DataGraph:
    """Small deterministic random labelled digraph for property-style tests."""
    rng = random.Random(seed)
    graph = DataGraph()
    nodes = [f"n{i}" for i in range(num_nodes)]
    for node in nodes:
        graph.add_node(node, rng.choice(labels))
    attempts = 0
    while graph.number_of_edges < num_edges and attempts < num_edges * 20:
        attempts += 1
        source, target = rng.sample(nodes, 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    return graph


def make_random_pattern(
    num_nodes: int = 4,
    num_edges: int = 5,
    labels: tuple[str, ...] = ("A", "B", "C", "D"),
    seed: int = 0,
    max_bound: int = 3,
) -> PatternGraph:
    """Small deterministic random pattern for property-style tests."""
    rng = random.Random(seed)
    pattern = PatternGraph()
    nodes = [f"q{i}" for i in range(num_nodes)]
    for node in nodes:
        pattern.add_node(node, rng.choice(labels))
    for position in range(1, num_nodes):
        anchor = nodes[rng.randrange(position)]
        pattern.add_edge(anchor, nodes[position], rng.randint(1, max_bound))
    attempts = 0
    while pattern.number_of_edges < num_edges and attempts < num_edges * 20:
        attempts += 1
        source, target = rng.sample(nodes, 2)
        if not pattern.has_edge(source, target):
            pattern.add_edge(source, target, rng.randint(1, max_bound))
    return pattern


@pytest.fixture
def random_graph() -> DataGraph:
    """A 30-node random labelled graph."""
    return make_random_graph()


@pytest.fixture
def random_pattern() -> PatternGraph:
    """A 4-node random pattern over the same label set."""
    return make_random_pattern()


async def register_default(service, key: str, pattern: PatternGraph, data: DataGraph):
    """Register ``data`` under ``key`` with ``pattern`` as its default
    subscription (what pattern-unaddressed reads resolve); returns the
    published snapshot."""
    from repro.service.subscriptions import DEFAULT_PATTERN_ID

    await service.register(key, data)
    await service.subscribe(key, DEFAULT_PATTERN_ID, pattern, replace=True)
    return service.snapshot(key)
