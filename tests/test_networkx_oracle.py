"""Cross-validation against networkx — a fully independent oracle.

Everything else in the suite ultimately compares against our own
pointer-chasing DFS.  These tests compare the library's core results
against networkx's independent implementations: transitive closure,
ancestors/descendants, topological sorting, DAG depth, and transitive
reduction.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chain_cover import optimal_chain_decomposition
from repro.core.index import IntervalTCIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.metrics import (
    longest_path_length,
    reachability_count,
    transitive_reduction_size,
)
from repro.graph.traversal import topological_order


def to_networkx(graph: DiGraph) -> nx.DiGraph:
    mirror = nx.DiGraph()
    mirror.add_nodes_from(graph.nodes())
    mirror.add_edges_from(graph.arcs())
    return mirror


@st.composite
def dags(draw):
    n = draw(st.integers(1, 16))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=45))
    graph = DiGraph(nodes=range(n))
    for a, b in pairs:
        if a != b:
            graph.add_arc(min(a, b), max(a, b))
    return graph


@settings(max_examples=40)
@given(dags())
def test_closure_matches_networkx(graph):
    index = IntervalTCIndex.build(graph, gap=1)
    reference = nx.transitive_closure(to_networkx(graph), reflexive=False)
    for node in graph:
        expected = set(reference.successors(node)) | {node}
        assert index.successors(node) == expected


@settings(max_examples=40)
@given(dags())
def test_predecessors_match_networkx_ancestors(graph):
    index = IntervalTCIndex.build(graph, gap=1)
    mirror = to_networkx(graph)
    for node in graph:
        assert index.predecessors(node, reflexive=False) == \
            nx.ancestors(mirror, node)


@settings(max_examples=40)
@given(dags())
def test_topological_order_is_valid_per_networkx(graph):
    order = topological_order(graph)
    mirror = to_networkx(graph)
    position = {node: i for i, node in enumerate(order)}
    # networkx validates a topological sort via all_topological_sorts
    # membership being expensive; checking edge directions is equivalent.
    assert all(position[u] < position[v] for u, v in mirror.edges())


@settings(max_examples=30)
@given(dags())
def test_depth_matches_networkx(graph):
    assert longest_path_length(graph) == \
        nx.dag_longest_path_length(to_networkx(graph))


@settings(max_examples=30)
@given(dags())
def test_reachability_count_matches_networkx(graph):
    reference = nx.transitive_closure(to_networkx(graph), reflexive=False)
    assert reachability_count(graph) == reference.number_of_edges()


@settings(max_examples=30)
@given(dags())
def test_transitive_reduction_matches_networkx(graph):
    reference = nx.transitive_reduction(to_networkx(graph))
    assert transitive_reduction_size(graph) == reference.number_of_edges()


@pytest.mark.parametrize("seed,degree", [(0, 1.5), (1, 2.5), (2, 4.0)])
def test_dilworth_width_matches_networkx_antichain(seed, degree):
    """Minimum chain count == maximum antichain size (Dilworth)."""
    graph = random_dag(18, degree, seed)
    chains = optimal_chain_decomposition(graph)
    mirror = to_networkx(graph)
    closure = nx.transitive_closure(mirror)
    widest = max(len(antichain) for antichain in nx.antichains(closure))
    assert len(chains) == widest


@pytest.mark.parametrize("seed", range(3))
def test_larger_random_dag_closure(seed):
    graph = random_dag(120, 3, seed)
    index = IntervalTCIndex.build(graph)
    reference = nx.transitive_closure(to_networkx(graph), reflexive=False)
    for node in list(graph.nodes())[::10]:
        assert index.successors(node, reflexive=False) == \
            set(reference.successors(node))
