"""Tests for the chain-decomposition baseline and Theorem 2."""

import pytest

from repro.baselines.full_closure import FullTCIndex
from repro.core.chain_cover import (
    ChainCoverIndex,
    greedy_chain_decomposition,
    optimal_chain_decomposition,
)
from repro.core.index import IntervalTCIndex
from repro.errors import GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, random_dag, random_tree
from repro.graph.traversal import can_reach, reachable_from


class TestGreedyDecomposition:
    def test_partitions_nodes(self, paper_dag):
        chains = greedy_chain_decomposition(paper_dag)
        flattened = [node for chain in chains for node in chain]
        assert sorted(flattened, key=str) == sorted(paper_dag.nodes(), key=str)
        assert len(set(flattened)) == len(flattened)

    def test_chains_are_paths(self, paper_dag):
        for chain in greedy_chain_decomposition(paper_dag):
            for earlier, later in zip(chain, chain[1:]):
                assert paper_dag.has_arc(earlier, later)

    def test_path_graph_is_one_chain(self):
        chains = greedy_chain_decomposition(path_graph(6))
        assert len(chains) == 1
        assert chains[0] == [0, 1, 2, 3, 4, 5]


class TestOptimalDecomposition:
    def test_partitions_nodes(self, paper_dag):
        chains = optimal_chain_decomposition(paper_dag)
        flattened = [node for chain in chains for node in chain]
        assert sorted(flattened, key=str) == sorted(paper_dag.nodes(), key=str)

    def test_chain_links_are_reachable(self, paper_dag):
        for chain in optimal_chain_decomposition(paper_dag):
            for earlier, later in zip(chain, chain[1:]):
                assert can_reach(paper_dag, earlier, later)

    def test_minimum_count_on_known_graphs(self):
        # An antichain of k nodes needs exactly k chains (Dilworth).
        antichain = DiGraph(nodes=range(5))
        assert len(optimal_chain_decomposition(antichain)) == 5
        # A path needs exactly 1.
        assert len(optimal_chain_decomposition(path_graph(7))) == 1
        # Diamond: width 2.
        diamond = DiGraph([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert len(optimal_chain_decomposition(diamond)) == 2

    def test_never_more_chains_than_greedy(self):
        for seed in range(5):
            graph = random_dag(30, 2, seed)
            optimal = len(optimal_chain_decomposition(graph))
            greedy = len(greedy_chain_decomposition(graph))
            assert optimal <= greedy


class TestChainIndexQueries:
    @pytest.mark.parametrize("method", ["greedy", "optimal"])
    def test_matches_ground_truth(self, method, paper_dag):
        index = ChainCoverIndex.build(paper_dag, method)
        for source in paper_dag:
            assert index.successors(source) == reachable_from(paper_dag, source)

    @pytest.mark.parametrize("method", ["greedy", "optimal"])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, method, seed):
        graph = random_dag(35, 2, seed)
        index = ChainCoverIndex.build(graph, method)
        full = FullTCIndex.build(graph)
        for source in graph:
            for destination in graph:
                assert index.reachable(source, destination) == \
                    full.reachable(source, destination)

    def test_unknown_nodes(self, diamond):
        index = ChainCoverIndex.build(diamond)
        with pytest.raises(NodeNotFoundError):
            index.reachable("ghost", "a")
        with pytest.raises(NodeNotFoundError):
            index.reachable("a", "ghost")
        with pytest.raises(NodeNotFoundError):
            index.successors("ghost")

    def test_unknown_method(self, diamond):
        with pytest.raises(GraphError):
            ChainCoverIndex.build(diamond, "sideways")


class TestTheorem2:
    @pytest.mark.parametrize("seed", range(8))
    def test_intervals_never_exceed_chain_entries(self, seed):
        graph = random_dag(40, 1.5 + (seed % 3), seed)
        intervals = IntervalTCIndex.build(graph, gap=1).num_intervals
        for method in ("greedy", "optimal"):
            entries = ChainCoverIndex.build(graph, method).num_entries
            assert intervals <= entries, (seed, method)

    def test_tree_separation(self):
        """Section 5: trees separate the two schemes by a large margin."""
        tree = random_tree(120, 3)
        intervals = IntervalTCIndex.build(tree, gap=1).num_intervals
        entries = ChainCoverIndex.build(tree, "optimal").num_entries
        assert intervals == 120
        assert entries > intervals

    def test_chain_graph_ties(self):
        """On a single path both schemes cost one record per node."""
        graph = path_graph(10)
        intervals = IntervalTCIndex.build(graph, gap=1).num_intervals
        entries = ChainCoverIndex.build(graph, "greedy").num_entries
        assert intervals == entries == 10


class TestStorageAccounting:
    def test_entries_count(self, chain5):
        index = ChainCoverIndex.build(chain5, "greedy")
        assert index.num_chains == 1
        assert index.num_entries == 5          # one own-position entry per node
        assert index.storage_units == 10
