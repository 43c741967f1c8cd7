"""Tests for postorder numbering and interval propagation (Sections 3.1-3.2)."""

import pytest

from repro.core.intervals import Interval
from repro.core.labeling import (
    assign_postorder,
    check_laminar,
    label_graph,
    merge_all,
    propagate_intervals,
)
from repro.core.tree_cover import build_tree_cover
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag, random_tree
from repro.graph.traversal import reachable_from


def build_labeling(graph, gap=1, merge=False):
    cover = build_tree_cover(graph)
    return label_graph(graph, cover, gap, merge=merge), cover


class TestTreeNumbering:
    """Section 3.1: for a tree the scheme is one interval per node."""

    def test_postorder_numbers_unique_and_positive(self, chain5):
        labeling, _ = build_labeling(chain5)
        numbers = list(labeling.postorder.values())
        assert len(set(numbers)) == len(numbers)
        assert all(number >= 1 for number in numbers)

    def test_chain_numbering(self, chain5):
        labeling, _ = build_labeling(chain5)
        # Postorder of a chain visits the deepest node first.
        assert labeling.postorder[4] == 1
        assert labeling.postorder[0] == 5
        assert labeling.tree_interval[0] == Interval(1, 5)
        assert labeling.tree_interval[4] == Interval(1, 1)

    def test_one_interval_per_tree_node(self):
        tree = random_tree(60, 3)
        labeling, _ = build_labeling(tree)
        assert labeling.total_intervals == 60
        assert labeling.storage_units == 120

    def test_lemma_1_single_range_comparison(self):
        """Lemma 1: b reachable from a iff postorder(b) in a's tree interval."""
        tree = random_tree(40, 7)
        labeling, _ = build_labeling(tree)
        for a in tree:
            reach = reachable_from(tree, a)
            span = labeling.tree_interval[a]
            for b in tree:
                assert (labeling.postorder[b] in span) == (b in reach)

    def test_gap_scales_numbers(self, chain5):
        labeling, _ = build_labeling(chain5, gap=10)
        assert labeling.postorder[4] == 10
        assert labeling.postorder[0] == 50
        # Leaf reserves the gap below its number.
        assert labeling.tree_interval[4] == Interval(1, 10)

    def test_bad_gap(self, chain5):
        cover = build_tree_cover(chain5)
        with pytest.raises(GraphError):
            assign_postorder(cover, gap=0)


class TestLaminarity:
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_intervals_are_laminar(self, seed):
        graph = random_dag(50, 2, seed)
        labeling, _ = build_labeling(graph)
        check_laminar(labeling)

    @pytest.mark.parametrize("gap", [1, 7, 64])
    def test_laminar_with_gaps(self, gap, paper_dag):
        labeling, _ = build_labeling(paper_dag, gap=gap)
        check_laminar(labeling)

    def test_laminar_check_detects_violation(self, paper_dag):
        labeling, _ = build_labeling(paper_dag)
        root_bounds = labeling.tree_interval["a"]  # spans every node
        assert root_bounds.width > 2
        # Manufacture an interval crossing the root's: starts inside, ends
        # beyond.
        labeling.tree_interval["bogus"] = Interval(root_bounds.lo + 1,
                                                   root_bounds.hi + 5)
        with pytest.raises(GraphError):
            check_laminar(labeling)


class TestPropagation:
    def test_diamond_closure(self, diamond):
        labeling, _ = build_labeling(diamond)
        for source in diamond:
            reach = reachable_from(diamond, source)
            for destination in diamond:
                covered = labeling.intervals[source].covers(
                    labeling.postorder[destination])
                assert covered == (destination in reach)

    def test_non_tree_intervals_counted(self, diamond):
        labeling, _ = build_labeling(diamond)
        # One non-tree arc into d forces exactly one extra interval at the
        # non-tree parent (inherited by nobody else: 'a' subsumes it).
        assert labeling.total_intervals == 5

    def test_tree_children_add_nothing(self):
        tree = random_tree(30, 9)
        labeling, _ = build_labeling(tree)
        assert all(len(labeling.intervals[node]) == 1 for node in tree)

    @pytest.mark.parametrize("seed,degree", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_closure_correct_on_random_dags(self, seed, degree):
        graph = random_dag(45, degree, seed)
        labeling, _ = build_labeling(graph)
        for source in graph:
            reach = reachable_from(graph, source)
            for destination in graph:
                assert labeling.intervals[source].covers(
                    labeling.postorder[destination]) == (destination in reach)

    def test_propagation_is_idempotent(self, paper_dag):
        cover = build_tree_cover(paper_dag)
        labeling = assign_postorder(cover)
        propagate_intervals(paper_dag, cover.order, labeling)
        before = labeling.total_intervals
        propagate_intervals(paper_dag, cover.order, labeling)
        assert labeling.total_intervals == before


class TestMergeAll:
    def test_merge_reduces_or_keeps(self, paper_dag):
        labeling, _ = build_labeling(paper_dag)
        before = labeling.total_intervals
        saved = merge_all(labeling)
        assert saved >= 0
        assert labeling.total_intervals == before - saved

    def test_merge_preserves_answers(self):
        graph = random_dag(40, 3, 9)
        plain, _ = build_labeling(graph)
        merged, _ = build_labeling(graph, merge=True)
        for source in graph:
            for destination in graph:
                number = plain.postorder[destination]
                assert plain.intervals[source].covers(number) == \
                    merged.intervals[source].covers(merged.postorder[destination])


class TestNodeOfNumber:
    def test_inverse_map(self, paper_dag):
        labeling, _ = build_labeling(paper_dag)
        for node, number in labeling.postorder.items():
            assert labeling.node_of_number[number] == node
