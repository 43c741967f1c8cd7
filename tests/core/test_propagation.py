"""The numpy propagation kernel must equal the sequential pass bit for
bit: same graph, same cover, same gap => identical interval sets on
every node.

The sequential :func:`repro.core.labeling.propagate_intervals` is the
reference; every build, recompute and renumbering runs
:func:`repro.core.propagation.run_propagation`, which replays the same
reverse topological order as per-level segmented sweeps.  Any
divergence is an indexing bug, so these tests compare the *full* label
tables, not just query answers.
"""

import random
from fractions import Fraction

import numpy
import pytest

import repro.core.propagation as propagation
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.core.intervals import IntervalSet
from repro.core.labeling import (Labeling, assign_postorder, merge_all,
                                 propagate_intervals)
from repro.core.propagation import run_propagation
from repro.core.tree_cover import build_tree_cover
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag, random_dag_local
from repro.graph.traversal import topological_order


def interval_table(index):
    return {node: sorted(index.intervals[node])
            for node in index.graph.nodes()}


def reference_index(graph, *, gap=DEFAULT_GAP, policy="alg1"):
    """An index labelled by the sequential pass over a fresh cover."""
    cover = build_tree_cover(graph, policy)
    labeling = assign_postorder(cover, gap)
    propagate_intervals(graph, cover.order, labeling)
    return IntervalTCIndex(graph, cover, labeling, policy=policy)


def reference_table(index):
    """The reference pass over the index's current tree intervals and a
    fresh topological order — what any recompute must reproduce."""
    labeling = Labeling(
        postorder=dict(index.postorder),
        tree_interval=dict(index.tree_interval),
        intervals={node: IntervalSet([span])
                   for node, span in index.tree_interval.items()},
        gap=index.gap)
    propagate_intervals(index.graph, topological_order(index.graph),
                        labeling)
    if index.merged:
        merge_all(labeling)
    return {node: sorted(labeling.intervals[node])
            for node in index.graph.nodes()}


def churned(seed, *, merge=False):
    """An integer-numbered index after inserts, arc and node removals."""
    rng = random.Random(seed)
    index = IntervalTCIndex.build(random_dag(60, 2.5, rng), gap=4,
                                  merge=merge)
    nodes = sorted(index.postorder)
    for step in range(5):
        index.add_node(1000 + step, parents=rng.sample(nodes, 2))
    for source, destination in rng.sample(
            sorted(index.graph.arcs()), 6):
        index.remove_arc(source, destination)
    index.remove_node(rng.choice(nodes))
    return index


@pytest.fixture
def fallback_calls(monkeypatch):
    """Count the reference-pass fallbacks taken by ``run_propagation``."""
    calls = []

    def spy(graph, order, labeling):
        calls.append(len(order))
        propagate_intervals(graph, order, labeling)
    monkeypatch.setattr(propagation, "propagate_intervals", spy)
    return calls


def graphs():
    rng = random.Random(20260808)
    yield "paper", DiGraph(arcs=[("a", "b"), ("b", "c"), ("b", "d"),
                                 ("a", "e"), ("e", "d"), ("c", "f")])
    yield "chain", DiGraph(arcs=[(i, i + 1) for i in range(40)])
    yield "diamond-stack", DiGraph(
        arcs=[(i, i + 1 + (i % 2)) for i in range(30)]
        + [(i, i + 2) for i in range(0, 30, 2)])
    yield "empty", DiGraph()
    yield "singletons", DiGraph(nodes=["x", "y", "z"])
    for seed in (1, 7, 23):
        yield f"dag-{seed}", random_dag(120, 2.5, random.Random(seed))
    yield "local", random_dag_local(90, 3.0, rng, window=12)
    yield "dense", random_dag(45, 6.0, rng)


class TestParity:
    @pytest.mark.parametrize("gap", [1, 4, 32])
    def test_full_table_parity(self, gap, fallback_calls):
        for name, graph in graphs():
            reference = reference_index(graph, gap=gap)
            candidate = IntervalTCIndex.build(graph, gap=gap)
            assert interval_table(candidate) == interval_table(reference), \
                f"kernel diverged from the reference on {name!r} at gap={gap}"
            assert candidate.postorder == reference.postorder
        assert fallback_calls == [], "integer numberings run the kernel"

    def test_queries_after_vectorized_build(self):
        graph = random_dag(150, 3.0, random.Random(5))
        reference = reference_index(graph)
        candidate = IntervalTCIndex.build(graph)
        nodes = sorted(graph.nodes())
        for node in nodes[::7]:
            assert candidate.successors(node) == reference.successors(node)
            assert (candidate.predecessors(node)
                    == reference.predecessors(node))

    @pytest.mark.parametrize("policy", ["alg1", "min_pred"])
    def test_parity_across_tree_cover_policies(self, policy):
        graph = random_dag(100, 2.0, random.Random(9))
        reference = reference_index(graph, policy=policy)
        candidate = IntervalTCIndex.build(graph, policy=policy)
        assert interval_table(candidate) == interval_table(reference)

    def test_wide_gap_parity(self, fallback_calls, monkeypatch):
        """At gap 2**30 a level's composite (owner, lo, hi) sort key
        overflows int64, so the sweep takes its lexsort branch.  At
        2**56 even ``n * (max number + 1)`` passes ``2**62``, so the
        pass falls back to the reference.  Both keep the reference
        table."""
        lexsorts = []
        real_lexsort = numpy.lexsort

        def counting_lexsort(keys):
            lexsorts.append(len(keys[0]))
            return real_lexsort(keys)
        monkeypatch.setattr(numpy, "lexsort", counting_lexsort)
        graph = random_dag(40, 2.5, random.Random(3))
        for gap, lexsorted, fallbacks in ((2**30, True, []),
                                          (2**56, False, [40])):
            lexsorts.clear()
            fallback_calls.clear()
            reference = reference_index(graph, gap=gap)
            candidate = IntervalTCIndex.build(graph, gap=gap)
            assert interval_table(candidate) == interval_table(reference)
            assert bool(lexsorts) == lexsorted, gap
            assert fallback_calls == fallbacks, gap

    def test_frozen_views_are_bit_identical(self):
        from repro.core.rtcf import rtcf_bytes
        graph = random_dag(80, 2.5, random.Random(2))
        reference_bytes = rtcf_bytes(reference_index(graph).freeze())
        built_bytes = rtcf_bytes(IntervalTCIndex.build(graph).freeze())
        assert built_bytes == reference_bytes


class TestUpdates:
    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_recompute_after_deletions(self, seed, merge, fallback_calls):
        index = churned(seed, merge=merge)
        assert interval_table(index) == reference_table(index)
        assert fallback_calls == []
        index.verify()

    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_renumber_adopts_assign_postorder(self, seed, merge):
        index = churned(seed, merge=merge)
        index.renumber(8)
        fresh = assign_postorder(index.cover, 8)
        assert index.postorder == fresh.postorder
        assert index.tree_interval == fresh.tree_interval
        assert index.node_of_number == fresh.node_of_number
        assert index.used_numbers == sorted(fresh.postorder.values())
        assert interval_table(index) == reference_table(index)
        index.verify()

    def test_fractional_insertion_takes_the_fallback(self, fallback_calls):
        graph = random_dag(30, 2.5, random.Random(4))
        index = IntervalTCIndex.build(graph, gap=4, numbering="fractional")
        assert fallback_calls == [], "a fresh build still has int numbers"
        parent = max(index.postorder, key=index.postorder.get)
        index.add_node("fresh", parents=[parent])
        assert isinstance(index.postorder["fresh"], Fraction)
        source, destination = next(
            arc for arc in sorted(index.graph.arcs(), key=repr)
            if not index.cover.is_tree_arc(*arc))
        index.remove_arc(source, destination)
        assert fallback_calls == [len(index.postorder)]
        assert interval_table(index) == reference_table(index)
        index.verify()


class TestDispatch:
    def test_run_propagation_signature(self):
        """build(), label_graph() and every recompute call it with an
        explicit topological order."""
        graph = DiGraph(arcs=[("a", "b"), ("a", "c"), ("b", "c")])
        cover = build_tree_cover(graph)
        labeling = assign_postorder(cover, gap=8)
        run_propagation(graph, cover.order, labeling)
        assert labeling.intervals["a"].covers(labeling.postorder["c"])

    @pytest.mark.parametrize("gap", [1, 2**56])
    def test_stale_intervals_are_discarded(self, gap):
        """The pass recomputes each set from the tree intervals alone,
        on the kernel and on the fallback alike."""
        graph = random_dag(50, 2.5, random.Random(8))
        index = IntervalTCIndex.build(graph, gap=gap)
        expected = interval_table(index)
        for interval_set in index.intervals.values():
            interval_set._los[:] = [1]
            interval_set._his[:] = [50 * gap]
        labeling = Labeling(postorder=index.postorder,
                            tree_interval=index.tree_interval,
                            intervals=index.intervals, gap=gap)
        run_propagation(graph, topological_order(graph), labeling)
        assert interval_table(index) == expected
