"""The frozen flat-array engine: parity, staleness, batches, persistence."""

from __future__ import annotations

import pytest

from repro.core import queries
from repro.core.batch import apply_diff
from repro.core.frozen import FrozenTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.serialize import (
    frozen_to_dict,
    index_to_dict,
    index_from_dict,
    save_frozen_index,
    save_index,
)
from repro.factory import open_index
from repro.errors import IndexStateError, NodeNotFoundError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag


@pytest.fixture
def paper_index(paper_dag) -> IntervalTCIndex:
    return IntervalTCIndex.build(paper_dag)


# ----------------------------------------------------------------------
# parity with the mutable engine
# ----------------------------------------------------------------------
def test_matches_mutable_on_fixture(paper_index):
    frozen = paper_index.freeze()
    for u in paper_index.nodes():
        assert frozen.successors(u) == paper_index.successors(u)
        assert frozen.successors(u, reflexive=False) == \
            paper_index.successors(u, reflexive=False)
        assert frozen.predecessors(u) == paper_index.predecessors(u)
        assert frozen.count_successors(u) == paper_index.count_successors(u)
        assert list(frozen.iter_successors(u)) == \
            sorted(frozen.successors(u),
                   key=lambda node: frozen._id(node))
        for v in paper_index.nodes():
            assert frozen.reachable(u, v) == paper_index.reachable(u, v)


def test_matches_mutable_on_random_dags():
    for seed in range(4):
        graph = random_dag(80, 2.0, seed)
        index = IntervalTCIndex.build(graph, gap=(1 if seed % 2 else 32))
        frozen = index.freeze()
        for node in graph.nodes():
            assert frozen.successors(node) == index.successors(node)
            assert frozen.predecessors(node) == index.predecessors(node)


def test_fractional_numbering_freezes():
    index = IntervalTCIndex.build(DiGraph([("a", "b"), ("b", "c")]),
                                  numbering="fractional", gap=4)
    index.add_node("d", parents=["a"])
    frozen = index.freeze()
    for node in index.nodes():
        assert frozen.successors(node) == index.successors(node)


def test_membership_and_interning(paper_index):
    frozen = paper_index.freeze()
    assert len(frozen) == len(paper_index)
    assert "a" in frozen and "nope" not in frozen
    assert set(frozen.nodes()) == set(paper_index.nodes())
    with pytest.raises(NodeNotFoundError):
        frozen.reachable("a", "nope")
    with pytest.raises(NodeNotFoundError):
        frozen.successors("nope")
    with pytest.raises(NodeNotFoundError):
        frozen.predecessors("nope")


def test_empty_index():
    frozen = IntervalTCIndex.build(DiGraph()).freeze()
    assert len(frozen) == 0
    assert frozen.reachable_many([]) == []
    assert frozen.reachable_from_set([]) == set()
    assert not frozen.any_reachable([], [])


# ----------------------------------------------------------------------
# batch and set-semijoin APIs
# ----------------------------------------------------------------------
def test_reachable_many(paper_index):
    frozen = paper_index.freeze()
    nodes = list(paper_index.nodes())
    pairs = [(u, v) for u in nodes for v in nodes]
    assert frozen.reachable_many(pairs) == \
        [paper_index.reachable(u, v) for u, v in pairs]
    assert frozen.reachable_many(iter(pairs[:5])) == \
        [paper_index.reachable(u, v) for u, v in pairs[:5]]


def test_reachable_many_unknown_node(paper_index):
    frozen = paper_index.freeze()
    with pytest.raises(NodeNotFoundError):
        frozen.reachable_many([("a", "b"), ("a", "nope")])


def test_reachable_many_integer_labels():
    """Integer labels exercise the numpy LUT translation path."""
    graph = random_dag(120, 2.0, 11)
    index = IntervalTCIndex.build(graph)
    frozen = index.freeze()
    nodes = list(graph.nodes())
    pairs = [(u, v) for u in nodes[:25] for v in nodes[:25]]
    assert frozen.reachable_many(pairs) == \
        [index.reachable(u, v) for u, v in pairs]
    with pytest.raises(NodeNotFoundError):
        frozen.reachable_many([(nodes[0], 10 ** 9)])


def test_successors_predecessors_many(paper_index):
    frozen = paper_index.freeze()
    nodes = list(paper_index.nodes())
    assert frozen.successors_many(nodes) == \
        [paper_index.successors(node) for node in nodes]
    assert frozen.predecessors_many(nodes, reflexive=False) == \
        [paper_index.predecessors(node, reflexive=False) for node in nodes]


def test_set_semijoins(paper_index):
    frozen = paper_index.freeze()
    assert frozen.reachable_from_set(["b", "c"]) == \
        paper_index.successors("b") | paper_index.successors("c")
    assert frozen.reaching_set(["h"]) == paper_index.predecessors("h")
    assert frozen.reaching_set(["d", "g"]) == \
        paper_index.predecessors("d") | paper_index.predecessors("g")
    assert frozen.any_reachable(["b"], ["h"])
    assert not frozen.any_reachable(["g"], ["d", "e", "h"])
    assert not frozen.any_reachable(["a"], [])


def test_are_disjoint(paper_index):
    frozen = paper_index.freeze()
    for u in paper_index.nodes():
        for v in paper_index.nodes():
            expected = not (paper_index.successors(u)
                            & paper_index.successors(v))
            assert frozen.are_disjoint(u, v) == expected, (u, v)


# ----------------------------------------------------------------------
# staleness protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mutate", [
    pytest.param(lambda ix: ix.add_arc("g", "h"), id="add_arc"),
    pytest.param(lambda ix: ix.add_node("z", parents=["a"]), id="add_node"),
    pytest.param(lambda ix: ix.remove_arc("c", "e"), id="remove_arc"),
    pytest.param(lambda ix: ix.remove_node("d"), id="remove_node"),
    pytest.param(lambda ix: ix.renumber(gap=8), id="renumber"),
    pytest.param(lambda ix: apply_diff(ix, "+ g h\n- b d\n"), id="apply_diff"),
])
def test_updates_invalidate_frozen_view(paper_index, mutate):
    frozen = paper_index.freeze()
    assert not frozen.is_stale()
    assert paper_index.frozen_view() is frozen
    mutate(paper_index)
    assert frozen.is_stale()
    assert paper_index.frozen_view() is None
    with pytest.raises(IndexStateError):
        frozen.reachable("a", "b")
    with pytest.raises(IndexStateError):
        frozen.reachable_many([("a", "b")])
    with pytest.raises(IndexStateError):
        frozen.predecessors("b")


def test_refreeze_after_update(paper_index):
    frozen = paper_index.freeze()
    paper_index.add_node("z", parents=["h"])
    fresh = paper_index.freeze()
    assert fresh is not frozen
    assert fresh.reachable("a", "z")
    for node in paper_index.nodes():
        assert fresh.successors(node) == paper_index.successors(node)


def test_freeze_caches_while_fresh(paper_index):
    first = paper_index.freeze()
    assert paper_index.freeze() is first
    forced = paper_index.freeze(force=True)
    assert forced is not first
    assert paper_index.freeze() is forced



# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_frozen_round_trip(paper_index, tmp_path):
    frozen = paper_index.freeze()
    path = tmp_path / "frozen.json"
    save_frozen_index(frozen, path)
    loaded = open_index(path, engine="frozen")
    for u in paper_index.nodes():
        assert loaded.successors(u) == paper_index.successors(u)
        assert loaded.predecessors(u) == paper_index.predecessors(u)
    # A loaded view is detached from any source index: never stale.
    paper_index.add_arc("g", "h")
    assert not loaded.is_stale()
    assert loaded.reachable("a", "h")


def test_load_any_dispatches(paper_index, tmp_path):
    mutable_path = tmp_path / "index.json"
    frozen_path = tmp_path / "frozen.json"
    save_index(paper_index, mutable_path)
    save_frozen_index(paper_index.freeze(), frozen_path)
    assert isinstance(open_index(mutable_path), IntervalTCIndex)
    assert isinstance(open_index(frozen_path), FrozenTCIndex)


def test_wrong_loader_raises(paper_index):
    frozen_doc = frozen_to_dict(paper_index.freeze())
    with pytest.raises(ReproError):
        index_from_dict(frozen_doc)
    mutable_doc = index_to_dict(paper_index)
    from repro.core.serialize import frozen_from_dict
    with pytest.raises(ReproError):
        frozen_from_dict(mutable_doc)


def test_fractional_round_trip(tmp_path):
    index = IntervalTCIndex.build(DiGraph([("a", "b"), ("b", "c")]),
                                  numbering="fractional", gap=4)
    index.add_node("d", parents=["a"])
    path = tmp_path / "frozen.json"
    save_frozen_index(index.freeze(), path)
    loaded = open_index(path, engine="frozen")
    for node in index.nodes():
        assert loaded.successors(node) == index.successors(node)


def test_inconsistent_buffers_rejected():
    with pytest.raises(ReproError):
        FrozenTCIndex.from_buffers(nodes=["a", "b"], numbers=[1, 2],
                                   offsets=[0, 1], lows=[0], highs=[0])
    with pytest.raises(ReproError):
        FrozenTCIndex.from_buffers(nodes=["a"], numbers=[1],
                                   offsets=[0, 2], lows=[0], highs=[0, 0, 0])


# ----------------------------------------------------------------------
# routing through repro.core.queries
# ----------------------------------------------------------------------
def test_queries_route_through_frozen_view(paper_index):
    nodes = list(paper_index.nodes())
    pairs = [(u, v) for u in nodes[:4] for v in nodes[:4]]
    before = {
        "batch": queries.path_exists_batch(paper_index, pairs),
        "reaching": queries.reaching_set(paper_index, ["h"]),
        "from_set": queries.reachable_from_set(paper_index, ["b", "c"]),
        "any": queries.any_reachable(paper_index, ["a"], ["h"]),
        "disjoint": queries.are_disjoint(paper_index, "d", "g"),
    }
    paper_index.freeze()
    assert queries.path_exists_batch(paper_index, pairs) == before["batch"]
    assert queries.reaching_set(paper_index, ["h"]) == before["reaching"]
    assert queries.reachable_from_set(paper_index, ["b", "c"]) == \
        before["from_set"]
    assert queries.any_reachable(paper_index, ["a"], ["h"]) == before["any"]
    assert queries.are_disjoint(paper_index, "d", "g") == before["disjoint"]


def test_queries_accept_frozen_directly(paper_index):
    frozen = paper_index.freeze()
    assert queries.descendants(frozen, "a") == \
        queries.descendants(paper_index, "a")
    assert queries.ancestors(frozen, "h") == \
        queries.ancestors(paper_index, "h")
    assert queries.common_ancestors(frozen, ["d", "e"]) == \
        queries.common_ancestors(paper_index, ["d", "e"])
    assert queries.least_common_ancestors(frozen, ["e", "f"]) == \
        queries.least_common_ancestors(paper_index, ["e", "f"])


def test_stats_and_nbytes(paper_index):
    frozen = paper_index.freeze()
    report = frozen.stats()
    assert report["num_nodes"] == len(paper_index)
    assert report["nbytes"] == frozen.nbytes > 0
    assert report["stale"] is False
    assert frozen.num_intervals <= paper_index.num_intervals
