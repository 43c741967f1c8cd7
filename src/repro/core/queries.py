"""Higher-level queries over a compressed closure.

Section 6 of the paper lists the operations a knowledge-representation
system needs beyond raw reachability: "subsumption, disjointness, least
common ancestors, and other properties".  This module implements them on
top of :class:`~repro.core.index.IntervalTCIndex`, and provides the
irreflexive (strict) view of reachability for callers who do not want the
paper's every-node-reaches-itself convention.

Every helper is written against the shared
:class:`~repro.core.engine.TCEngine` protocol, so any engine works —
mutable, frozen, hybrid, or durable (:func:`topological_level` is the
one exception: it needs a graph, which only mutable-backed engines
carry).  Given a mutable index that currently has a fresh frozen view
(see :meth:`IntervalTCIndex.freeze`), queries transparently route
through the flat-array engine: predecessor-flavoured queries then use
the reverse interval index instead of scanning every node, and
:func:`path_exists_batch` runs vectorised.  A hybrid engine routes
internally (base snapshot + delta overlay), so it is always used as-is.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.core.engine import TCEngine
from repro.core.index import IntervalTCIndex
from repro.graph.digraph import Node

#: Anything with the shared query surface — kept as an alias so existing
#: ``queries.Engine`` annotations keep working.
Engine = TCEngine


def _engine(index: Engine) -> Engine:
    """The fastest engine available for ``index`` without compiling one.

    Frozen, hybrid and durable engines are used as-is (the hybrid does
    its own base/delta routing); a mutable index is swapped for its
    cached frozen view when that view exists and is fresh.  Freezing is
    never triggered here — callers opt in with ``index.freeze()``.
    """
    frozen_view = getattr(index, "frozen_view", None)
    if frozen_view is not None:
        view = frozen_view()
        return index if view is None else view
    return index


def descendants(index: Engine, node: Node) -> Set[Node]:
    """Strict descendants of ``node`` (successors minus the node itself)."""
    return _engine(index).successors(node, reflexive=False)


def ancestors(index: Engine, node: Node) -> Set[Node]:
    """Strict ancestors of ``node`` (predecessors minus the node itself)."""
    return _engine(index).predecessors(node, reflexive=False)


def strictly_reachable(index: Engine, source: Node, destination: Node) -> bool:
    """Reachability under irreflexive semantics: ``u -> u`` only via a real path.

    The stored relation is acyclic, so a node never strictly reaches itself.
    """
    if source == destination:
        return False
    return index.reachable(source, destination)


def common_ancestors(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """Nodes that reach *every* node in ``nodes`` (reflexively)."""
    node_list = list(nodes)
    if not node_list:
        return set()
    engine = _engine(index)
    result = engine.predecessors(node_list[0])
    for node in node_list[1:]:
        result &= engine.predecessors(node)
    return result


def common_descendants(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """Nodes reachable from *every* node in ``nodes`` (reflexively)."""
    node_list = list(nodes)
    if not node_list:
        return set()
    engine = _engine(index)
    result = engine.successors(node_list[0])
    for node in node_list[1:]:
        result &= engine.successors(node)
    return result


def least_common_ancestors(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """The minimal elements of the common-ancestor set.

    In a lattice-shaped hierarchy this is the greatest lower bound of the
    concepts *above* ``nodes``; in a general DAG there may be several
    incomparable least common ancestors, all of which are returned.
    """
    engine = _engine(index)
    candidates = common_ancestors(engine, nodes)
    return {candidate for candidate in candidates
            if not any(candidate is not other and engine.reachable(candidate, other)
                       for other in candidates)}


def greatest_common_descendants(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """The maximal elements of the common-descendant set (dual of LCA)."""
    engine = _engine(index)
    candidates = common_descendants(engine, nodes)
    return {candidate for candidate in candidates
            if not any(candidate is not other and engine.reachable(other, candidate)
                       for other in candidates)}


def are_disjoint(index: Engine, first: Node, second: Node) -> bool:
    """Whether two hierarchy nodes share no common descendant.

    In an IS-A hierarchy read downward (concept -> subconcept), two
    concepts with no common descendant cannot classify a shared instance —
    the "disjointness" computation of Section 6.  Under the frozen engine
    this is a two-pointer walk over the two rank-run lists; no successor
    set is materialised.
    """
    return _engine(index).are_disjoint(first, second)


def are_comparable(index: Engine, first: Node, second: Node) -> bool:
    """Whether one of the two nodes reaches the other."""
    return index.reachable(first, second) or index.reachable(second, first)


def topological_level(index: IntervalTCIndex, node: Node) -> int:
    """Length of the longest path from any root down to ``node``.

    Computed by memoised pointer chasing over the ancestor cone (cheap,
    bounded by the cone size); used by reports and examples.  Needs the
    mutable index — a frozen view carries no graph.
    """
    graph = index.graph
    memo = {}
    stack = [(node, iter(graph.predecessors(node)))]
    while stack:
        current, parents = stack[-1]
        advanced = False
        for parent in parents:
            if parent not in memo:
                stack.append((parent, iter(graph.predecessors(parent))))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        levels = [memo[parent] for parent in graph.predecessors(current)]
        memo[current] = 1 + max(levels) if levels else 0
    return memo[node]


def path_exists_batch(index: Engine,
                      pairs: Iterable[tuple]) -> List[bool]:
    """Vector form of :meth:`IntervalTCIndex.reachable` for benchmark loops.

    Delegates to :meth:`FrozenTCIndex.reachable_many` (one vectorised
    lookup) whenever a frozen view is available; the
    list-of-bools contract is identical either way.
    """
    return _engine(index).reachable_many(pairs)


def reachable_from_set(index: Engine,
                       sources: Iterable[Node]) -> Set[Node]:
    """Everything reachable from *any* of ``sources`` (reflexive).

    The semijoin building block of recursive query evaluation: one
    interval-set union instead of per-source traversals.
    """
    return _engine(index).reachable_from_set(sources)


def reaching_set(index: Engine,
                 destinations: Iterable[Node]) -> Set[Node]:
    """Everything that reaches *any* of ``destinations`` (reflexive).

    Frozen engine: one reverse-index stab per distinct destination —
    O(log m + answers) each.  Mutable engine: the target numbers are
    sorted once, then each node pays one early-exit bisect pass over its
    own intervals — O(n k log t) worst case, versus the naive
    O(n t log k) of testing every target against every node.
    """
    return _engine(index).reaching_set(destinations)


def any_reachable(index: Engine, sources: Iterable[Node],
                  destinations: Iterable[Node]) -> bool:
    """Does any source reach any destination?  Early-exit set semijoin.

    Target numbers are sorted once; each source then needs one bisect per
    stored interval, stopping at the first hit.
    """
    return _engine(index).any_reachable(sources, destinations)
