"""Structural metrics of DAGs, as used in the experiment reports.

The paper characterises its workloads by node count and average
out-degree; deeper structure — depth, width, reachability density —
explains *why* a particular graph compresses well or badly (deep and
narrow: close to the 2-units-per-node tree bound; shallow and wide:
approaching the Figure 3.6 worst case).  These helpers compute that
structure for report tables and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import reverse_topological_order, topological_order


def longest_path_length(graph: DiGraph) -> int:
    """Number of arcs on the longest directed path (the DAG's depth)."""
    length: Dict[Node, int] = {}
    for node in reverse_topological_order(graph):
        successors = graph.successors(node)
        length[node] = 1 + max((length[s] for s in successors), default=-1)
    return max(length.values(), default=0)


def level_of(graph: DiGraph) -> Dict[Node, int]:
    """Longest-path level per node (roots at level 0)."""
    level: Dict[Node, int] = {}
    for node in topological_order(graph):
        predecessors = graph.predecessors(node)
        level[node] = 1 + max((level[p] for p in predecessors), default=-1)
    return level


def width_by_levels(graph: DiGraph) -> int:
    """Size of the most populated level — a cheap lower bound on width.

    The true width (maximum antichain) equals the Dilworth chain count,
    available precisely via
    :func:`repro.core.chain_cover.optimal_chain_decomposition`; the
    level histogram is the O(n + m) approximation used in reports.
    """
    levels = level_of(graph)
    histogram: Dict[int, int] = {}
    for level in levels.values():
        histogram[level] = histogram.get(level, 0) + 1
    return max(histogram.values(), default=0)


def reachability_count(graph: DiGraph) -> int:
    """Number of ordered reachable pairs, excluding reflexive ones.

    One reverse-topological bitset pass — O(n * m / wordsize); this is the
    exact size of the full transitive closure in the paper's units.
    """
    bit_of = {node: position for position, node in enumerate(graph.nodes())}
    row: Dict[Node, int] = {}
    pairs = 0
    for node in reverse_topological_order(graph):
        bits = 0
        for successor in graph.successors(node):
            bits |= row[successor] | (1 << bit_of[successor])
        row[node] = bits
        pairs += bits.bit_count()
    return pairs


def reachability_density(graph: DiGraph) -> float:
    """Reachable pairs as a fraction of the n(n-1)/2 admissible pairs."""
    n = graph.num_nodes
    possible = n * (n - 1) // 2
    if possible == 0:
        return 0.0
    return reachability_count(graph) / possible


def redundant_arcs(graph: DiGraph) -> List[tuple]:
    """Arcs whose removal leaves reachability unchanged (shortcut arcs).

    An arc ``(u, v)`` is redundant iff ``v`` is reachable from ``u``
    through some other successor.  "A graph of high degree has many
    'redundant' arcs whose removal does not affect the reachability
    information ... the compressed closure avoids the extra storage
    required for these redundant arcs" (Section 3.3).
    """
    bit_of = {node: position for position, node in enumerate(graph.nodes())}
    row: Dict[Node, int] = {}
    redundant: List[tuple] = []
    for node in reverse_topological_order(graph):
        bits = 0
        successor_rows = {}
        for successor in graph.successors(node):
            successor_rows[successor] = row[successor] | (1 << bit_of[successor])
            bits |= successor_rows[successor]
        row[node] = bits
        for successor, its_row in successor_rows.items():
            others = 0
            for other, other_row in successor_rows.items():
                if other != successor:
                    others |= other_row
            if others >> bit_of[successor] & 1:
                redundant.append((node, successor))
    return redundant


def transitive_reduction_size(graph: DiGraph) -> int:
    """Arc count of the transitive reduction (non-redundant arcs)."""
    return graph.num_arcs - len(redundant_arcs(graph))


@dataclass(frozen=True)
class GraphProfile:
    """A one-row structural summary of a DAG."""

    num_nodes: int
    num_arcs: int
    avg_out_degree: float
    depth: int
    level_width: int
    reachable_pairs: int
    density: float
    redundant_arcs: int

    def as_dict(self) -> dict:
        """Flat dict for report tables."""
        return dict(self.__dict__)


def profile(graph: DiGraph) -> GraphProfile:
    """Compute the full structural profile of ``graph``."""
    return GraphProfile(
        num_nodes=graph.num_nodes,
        num_arcs=graph.num_arcs,
        avg_out_degree=graph.average_out_degree(),
        depth=longest_path_length(graph),
        level_width=width_by_levels(graph),
        reachable_pairs=reachability_count(graph),
        density=reachability_density(graph),
        redundant_arcs=len(redundant_arcs(graph)),
    )
