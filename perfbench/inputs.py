"""Seeded inputs for one benchmark run, and their reference answers.

Everything here is computed from the seed alone, before the server
starts, and without touching the program under test:

* the graph: the paper's random-DAG model (a hidden random topological
  permutation, then ``avg_degree * n`` distinct forward arcs drawn
  uniformly from the ``n(n-1)/2`` admissible pairs);
* the pair pool for ``check`` requests, half drawn from reachable pairs;
* the nodes for set queries, chosen so each answer stays small;
* the write plan: add-only mutations whose arcs always point forward in
  a topological order, so none can be rejected as a cycle.

Reference answers come from plain graph search (a bitset sweep in
reverse topological order for the pair pool, breadth-first search for
the set queries), independent of the interval index being measured.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

#: Set-query answers are kept at or below this many nodes, so a set
#: query costs the server milliseconds rather than seconds.
SETQ_MAX_ANSWER = 200
SETQ_POOL = 96
PAIR_POOL = 4096
DEST_POOL = 1024


class Graph:
    """Adjacency lists over integer ids plus a topological position.

    Ids ``0..n-1`` are the generated nodes; planned ``add-node`` writes
    append further ids.  The wire label of id ``i`` is ``labels[i]``.
    """

    def __init__(self, n: int) -> None:
        self.labels: List[str] = [str(i) for i in range(n)]
        self.succ: List[List[int]] = [[] for _ in range(n)]
        self.pred: List[List[int]] = [[] for _ in range(n)]
        self.position: List[int] = [0] * n
        self.arcs: Set[Tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self.labels)

    def add_node(self, label: str, parents: Sequence[int]) -> int:
        node = len(self.labels)
        self.labels.append(label)
        self.succ.append([])
        self.pred.append([])
        self.position.append(max(self.position) + 1)
        for parent in parents:
            self.add_arc(parent, node)
        return node

    def add_arc(self, source: int, destination: int) -> None:
        self.arcs.add((source, destination))
        self.succ[source].append(destination)
        self.pred[destination].append(source)

    def copy(self) -> "Graph":
        other = Graph(0)
        other.labels = list(self.labels)
        other.succ = [list(row) for row in self.succ]
        other.pred = [list(row) for row in self.pred]
        other.position = list(self.position)
        other.arcs = set(self.arcs)
        return other

    def topological(self) -> List[int]:
        return sorted(range(len(self)), key=self.position.__getitem__)

    def edge_list(self) -> str:
        """The program's input: ``u v`` lines, isolated nodes alone."""
        lines = [label for node, label in enumerate(self.labels)
                 if not self.succ[node] and not self.pred[node]]
        lines.extend(f"{self.labels[u]} {self.labels[v]}"
                     for u, v in sorted(self.arcs))
        return "\n".join(lines) + "\n"


def random_dag(n: int, avg_degree: float, rng: random.Random) -> Graph:
    """The paper's synthetic model: uniform distinct forward arcs."""
    graph = Graph(n)
    order = list(range(n))
    rng.shuffle(order)
    for position, node in enumerate(order):
        graph.position[node] = position
    wanted = int(round(n * avg_degree))
    while len(graph.arcs) < wanted:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        pair = (order[a], order[b])
        if pair not in graph.arcs:
            graph.add_arc(*pair)
    return graph


def reach_masks(graph: Graph, destinations: Sequence[int]) -> List[int]:
    """``masks[u]`` has bit ``i`` set when ``u`` reaches ``destinations[i]``
    (reflexively) — one OR per arc, in reverse topological order."""
    bit = {node: 1 << index for index, node in enumerate(destinations)}
    masks = [0] * len(graph)
    for node in reversed(graph.topological()):
        mask = bit.get(node, 0)
        for child in graph.succ[node]:
            mask |= masks[child]
        masks[node] = mask
    return masks


def search(adjacency: List[List[int]], start: int, cap: int = 0) -> Set[int]:
    """Reflexive breadth-first closure of ``start``; empty past ``cap``."""
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                if cap and len(seen) > cap:
                    return set()
                queue.append(nxt)
    return seen


class Inputs:
    """The graph, the request pools, the write plan and the references."""

    def __init__(self, *, nodes: int, avg_degree: float, seed: int,
                 writes: int) -> None:
        rng = random.Random(seed)
        self.initial = random_dag(nodes, avg_degree, rng)
        self.nodes = nodes
        self.num_arcs = len(self.initial.arcs)
        self.final = self.initial.copy()
        self.writes = self._plan_writes(self.final, writes, rng)
        self.final_arcs = len(self.final.arcs)

        destinations = rng.sample(range(nodes), DEST_POOL)
        masks = reach_masks(self.initial, destinations)
        final_masks = reach_masks(self.final, destinations)
        self.pairs: List[Tuple[str, str]] = []
        #: per pool index: (answer before any write, answer after all)
        self.pair_truth: List[Tuple[bool, bool]] = []
        labels = self.initial.labels
        while len(self.pairs) < PAIR_POOL:
            source = rng.randrange(nodes)
            if len(self.pairs) % 2 == 0:
                for _ in range(200):  # a source that reaches the pool
                    if masks[source]:
                        break
                    source = rng.randrange(nodes)
            mask = masks[source]
            if len(self.pairs) % 2 == 0 and mask:
                hits = [i for i in range(DEST_POOL) if mask >> i & 1]
                index = rng.choice(hits)
            else:
                index = rng.randrange(DEST_POOL)
            self.pairs.append((labels[source], labels[destinations[index]]))
            self.pair_truth.append((bool(mask >> index & 1),
                                    bool(final_masks[source] >> index & 1)))

        self.expand = self._set_queries(self.initial.succ,
                                        self.final.succ, rng)
        self.reaching = self._set_queries(self.initial.pred,
                                          self.final.pred, rng)

    @staticmethod
    def _plan_writes(graph: Graph, count: int,
                     rng: random.Random) -> List[dict]:
        """Alternate add-node / add-arc; every arc points forward in the
        topological order, so no write can close a cycle."""
        plan: List[dict] = []
        while len(plan) < count:
            if len(plan) % 2 == 0:
                parents = rng.sample(range(len(graph)), rng.randint(1, 2))
                label = f"w{len(plan)}"
                graph.add_node(label, parents)
                plan.append({"op": "add-node", "node": label,
                             "parents": [graph.labels[p] for p in parents]})
                continue
            u, v = rng.randrange(len(graph)), rng.randrange(len(graph))
            if graph.position[u] > graph.position[v]:
                u, v = v, u
            if u == v or (u, v) in graph.arcs:
                continue
            graph.add_arc(u, v)
            plan.append({"op": "add-arc", "u": graph.labels[u],
                         "v": graph.labels[v]})
        return plan

    def _set_queries(self, initial_adj, final_adj, rng: random.Random
                     ) -> List[Tuple[str, Set[str], Set[str]]]:
        """Nodes whose closure (one direction) has 2..SETQ_MAX_ANSWER
        members, with the answer before and after every planned write."""
        chosen: List[Tuple[str, Set[str], Set[str]]] = []
        labels = self.final.labels
        for _ in range(50 * SETQ_POOL):
            if len(chosen) == SETQ_POOL:
                break
            node = rng.randrange(self.nodes)
            before = search(initial_adj, node, SETQ_MAX_ANSWER)
            if len(before) < 2:
                continue
            after = search(final_adj, node)
            chosen.append((labels[node], {labels[i] for i in before},
                           {labels[i] for i in after}))
        if len(chosen) < SETQ_POOL:
            raise RuntimeError("could not find enough small set queries")
        return chosen

    def provenance(self) -> Dict[str, object]:
        true_share = sum(t for t, _ in self.pair_truth) / len(self.pair_truth)
        return {"nodes": self.nodes, "arcs": self.num_arcs,
                "planned_writes": len(self.writes),
                "arcs_after_writes": self.final_arcs,
                "pair_pool": len(self.pairs),
                "pair_pool_reachable_share": round(true_share, 4),
                "setq_pool": len(self.expand) + len(self.reaching)}
