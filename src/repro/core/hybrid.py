"""Delta-overlay hybrid engine: frozen-speed reads under live updates.

:class:`~repro.core.frozen.FrozenTCIndex` (PR 1) is the fastest query
engine in the repository, but it is a snapshot: the first mutation stales
it and a read-heavy workload with even a trickle of writes pays a full
O(n + intervals) re-compile per write burst.  The paper's own answer to
update traffic is Section 4 — interval labels survive insertion and
deletion through postorder-numbering gaps — which keeps the *mutable*
index correct in microseconds but leaves its per-query constant an order
of magnitude above the flat-array engine's.

:class:`HybridTCIndex` combines the two, LSM-style:

* a **pinned frozen base** (a :meth:`~repro.core.frozen.FrozenTCIndex.detach`-ed
  snapshot) serves the bulk of every answer at flat-array speed;
* a small **delta overlay** — the arcs and nodes added since the snapshot
  — corrects base answers through a bounded search that crosses only
  delta arcs, with memoised per-entry reachable sets;
* the **mutable index underneath is written through** on every mutation
  using the Section 4 gap-based algorithms, so it is always the ground
  truth and compaction never re-runs Alg1 or the propagation pass from
  scratch: folding the delta into a fresh base is one freeze of the
  already-updated index.

The overlay correction lives in one immutable class, :class:`HybridView`:
a frozen base plus a frozen copy of the delta arcs and nodes, with its
own memos.  The hybrid pins a view of its current state (lazily, after
each mutation) and delegates every untainted read to it;
:meth:`HybridTCIndex.snapshot` hands that same view out, so a server can
publish an exact snapshot in O(delta) instead of refreezing the graph.

Additions are the cheap, common case: the overlay stays sound because
every base path still exists.  Deletions of *pre-snapshot* structure
cannot be corrected against the base (an interval cannot un-cover a
rank), so they **taint** the snapshot: queries fall back to the mutable
index — still exact, microsecond-fast — until the next compaction, and
:meth:`~HybridTCIndex.snapshot` folds before pinning.  Deleting
delta-only structure (an arc or node added since the snapshot) simply
edits the overlay and keeps the fast path.

The correction rule, for an untainted base with delta arcs
``{(a_i, b_i)}``:

    ``reach(u, v)``  iff  ``base(u, v)``  or  there is a delta arc
    ``(a, b)`` with ``base(u, a)`` and some ``t`` in ``D(b)`` with
    ``base(t, v)``

where ``base(x, y)`` is reflexive base-only reachability (new nodes reach
only themselves) and ``D(b)`` — the memoised *delta closure* of ``b`` —
is the set of delta-arc targets reachable from ``b``, including ``b``.
Splitting any path at the first delta arc it crosses shows the rule is
complete; soundness is immediate.  ``successors``, ``predecessors`` and
``reachable_many`` reuse the same decomposition; the batch form resolves
each of its three steps (the batch itself, the entry sets of its
uncached sources, the entry-to-destination tests) in one vectorised base
call.

Compaction policy: a cost threshold (``max_delta``, deletions weighted by
``delete_cost``) and a base-size ratio (``max_ratio``) trigger compaction
on the mutation that crosses them; :meth:`compact` folds eagerly on
demand.

Typical use::

    hybrid = HybridTCIndex.build(graph)
    hybrid.reachable("a", "c")            # flat-array speed
    hybrid.add_arc("c", "d")              # O(1) amortised: delta append
    hybrid.reachable("a", "d")            # True — corrected via the delta
    view = hybrid.snapshot()              # immutable base + delta, O(delta)
    hybrid.compact()                      # fold; queries unchanged
"""

from __future__ import annotations

import random
import time as _time
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from repro.core.frozen import FrozenTCIndex
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.errors import IndexStateError, NodeNotFoundError, ReproError
from repro.graph.digraph import DiGraph, Node
from repro.obs.instrument import instrumented

#: Default compaction threshold, in delta cost units (1 per added arc or
#: node, ``delete_cost`` per pre-snapshot deletion).
DEFAULT_MAX_DELTA = 64
#: Compact early when the overlay reaches this fraction of the base size,
#: so small indexes never carry proportionally huge deltas.
DEFAULT_MAX_RATIO = 0.25
#: Cost units charged for deleting pre-snapshot structure: a deletion
#: taints the base, so it should pull the next compaction much closer
#: than an addition does.
DEFAULT_DELETE_COST = 8


class HybridView:
    """An immutable frozen base plus a frozen delta overlay.

    Answers every query by the correction rule in the module docstring.
    Nothing about it changes after construction except its memos, so
    any number of readers may share one view; ``base`` may be a heap
    snapshot or an mmap'd RTCF generation.  The node set is the base's
    nodes plus ``delta_nodes`` (a view never represents deletions of
    base structure).
    """

    def __init__(self, base: FrozenTCIndex,
                 delta_arcs: Iterable[Tuple[Node, Node]] = (),
                 delta_nodes: Iterable[Node] = ()) -> None:
        self._base = base
        self._delta_arcs: Tuple[Tuple[Node, Node], ...] = tuple(
            (source, destination) for source, destination in delta_arcs)
        self._delta_nodes: FrozenSet[Node] = frozenset(delta_nodes)
        self._obs = None
        self._tracer = None
        #: entry -> frozenset of delta-arc targets reachable from it (D).
        self._delta_memo: Dict[Node, FrozenSet[Node]] = {}
        #: query source -> frozenset of delta entry targets (T).
        self._entry_memo: Dict[Node, FrozenSet[Node]] = {}

    @property
    def base(self) -> FrozenTCIndex:
        """The frozen snapshot the overlay corrects."""
        return self._base

    @property
    def delta_arcs(self) -> Tuple[Tuple[Node, Node], ...]:
        """The overlay's arcs, in insertion order."""
        return self._delta_arcs

    @property
    def delta_nodes(self) -> FrozenSet[Node]:
        """Nodes the base does not hold."""
        return self._delta_nodes

    @property
    def delta_size(self) -> int:
        """Number of arcs in the overlay."""
        return len(self._delta_arcs)

    def _require(self, node: Node) -> None:
        if node not in self:
            raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # delta correction primitives
    # ------------------------------------------------------------------
    def _base_reach(self, source: Node, destination: Node) -> bool:
        """Reflexive base-only reachability; new nodes reach only themselves."""
        if source == destination:
            return True
        base = self._base
        if source in base and destination in base:
            return base.reachable(source, destination)
        return False

    def _base_succ(self, node: Node) -> Set[Node]:
        base = self._base
        if node in base:
            return base.successors(node)
        return {node}

    def _base_pred(self, node: Node) -> Set[Node]:
        base = self._base
        if node in base:
            return base.predecessors(node)
        return {node}

    def _base_reach_each(self, source: Node,
                         nodes: Sequence[Node]) -> List[bool]:
        """base(source, node) for each node, in one base call."""
        base = self._base
        hits = [False] * len(nodes)
        source_in_base = source in base
        pairs: List[Tuple[Node, Node]] = []
        slots: List[int] = []
        for position, node in enumerate(nodes):
            if node == source:
                hits[position] = True
            elif source_in_base and node in base:
                pairs.append((source, node))
                slots.append(position)
        if pairs:
            for slot, hit in zip(slots, base.reachable_many(pairs)):
                hits[slot] = hit
        return hits

    def _delta_closure(self, entry: Node) -> FrozenSet[Node]:
        """D(entry): delta-arc targets reachable from ``entry`` (incl. itself)."""
        memo = self._delta_memo
        cached = memo.get(entry)
        if cached is not None:
            return cached
        arcs = self._delta_arcs
        arc_sources = [arc_source for arc_source, _ in arcs]
        closure = {entry}
        frontier = [entry]
        while frontier:
            node = frontier.pop()
            for (_, arc_target), hit in zip(
                    arcs, self._base_reach_each(node, arc_sources)):
                if hit and arc_target not in closure:
                    closure.add(arc_target)
                    frontier.append(arc_target)
        result = frozenset(closure)
        memo[entry] = result
        return result

    def _entry_targets_many(self, sources: Iterable[Node]
                            ) -> Dict[Node, FrozenSet[Node]]:
        """T(s) for every source — the union of D(b) over delta arcs
        (a, b) with base(s, a) — as the memo holding them.

        Everything a source gained from the overlay is base-reachable
        from some member of its T.  The arc-source tests of every
        uncached source run as one vectorised base call.
        """
        memo = self._entry_memo
        missing = [source for source in set(sources) if source not in memo]
        if not missing:
            return memo
        base = self._base
        arcs = self._delta_arcs
        entered: Dict[Node, List[int]] = {source: [] for source in missing}
        pairs: List[Tuple[Node, Node]] = []
        slots: List[Tuple[Node, int]] = []
        for source in missing:
            source_in_base = source in base
            for position, (arc_source, _) in enumerate(arcs):
                if arc_source == source:
                    entered[source].append(position)
                elif source_in_base and arc_source in base:
                    pairs.append((source, arc_source))
                    slots.append((source, position))
        if pairs:
            for (source, position), hit in zip(slots,
                                               base.reachable_many(pairs)):
                if hit:
                    entered[source].append(position)
        for source, positions in entered.items():
            targets: Set[Node] = set()
            for position in positions:
                targets |= self._delta_closure(arcs[position][1])
            memo[source] = frozenset(targets)
        return memo

    def _entry_targets(self, source: Node) -> FrozenSet[Node]:
        """T(source), memoised for the life of this view."""
        cached = self._entry_memo.get(source)
        if cached is not None:
            return cached
        return self._entry_targets_many((source,))[source]

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """Whether ``source`` reaches ``destination`` (reflexive): one
        flat-array lookup, plus at most |T(source)| more when the
        overlay is non-empty."""
        base = self._base
        if source in base and destination in base:
            if base.reachable(source, destination):
                return True
        else:
            self._require(source)
            self._require(destination)
            if source == destination:
                return True
        if not self._delta_arcs:
            return False
        targets = self._entry_targets(source)
        tracer = self._tracer
        if targets and tracer is not None and tracer.current() is not None:
            tracer.annotate("overlay", True)
        for target in targets:
            if self._base_reach(target, destination):
                return True
        return False

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """All nodes reachable from ``source``: base slice walk + overlay union."""
        self._require(source)
        result = self._base_succ(source)
        if self._delta_arcs:
            for target in self._entry_targets(source):
                result |= self._base_succ(target)
        if not reflexive:
            result.discard(source)
        return result

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Duplicate-free successor iterator (order unspecified)."""
        return iter(self.successors(source, reflexive=reflexive))

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Successor count; run-width arithmetic on the clean no-delta path."""
        if not self._delta_arcs and source in self._base:
            return self._base.count_successors(source, reflexive=reflexive)
        total = len(self.successors(source))
        return total if reflexive else total - 1

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *,
                     reflexive: bool = True) -> Set[Node]:
        """Every node that reaches ``destination``.

        A delta arc ``(a, b)`` contributes the base predecessors of ``a``
        exactly when some member of D(b) base-reaches the destination —
        the same first-crossed-arc decomposition, read from the far end.
        """
        self._require(destination)
        result = self._base_pred(destination)
        for arc_source, arc_target in self._delta_arcs:
            if any(self._base_reach(target, destination)
                   for target in self._delta_closure(arc_target)):
                result |= self._base_pred(arc_source)
        if not reflexive:
            result.discard(destination)
        return result

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Batch :meth:`reachable` in at most three vectorised base calls.

        One for the in-base pairs of the batch; one for the arc-source
        tests of every source not yet memoised; one for the
        (entry target, destination) tests of the pairs still ``False``.
        """
        pair_list = pairs if isinstance(pairs, list) else list(pairs)
        if not pair_list:
            return []
        base = self._base
        try:
            results = base.reachable_many(pair_list)
        except NodeNotFoundError:
            # The batch touches overlay nodes (or unknown ones, which
            # the mixed path rejects).
            results = self._reachable_many_mixed(pair_list)
        if not self._delta_arcs:
            return results
        misses = [position for position, hit in enumerate(results)
                  if not hit]
        if not misses:
            return results
        entries = self._entry_targets_many(
            pair_list[position][0] for position in misses)
        batch: List[Tuple[Node, Node]] = []
        slots: List[int] = []
        for position in misses:
            source, destination = pair_list[position]
            targets = entries[source]
            if not targets:
                continue
            destination_in_base = destination in base
            for target in targets:
                if target == destination:
                    results[position] = True
                    break
                if destination_in_base and target in base:
                    batch.append((target, destination))
                    slots.append(position)
        if batch:
            for slot, hit in zip(slots, base.reachable_many(batch)):
                if hit:
                    results[slot] = True
        return results

    def _reachable_many_mixed(self, pair_list: List[Tuple[Node, Node]]
                              ) -> List[bool]:
        """Base-only answers for a batch touching overlay nodes."""
        base = self._base
        delta_nodes = self._delta_nodes
        results = [False] * len(pair_list)
        batch: List[Tuple[Node, Node]] = []
        slots: List[int] = []
        for position, (source, destination) in enumerate(pair_list):
            source_in_base = source in base
            destination_in_base = destination in base
            if not source_in_base and source not in delta_nodes:
                raise NodeNotFoundError(source)
            if not destination_in_base and destination not in delta_nodes:
                raise NodeNotFoundError(destination)
            if source == destination:
                results[position] = True
            elif source_in_base and destination_in_base:
                batch.append((source, destination))
                slots.append(position)
        if batch:
            for slot, hit in zip(slots, base.reachable_many(batch)):
                results[slot] = hit
        return results

    @instrumented("successors_many")
    def successors_many(self, sources: Iterable[Node], *,
                        reflexive: bool = True) -> List[Set[Node]]:
        """One successor set per source, in input order."""
        return [self.successors(source, reflexive=reflexive)
                for source in sources]

    @instrumented("predecessors_many")
    def predecessors_many(self, destinations: Iterable[Node], *,
                          reflexive: bool = True) -> List[Set[Node]]:
        """One predecessor set per destination, in input order."""
        return [self.predecessors(destination, reflexive=reflexive)
                for destination in destinations]

    # ------------------------------------------------------------------
    # set semijoins
    # ------------------------------------------------------------------
    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        """Everything reachable from *any* source (reflexive)."""
        source_list = list(sources)
        base = self._base
        if not self._delta_arcs and all(source in base
                                        for source in source_list):
            return base.reachable_from_set(source_list)
        result: Set[Node] = set()
        for source in source_list:
            result |= self.successors(source)
        return result

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive)."""
        destination_list = list(destinations)
        base = self._base
        if not self._delta_arcs and all(destination in base
                                        for destination in destination_list):
            return base.reaching_set(destination_list)
        result: Set[Node] = set()
        for destination in destination_list:
            result |= self.predecessors(destination)
        return result

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin."""
        destination_list = list(destinations)
        if not destination_list:
            return False
        base = self._base
        if not self._delta_arcs and all(d in base for d in destination_list):
            source_list = list(sources)
            if all(s in base for s in source_list):
                return base.any_reachable(source_list, destination_list)
            sources = source_list
        for destination in destination_list:
            self._require(destination)
        destination_set = set(destination_list)
        for source in sources:
            if self.successors(source) & destination_set:
                return True
        return False

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        """Whether the two nodes share no common descendant (reflexive)."""
        base = self._base
        if not self._delta_arcs and first in base and second in base:
            return base.are_disjoint(first, second)
        return not (self.successors(first) & self.successors(second))

    # ------------------------------------------------------------------
    # membership and introspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._base or node in self._delta_nodes

    def __len__(self) -> int:
        return len(self._base) + len(self._delta_nodes)

    def nodes(self) -> Iterator[Node]:
        """All nodes: the base's, then the overlay's."""
        yield from self._base.nodes()
        yield from self._delta_nodes

    def capabilities(self) -> "EngineCapabilities":
        """An immutable snapshot with a vectorised base for batches."""
        from repro.core.engine import EngineCapabilities
        return EngineCapabilities(
            kind="hybrid-view", supports_updates=False, supports_batch=True,
            is_frozen_snapshot=True, durable=False)

    def stats(self) -> dict:
        """The base's report (``nbytes``, ``num_intervals``, ...) with
        the node count and overlay size of the whole view."""
        stats = dict(self._base.stats())
        stats["num_nodes"] = len(self)
        stats["delta_arcs"] = len(self._delta_arcs)
        stats["delta_nodes"] = len(self._delta_nodes)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HybridView(nodes={len(self)}, "
                f"delta_arcs={len(self._delta_arcs)}, "
                f"delta_nodes={len(self._delta_nodes)})")


class HybridTCIndex:
    """Frozen base snapshot + mutable delta overlay + write-through truth.

    Build with :meth:`build` (or wrap an existing index with
    :meth:`from_index`); query with the shared engine surface
    (:meth:`reachable`, :meth:`successors`, :meth:`predecessors`, the
    batch and semijoin forms); update with :meth:`add_node`,
    :meth:`add_arc`, :meth:`remove_arc`, :meth:`remove_node`; pin an
    immutable view with :meth:`snapshot`; fold with :meth:`compact`.
    """

    def __init__(self, index: IntervalTCIndex, *,
                 max_delta: int = DEFAULT_MAX_DELTA,
                 max_ratio: float = DEFAULT_MAX_RATIO,
                 delete_cost: int = DEFAULT_DELETE_COST) -> None:
        if max_delta < 1:
            raise ReproError(f"max_delta must be >= 1, got {max_delta}")
        if not max_ratio > 0:
            raise ReproError(f"max_ratio must be positive, got {max_ratio}")
        if delete_cost < 1:
            raise ReproError(f"delete_cost must be >= 1, got {delete_cost}")
        self._index = index
        self._max_delta = max_delta
        self._max_ratio = max_ratio
        self._delete_cost = delete_cost
        self._compactions = 0
        self._obs = None
        self._tracer = None
        self._base = self._compile()
        self._reset_delta()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DiGraph, *, policy: str = "alg1",
              gap: int = DEFAULT_GAP,
              max_delta: int = DEFAULT_MAX_DELTA,
              max_ratio: float = DEFAULT_MAX_RATIO,
              delete_cost: int = DEFAULT_DELETE_COST,
              rng: Union[random.Random, int, None] = None,
              **index_kwargs) -> "HybridTCIndex":
        """Compute the compressed closure of ``graph`` and snapshot it.

        ``policy``/``gap`` and any extra keyword arguments configure the
        underlying :meth:`IntervalTCIndex.build`; the remaining keywords
        configure the overlay (see the class docstring).
        """
        index = IntervalTCIndex.build(graph, policy=policy, gap=gap, rng=rng,
                                      **index_kwargs)
        return cls(index, max_delta=max_delta,
                   max_ratio=max_ratio, delete_cost=delete_cost)

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple], **kwargs) -> "HybridTCIndex":
        """Build directly from ``(source, destination)`` pairs."""
        return cls.build(DiGraph(arcs), **kwargs)

    @classmethod
    def from_index(cls, index: IntervalTCIndex, **kwargs) -> "HybridTCIndex":
        """Wrap an already-built index (snapshots it immediately)."""
        return cls(index, **kwargs)

    @classmethod
    def restore(cls, index: IntervalTCIndex, base: FrozenTCIndex, *,
                delta_arcs: Sequence[Tuple[Node, Node]],
                delta_nodes: Iterable[Node],
                delta_cost: int, tainted: bool,
                max_delta: int = DEFAULT_MAX_DELTA,
                max_ratio: float = DEFAULT_MAX_RATIO,
                delete_cost: int = DEFAULT_DELETE_COST) -> "HybridTCIndex":
        """Adopt persisted state without recompiling the base snapshot.

        This is the warm-restart path used by
        :func:`repro.core.serialize.hybrid_from_dict`: ``index`` is the
        current (post-delta) truth, ``base`` the snapshot it was frozen
        from, and the delta log replays the difference between them.
        """
        self = cls.__new__(cls)
        self._index = index
        self._max_delta = max_delta
        self._max_ratio = max_ratio
        self._delete_cost = delete_cost
        self._compactions = 0
        self._obs = None
        self._tracer = None
        self._base = base.detach()
        self._reset_delta()
        self._delta_arcs = [(source, destination)
                            for source, destination in delta_arcs]
        self._delta_arc_set = set(self._delta_arcs)
        self._delta_nodes = set(delta_nodes)
        self._delta_cost = delta_cost
        self._tainted = tainted
        return self

    def _compile(self) -> FrozenTCIndex:
        # Deliberately not ``index.freeze()``: the cached view there must
        # stay strict (stale after one epoch), while the base must be
        # pinned.  Detaching a shared cache entry would leak never-stale
        # views to other callers.
        frozen = FrozenTCIndex.from_index(self._index).detach()
        # Every recompiled base inherits this hybrid's observability so
        # base lookups keep reporting after a compaction.
        frozen._obs = (self._obs.child("FrozenTCIndex")
                       if self._obs is not None else None)
        frozen._tracer = self._tracer
        return frozen

    def _reset_delta(self) -> None:
        self._delta_arcs: List[Tuple[Node, Node]] = []
        self._delta_arc_set: Set[Tuple[Node, Node]] = set()
        self._delta_nodes: Set[Node] = set()
        self._delta_cost = 0
        self._tainted = False
        self._expected_epoch = self._index.epoch
        #: The pinned view of the current state; rebuilt on demand after
        #: each mutation, so a burst of writes pins once.
        self._view: Optional[HybridView] = None

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    @property
    def delta_size(self) -> int:
        """Number of arcs currently in the overlay."""
        return len(self._delta_arcs)

    @property
    def delta_cost(self) -> int:
        """Accumulated mutation cost since the last compaction."""
        return self._delta_cost

    @property
    def tainted(self) -> bool:
        """Whether a pre-snapshot deletion forced mutable-index routing."""
        return self._tainted

    @property
    def compactions(self) -> int:
        """How many times the delta has been folded into a fresh base."""
        return self._compactions

    @property
    def index(self) -> IntervalTCIndex:
        """The write-through mutable index (always the ground truth)."""
        return self._index

    @property
    def journal(self):
        """The write-ahead journal sink, if any.

        Lives on the write-through index: every hybrid mutation funnels
        through it, so attaching the sink there logs exactly the
        acknowledged Section 4 op stream — overlay bookkeeping never
        reaches the log.
        """
        return self._index.journal

    @journal.setter
    def journal(self, sink) -> None:
        self._index.journal = sink

    @property
    def base(self) -> FrozenTCIndex:
        """The pinned frozen snapshot queries are served from."""
        return self._base

    @property
    def epoch(self) -> int:
        """How many distinct bases this hybrid has pinned.

        Counts folds (base swaps), not mutations or snapshots: a burst
        of writes folded by one :meth:`compact` advances it once.
        """
        return self._compactions

    def snapshot(self) -> HybridView:
        """An immutable engine for the *current* exact state.

        The pinned base plus a frozen copy of the delta — O(delta), no
        freeze — unless a pre-snapshot deletion (or an out-of-band
        mutation of :attr:`index`) tainted the base, which no overlay
        can express: then it folds first.  The view never changes
        afterwards, so callers may hand it to any number of readers
        without coordination; the next ``snapshot()`` after further
        writes returns a different object.
        """
        if self._sync():
            self.compact()
        return self._pinned()

    def _pinned(self) -> HybridView:
        view = self._view
        if view is None or view._tracer is not self._tracer:
            view = HybridView(self._base, self._delta_arcs, self._delta_nodes)
            view._tracer = self._tracer
            self._view = view
        return view

    @property
    def graph(self) -> DiGraph:
        """The live graph (owned by the write-through index)."""
        return self._index.graph

    @property
    def delta_arcs(self) -> Tuple[Tuple[Node, Node], ...]:
        """The overlay's arc log (insertion order)."""
        return tuple(self._delta_arcs)

    @property
    def delta_nodes(self) -> FrozenSet[Node]:
        """Nodes added since the snapshot."""
        return frozenset(self._delta_nodes)

    def _threshold(self) -> int:
        ratio_cap = int(self._max_ratio * max(len(self._base), 1))
        return max(1, min(self._max_delta, ratio_cap))

    def _over_threshold(self) -> bool:
        return self._delta_cost >= self._threshold()

    def compact(self) -> bool:
        """Fold the delta into a fresh frozen base; queries are unchanged.

        The underlying index already absorbed every mutation through the
        Section 4 gap-based algorithms, so compaction is a single freeze
        of current state — no Alg1 re-run, no from-scratch closure.
        Returns whether any folding happened (``False`` on an empty,
        untainted overlay).
        """
        if (not self._delta_arcs and not self._delta_nodes
                and not self._tainted
                and self._expected_epoch == self._index.epoch):
            return False
        obs = self._obs
        started = _time.perf_counter_ns() if obs is not None else 0
        self._base = self._compile()
        self._reset_delta()
        self._compactions += 1
        if obs is not None:
            obs.counter("tc_hybrid_compaction_total",
                        help="delta folds into a fresh base").inc()
            obs.histogram(
                "tc_hybrid_compaction_seconds",
                help="wall time folding the delta into a fresh base",
            ).observe_ns(_time.perf_counter_ns() - started)
        return True

    def _note_mutation(self, cost: int) -> None:
        self._delta_cost += cost
        self._expected_epoch = self._index.epoch
        self._view = None
        if self._over_threshold():
            self.compact()

    # ------------------------------------------------------------------
    # mutations (write-through + delta log)
    # ------------------------------------------------------------------
    @instrumented("add_node")
    def add_node(self, node: Node, parents: Sequence[Node] = ()) -> None:
        """Insert a new node with arcs from each of ``parents``.

        Applied to the mutable index immediately (Section 4 insertion);
        the node and its incoming arcs join the overlay so the frozen
        base keeps serving.
        """
        parent_list = list(parents)
        self._index.add_node(node, parent_list)
        self._delta_nodes.add(node)
        for parent in parent_list:
            self._record_arc(parent, node)
        self._note_mutation(1 + len(parent_list))

    @instrumented("add_arc")
    def add_arc(self, source: Node, destination: Node) -> None:
        """Insert an arc between existing nodes; O(1) amortised overlay append."""
        before = self._index.epoch
        self._index.add_arc(source, destination)
        if self._index.epoch == before:
            return  # arc already present: the index did nothing
        self._record_arc(source, destination)
        self._note_mutation(1)

    def _record_arc(self, source: Node, destination: Node) -> None:
        arc = (source, destination)
        if arc not in self._delta_arc_set:
            self._delta_arc_set.add(arc)
            self._delta_arcs.append(arc)

    @instrumented("remove_arc")
    def remove_arc(self, source: Node, destination: Node) -> None:
        """Delete an arc.

        A delta arc (added since the snapshot) is simply dropped from the
        overlay — the base never knew it.  A pre-snapshot arc taints the
        base: queries route to the mutable index until compaction.
        """
        before = self._index.epoch
        self._index.remove_arc(source, destination)
        if self._index.epoch == before:
            return
        arc = (source, destination)
        if arc in self._delta_arc_set:
            self._delta_arc_set.discard(arc)
            self._delta_arcs.remove(arc)
            self._note_mutation(0)
        else:
            self._tainted = True
            self._note_mutation(self._delete_cost)

    @instrumented("remove_node")
    def remove_node(self, node: Node) -> None:
        """Delete a node and all incident arcs (same taint rule as arcs).

        Every arc incident to a post-snapshot node is itself a delta arc,
        so removing a delta node just edits the overlay.
        """
        self._index.remove_node(node)
        if node in self._delta_nodes:
            self._delta_nodes.discard(node)
            kept = [(source, destination)
                    for source, destination in self._delta_arcs
                    if source != node and destination != node]
            self._delta_arcs = kept
            self._delta_arc_set = set(kept)
            self._note_mutation(0)
        else:
            self._tainted = True
            self._note_mutation(self._delete_cost)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _sync(self) -> bool:
        """Pre-query bookkeeping; returns whether to route to the index.

        Detects out-of-band mutations (someone updated :attr:`index`
        directly: the epoch moved without the overlay seeing it) and
        taints — the delta log no longer tells the whole story, but the
        write-through index is still exact.
        """
        if self._index.epoch != self._expected_epoch:
            self._tainted = True
            self._expected_epoch = self._index.epoch
            self._view = None
        return self._tainted

    def _route(self) -> Optional[HybridView]:
        """The view to answer from, or ``None`` to use the index."""
        tracer = self._tracer
        tainted = self._sync()
        if tracer is not None and tracer.current() is not None:
            tracer.annotate("route", "index" if tainted else "base")
        return None if tainted else self._pinned()

    # ------------------------------------------------------------------
    # queries: the pinned view when untainted, the index otherwise
    # ------------------------------------------------------------------
    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """Whether ``source`` reaches ``destination`` (reflexive).

        Untainted: one flat-array lookup, plus at most |T(source)| more
        when the overlay is non-empty.  Tainted: exact answer from the
        mutable index.
        """
        view = self._route()
        if view is None:
            return self._index.reachable(source, destination)
        return view.reachable(source, destination)

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """All nodes reachable from ``source``: base slice walk + overlay union."""
        view = self._route()
        if view is None:
            return self._index.successors(source, reflexive=reflexive)
        return view.successors(source, reflexive=reflexive)

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Duplicate-free successor iterator (order unspecified)."""
        return iter(self.successors(source, reflexive=reflexive))

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Successor count; run-width arithmetic on the clean no-delta path."""
        view = self._route()
        if view is None:
            return self._index.count_successors(source, reflexive=reflexive)
        return view.count_successors(source, reflexive=reflexive)

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *,
                     reflexive: bool = True) -> Set[Node]:
        """Every node that reaches ``destination``."""
        view = self._route()
        if view is None:
            return self._index.predecessors(destination, reflexive=reflexive)
        return view.predecessors(destination, reflexive=reflexive)

    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Batch :meth:`reachable` (see :meth:`HybridView.reachable_many`)."""
        view = self._route()
        if view is None:
            index = self._index
            return [index.reachable(source, destination)
                    for source, destination in pairs]
        return view.reachable_many(pairs)

    @instrumented("successors_many")
    def successors_many(self, sources: Iterable[Node], *,
                        reflexive: bool = True) -> List[Set[Node]]:
        """One successor set per source, in input order."""
        return [self.successors(source, reflexive=reflexive)
                for source in sources]

    @instrumented("predecessors_many")
    def predecessors_many(self, destinations: Iterable[Node], *,
                          reflexive: bool = True) -> List[Set[Node]]:
        """One predecessor set per destination, in input order."""
        return [self.predecessors(destination, reflexive=reflexive)
                for destination in destinations]

    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        """Everything reachable from *any* source (reflexive)."""
        view = self._route()
        if view is None:
            return self._index.reachable_from_set(sources)
        return view.reachable_from_set(sources)

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive)."""
        view = self._route()
        if view is None:
            return self._index.reaching_set(destinations)
        return view.reaching_set(destinations)

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin."""
        view = self._route()
        if view is None:
            return self._index.any_reachable(sources, destinations)
        return view.any_reachable(sources, destinations)

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        """Whether the two nodes share no common descendant (reflexive)."""
        view = self._route()
        if view is None:
            return self._index.are_disjoint(first, second)
        return view.are_disjoint(first, second)

    # ------------------------------------------------------------------
    # membership and introspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._index.postorder

    def __len__(self) -> int:
        return len(self._index.postorder)

    def nodes(self) -> Iterator[Node]:
        """All indexed nodes (current state, overlay included)."""
        return self._index.nodes()

    def capabilities(self) -> "EngineCapabilities":
        """Updatable with a vectorised frozen base for clean batches."""
        from repro.core.engine import EngineCapabilities
        return EngineCapabilities(
            kind="hybrid", supports_updates=True, supports_batch=True,
            is_frozen_snapshot=False, durable=False)

    def stats(self) -> dict:
        """Overlay/compaction accounting plus the base engine's report."""
        return {
            "num_nodes": len(self),
            "delta_arcs": len(self._delta_arcs),
            "delta_nodes": len(self._delta_nodes),
            "delta_cost": self._delta_cost,
            "threshold": self._threshold(),
            "tainted": self._tainted,
            "compactions": self._compactions,
            "base": self._base.stats(),
        }

    def to_state(self) -> dict:
        """The persistent pieces (see :mod:`repro.core.serialize`)."""
        return {
            "delta_arcs": list(self._delta_arcs),
            "delta_nodes": sorted(self._delta_nodes, key=repr),
            "delta_cost": self._delta_cost,
            "tainted": self._tainted,
            "settings": {
                "max_delta": self._max_delta,
                "max_ratio": self._max_ratio,
                "delete_cost": self._delete_cost,
            },
        }

    # ------------------------------------------------------------------
    # verification (tests and the fuzzer's audits)
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the write-through index against the graph, then the
        overlay-corrected answers against the index.  O(n^2)-ish — for
        tests, not production."""
        self._index.verify()
        if self._sync():
            return  # tainted: queries already come straight from the index
        for node in self._index.nodes():
            expected = self._index.successors(node)
            actual = self.successors(node)
            if actual != expected:
                raise IndexStateError(
                    f"hybrid successors mismatch at {node!r}: "
                    f"missing={sorted(map(repr, expected - actual))} "
                    f"extra={sorted(map(repr, actual - expected))}")
            expected = self._index.predecessors(node)
            actual = self.predecessors(node)
            if actual != expected:
                raise IndexStateError(
                    f"hybrid predecessors mismatch at {node!r}: "
                    f"missing={sorted(map(repr, expected - actual))} "
                    f"extra={sorted(map(repr, actual - expected))}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HybridTCIndex(nodes={len(self)}, "
                f"delta_arcs={len(self._delta_arcs)}, "
                f"cost={self._delta_cost}/{self._threshold()}, "
                f"compactions={self._compactions}"
                f"{', TAINTED' if self._tainted else ''})")
