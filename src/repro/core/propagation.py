"""Vectorized and level-parallel interval propagation.

The Section 3.2 propagation pass in :mod:`repro.core.labeling` visits
nodes in reverse topological order and merges each successor's interval
set into the node's own with per-node Python sorts — correct, but
single-core and interpreter-bound, which is what keeps million-node
builds from being interactive.

This module reformulates the pass over *reverse-topological levels*.
Level 0 holds the sinks; a node's level is one more than the maximum
level of its graph successors, so by the time a level is processed every
successor's final interval set is known.  Nothing inside a level depends
on anything else inside it, which yields both optimisations at once:

* **Vectorized** — concatenate, for every node of the level, its tree
  interval plus all of its successors' final ``(lo, hi)`` runs into
  three flat arrays (``lo``, ``hi``, ``owner``), then resolve the whole
  level with one ``numpy.lexsort`` and one segmented
  maximum-accumulate sweep.  The sweep keeps an interval exactly when
  its upper bound exceeds the running maximum within its owner segment
  — the same "subsumption-maximal elements of the union" fixpoint
  :meth:`IntervalSet.add_all` reaches one merge at a time, so the
  output labeling is *identical*, not merely equivalent (the parity
  test and the differential fuzzer both assert this).
* **Level-parallel** — the per-level arrays split at owner boundaries
  into independent chunks, so wide levels can fan out across a
  ``multiprocessing`` pool, in the spirit of Yang & Zaniolo's multicore
  closure evaluation.  Chunk results are concatenated back in owner
  order, keeping the output deterministic regardless of pool scheduling.

The sweep packs ``(owner, hi)`` into one int64 key, so a numbering whose
gaps are so wide that ``n * (max number + 1)`` reaches ``2**62`` runs the
sequential reference pass instead — same labeling, no overflow.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.frozen import _numpy
from repro.core.intervals import IntervalSet
from repro.core.labeling import Labeling, propagate_intervals
from repro.core.tree_cover import TreeCover
from repro.errors import ReproError
from repro.graph.digraph import DiGraph, Node

#: Propagation modes accepted by ``IntervalTCIndex.build`` and
#: :func:`repro.core.labeling.label_graph`.
PROPAGATION_MODES = ("python", "vectorized", "parallel")

#: A level fans out to worker processes only past this many flat
#: intervals — below it, pickling costs more than the sweep.
PARALLEL_MIN_ITEMS = 65536


def _sweep_chunk(payload):
    """Resolve one (lo, hi, owner) chunk to its subsumption-maximal runs.

    Module-level so the multiprocessing pool can pickle it.  ``owner``
    must already be grouped (not necessarily sorted *within* — lexsort
    handles that); the returned arrays are ordered by (owner, lo).
    """
    los, his, owners = payload
    np = _numpy()
    # (owner asc, lo asc, hi desc) in ONE argsort when the composite key
    # fits int64 — a single introsort beats lexsort's three stable
    # passes by ~2-3x.  The range guard never fires for realistic
    # numberings (the caller already bounds owner * hi).
    lo_span = int(los.max()) + 1
    hi_span = int(his.max()) + 1
    owner_span = int(owners.max()) + 1
    if owner_span * lo_span * hi_span < 2**62:
        key = (owners * lo_span + los) * hi_span + (hi_span - 1 - his)
        order = np.argsort(key)
    else:  # pragma: no cover - astronomically large gaps only
        order = np.lexsort((-his, los, owners))
    slo = los[order]
    shi = his[order]
    sown = owners[order]
    # One key per interval such that comparing keys within an owner
    # compares hi, and any later owner's key beats any earlier owner's:
    # keep iff the key exceeds the running maximum (the add_all sweep,
    # segmented).
    stride = int(shi.max()) + 1
    keys = sown * stride + shi
    running = np.maximum.accumulate(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.greater(keys[1:], running[:-1], out=keep[1:])
    return slo[keep], shi[keep], sown[keep]


def _levelize(graph: DiGraph, order: List[Node]) -> Dict[Node, int]:
    """Longest distance to a sink for every node (level schedule)."""
    return _levelize_lists(
        order, [graph.successors(node) for node in order])


def _levelize_lists(order: List[Node], succ_lists: List) -> Dict[Node, int]:
    """:func:`_levelize` over pre-fetched successor collections."""
    level: Dict[Node, int] = {}
    for node, succs in zip(reversed(order), reversed(succ_lists)):
        deepest = -1
        for successor in succs:
            if level[successor] > deepest:
                deepest = level[successor]
        level[node] = deepest + 1
    return level


def propagate_intervals_vectorized(graph: DiGraph, cover: TreeCover,
                                   labeling: Labeling, *,
                                   parallel: bool = False,
                                   processes: Optional[int] = None) -> None:
    """Drop-in replacement for :func:`propagate_intervals`.

    Mutates ``labeling.intervals`` in place to the exact sets the
    sequential pass produces.  ``parallel=True`` additionally fans wide
    levels out over a process pool (``processes`` caps the pool size;
    default ``os.cpu_count()``).  Runs the sequential pass instead when
    the numbering is too wide for the int64 sweep keys.
    """
    order = cover.order
    n = len(order)
    if not n:
        return
    tree = labeling.tree_interval
    # Every interval lies inside some tree interval, so this bounds the
    # sweep key ``owner * (hi + 1)`` of every level at once.
    if n * (max(span.hi for span in tree.values()) + 1) >= 2**62:
        propagate_intervals(graph, cover, labeling)
        return
    np = _numpy()
    successors = graph.successors
    succ_lists = [successors(node) for node in order]
    level_of = _levelize_lists(order, succ_lists)

    # One-time move into id space (id = position in `order`): the graph
    # as CSR arrays, the tree intervals as flat arrays.  After this,
    # each level is resolved with a fixed number of numpy calls — no
    # per-node or per-arc Python work inside the level loop.
    id_of = {node: i for i, node in enumerate(order)}
    counts = np.array([len(succs) for succs in succ_lists], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    get_id = id_of.__getitem__
    indices = np.array(
        [identifier for succs in succ_lists
         for identifier in map(get_id, succs)], dtype=np.int64)
    tree_spans = [tree[node] for node in order]
    tree_lo_all = np.array([span.lo for span in tree_spans], dtype=np.int64)
    tree_hi_all = np.array([span.hi for span in tree_spans], dtype=np.int64)

    levels: List[List[int]] = [[] for _ in range(max(level_of.values()) + 1)]
    # Iterate `order`, not the dict, so level membership order is
    # deterministic (insertion order of a dict built from `order` would
    # match, but this makes the invariant explicit).
    for position, node in enumerate(order):
        levels[level_of[node]].append(position)

    # Every node's final (lo, hi) runs live in one flat pool (written
    # exactly once, at the node's own level); gathering a level's input
    # is one fancy-index read instead of per-arc array allocations.
    capacity = max(1024, 2 * n)
    pool_lo = np.empty(capacity, dtype=np.int64)
    pool_hi = np.empty(capacity, dtype=np.int64)
    size = 0
    start_arr = np.zeros(n, dtype=np.int64)
    end_arr = np.zeros(n, dtype=np.int64)

    pool = None
    try:
        if parallel:
            import multiprocessing
            pool = multiprocessing.Pool(processes=processes)
        for ids in levels:
            members = np.asarray(ids, dtype=np.int64)
            count = len(ids)
            tree_lo = tree_lo_all[members]
            tree_hi = tree_hi_all[members]
            row_start = indptr[members]
            succ_counts = indptr[members + 1] - row_start
            total_arcs = int(succ_counts.sum())

            if total_arcs == 0:
                # A pure-sink level: everything keeps its tree interval.
                kept_lo, kept_hi = tree_lo, tree_hi
                bounds = np.arange(count + 1, dtype=np.int64)
            else:
                # Concatenated [start, start+length) ranges — the
                # standard cumsum trick, applied twice: once to walk the
                # CSR successor lists, once to walk each successor's
                # resolved slice of the pool.
                arc_shift = np.cumsum(succ_counts) - succ_counts
                arc_pos = (np.arange(total_arcs, dtype=np.int64)
                           + np.repeat(row_start - arc_shift, succ_counts))
                succ_ids = indices[arc_pos]
                starts = start_arr[succ_ids]
                lengths = end_arr[succ_ids] - starts
                total = int(lengths.sum())
                item_shift = np.cumsum(lengths) - lengths
                gather = (np.arange(total, dtype=np.int64)
                          + np.repeat(starts - item_shift, lengths))
                arc_owner = np.repeat(np.arange(count, dtype=np.int64),
                                      succ_counts)
                los = np.concatenate([tree_lo, pool_lo[gather]])
                his = np.concatenate([tree_hi, pool_hi[gather]])
                owners = np.concatenate([
                    np.arange(count, dtype=np.int64),
                    np.repeat(arc_owner, lengths)])
                if pool is not None and len(los) >= PARALLEL_MIN_ITEMS:
                    kept_lo, kept_hi, kept_owner = _sweep_parallel(
                        np, pool, los, his, owners, count)
                else:
                    kept_lo, kept_hi, kept_owner = _sweep_chunk(
                        (los, his, owners))
                bounds = np.searchsorted(kept_owner,
                                         np.arange(count + 1))

            needed = size + len(kept_lo)
            if needed > capacity:
                while capacity < needed:
                    capacity *= 2
                grown_lo = np.empty(capacity, dtype=np.int64)
                grown_hi = np.empty(capacity, dtype=np.int64)
                grown_lo[:size] = pool_lo[:size]
                grown_hi[:size] = pool_hi[:size]
                pool_lo, pool_hi = grown_lo, grown_hi
            pool_lo[size:needed] = kept_lo
            pool_hi[size:needed] = kept_hi
            start_arr[members] = size + bounds[:-1]
            end_arr[members] = size + bounds[1:]
            size = needed

        # Write-back: two bulk tolist() calls, then plain list slices —
        # no per-node numpy round trips.
        all_lo = pool_lo[:size].tolist()
        all_hi = pool_hi[:size].tolist()
        intervals = labeling.intervals
        make = IntervalSet.__new__
        for node, begin, end in zip(order, start_arr.tolist(),
                                    end_arr.tolist()):
            fresh = make(IntervalSet)
            fresh._los = all_lo[begin:end]
            fresh._his = all_hi[begin:end]
            intervals[node] = fresh
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def _sweep_parallel(np, pool, los, his, owners, num_owners):
    """Fan one wide level out across the pool, split at owner boundaries.

    ``owners`` is grouped but not sorted; group boundaries are found on
    a sorted copy of the owner column only, then each worker lexsorts
    its own slice.  Results concatenate in owner order, so the output is
    byte-identical to the single-chunk sweep.
    """
    workers = pool._processes
    order = np.argsort(owners, kind="stable")
    los, his, owners = los[order], his[order], owners[order]
    # Candidate splits at even item counts, snapped to owner boundaries.
    raw = [(len(los) * step) // workers for step in range(1, workers)]
    cuts = sorted({int(np.searchsorted(owners, owners[point], side="left"))
                   for point in raw if 0 < point < len(los)})
    bounds = [0] + cuts + [len(los)]
    chunks = [(los[a:b], his[a:b], owners[a:b])
              for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(chunks) <= 1:
        return _sweep_chunk((los, his, owners))
    results = pool.map(_sweep_chunk, chunks)
    return (np.concatenate([r[0] for r in results]),
            np.concatenate([r[1] for r in results]),
            np.concatenate([r[2] for r in results]))


def run_propagation(graph: DiGraph, cover: TreeCover, labeling: Labeling,
                    propagation: str = "python", *,
                    processes: Optional[int] = None) -> None:
    """Dispatch the propagation pass by mode name.

    ``"python"`` is the sequential reference pass; ``"vectorized"`` the
    numpy level kernel; ``"parallel"`` adds the multiprocessing fan-out
    for wide levels.  All three produce identical labelings.
    """
    if propagation not in PROPAGATION_MODES:
        raise ReproError(
            f"unknown propagation mode {propagation!r}; "
            f"choose from {PROPAGATION_MODES}")
    if propagation == "python":
        propagate_intervals(graph, cover, labeling)
    else:
        propagate_intervals_vectorized(
            graph, cover, labeling,
            parallel=(propagation == "parallel"), processes=processes)
